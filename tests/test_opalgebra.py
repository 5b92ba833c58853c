"""Structured operators: canonical form, algebra, and exact comparisons.

Dense cross-checks use the independent renderer from helpers, not the
library's own windowing.  Composition is checked through vector application,
which is exact and free of truncation artifacts.
"""

import contextlib
import math
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrepeat
import qrepeat.opalgebra as oa
from helpers import (NORM_DEFECT, UNDECIDED_NORMS, dense, dense_blocks, dense_vec,
                     operators, point_products, ref_compose, states)
from qrepeat import (Dyad, Family, IndexSet, PeriodCapExceeded, StateVector,
                     StructuredOperator, UnsupportedForm)

DIM = 24


def mat(op):
    return dense(op, DIM)


# -- construction and canonical form -----------------------------------------


def test_family_folds_j_start_into_offsets():
    assert Family(1.0, 2, 1, 2, 0, j_start=3) == Family(1.0, 2, 7, 2, 6)


def test_family_rejects_bad_strides():
    with pytest.raises(ValueError):
        Family(1.0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        Family(1.0, 1, 0, -2, 0)
    with pytest.raises(ValueError):
        Dyad(1.0, -1, 0)


def test_canonical_order_is_presentation_independent():
    t1 = Dyad(0.5, 1, 0)
    t2 = Family(1.0, 2, 3, 2, 1)
    assert StructuredOperator((t1, t2)) == StructuredOperator((t2, t1))
    assert hash(StructuredOperator((t1, t2))) == hash(StructuredOperator((t2, t1)))


def test_canonical_merges_coincident_dyads():
    op = StructuredOperator((Dyad(0.25, 2, 3), Dyad(0.75, 2, 3)))
    assert op.terms == (Dyad(1.0, 2, 3),)


def test_canonical_drops_cancelled_terms():
    op = StructuredOperator((Dyad(1.0, 2, 3), Dyad(-1.0, 2, 3)))
    assert op.is_zero()
    assert op.terms == ()


def test_point_cancelling_a_family_head_moves_its_start():
    op = StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(-1.0, 3, 1)))
    assert op.terms == (Family(1.0, 2, 5, 2, 3),)


def test_point_before_a_family_head_extends_it_backward():
    op = StructuredOperator((Family(0.5, 2, 5, 2, 3), Dyad(0.5, 3, 1)))
    assert op.terms == (Family(0.5, 2, 3, 2, 1),)


def test_point_on_two_family_boundaries_goes_to_the_least_family():
    # (5, 5) is one step before the head of one family and the head of
    # another, and matches both; families are tried in sorted order
    extend_first = StructuredOperator((Family(-1.0, 1, 6, 1, 6), Family(1.0, 2, 5, 2, 5),
                                       Dyad(-1.0, 5, 5)))
    assert extend_first.terms == (Family(-1.0, 1, 5, 1, 5), Family(1.0, 2, 5, 2, 5))
    cancel_first = StructuredOperator((Family(1.0, 1, 5, 1, 5), Family(-1.0, 2, 7, 2, 7),
                                       Dyad(-1.0, 5, 5)))
    assert cancel_first.terms == (Family(1.0, 1, 6, 1, 6), Family(-1.0, 2, 7, 2, 7))


def test_two_points_before_a_family_head_extend_it_twice():
    op = StructuredOperator((Family(0.5, 1, 5, 1, 5), Dyad(0.5, 4, 4), Dyad(0.5, 3, 3)))
    assert op.terms == (Family(0.5, 1, 3, 1, 3),)


def test_the_least_point_on_a_boundary_is_absorbed_first():
    # (4, 4) extends the family, after which (5, 5) lies inside it; taken
    # the other way round, (5, 5) would cancel the head and (4, 4) stay
    op = StructuredOperator((Family(1.0, 1, 5, 1, 5), Dyad(-1.0, 5, 5), Dyad(1.0, 4, 4)))
    assert op.terms == (Family(1.0, 1, 4, 1, 4), Dyad(-1.0, 5, 5))


def test_point_inside_a_family_stays_separate():
    op = StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(0.25, 5, 3)))
    assert op.terms == (Family(1.0, 2, 3, 2, 1), Dyad(0.25, 5, 3))
    assert mat(op)[5, 3] == 1.25


def test_shift_family_dense_form():
    shift = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    expected = np.zeros((8, 8), dtype=complex)
    expected[3, 1] = expected[5, 3] = expected[7, 5] = 1.0
    assert np.array_equal(dense(shift, 8), expected)


# -- application --------------------------------------------------------------


def test_apply_matches_dense_matvec():
    op = StructuredOperator((Family(0.5j, 3, 2, 2, 0), Dyad(1.0, 0, 5)))
    psi = StateVector({0: 0.6, 4: 0.8j, 5: -1.0})
    out = oa.apply(op, psi)
    assert np.allclose(dense_vec(out, DIM), mat(op) @ dense_vec(psi, DIM))


@given(operators(), states())
def test_apply_is_linear(op, psi):
    doubled = oa.apply(op, StateVector({i: 2 * a for i, a in psi.items()}))
    once = oa.apply(op, psi)
    assert np.allclose(dense_vec(doubled, DIM * 4), 2 * dense_vec(once, DIM * 4),
                       atol=1e-12)


# -- adjoint, addition, composition -------------------------------------------


@given(operators())
def test_adjoint_is_dense_conjugate_transpose(op):
    assert np.allclose(mat(oa.adjoint(op)), mat(op).conj().T, atol=1e-12)


@given(operators())
def test_adjoint_involution(op):
    assert oa.adjoint(oa.adjoint(op)) == op


@given(operators(), operators())
def test_add_matches_dense(a, b):
    assert np.allclose(mat(oa.add(a, b)), mat(a) + mat(b), atol=1e-12)


@given(operators(), operators(), states())
@settings(deadline=None)
def test_compose_agrees_with_sequential_application(a, b, psi):
    lhs = oa.apply(oa.compose(a, b), psi)
    rhs = oa.apply(a, oa.apply(b, psi))
    hi = 1 + max([i for i, _ in lhs.items()] + [i for i, _ in rhs.items()] + [0])
    assert np.allclose(dense_vec(lhs, hi), dense_vec(rhs, hi), atol=1e-9)


def _bits(op):
    # float.hex tells -0.0 from 0.0 and shows every last bit
    return [(t.coeff.real.hex(), t.coeff.imag.hex(), t.out_stride, t.out_offset,
             t.in_stride, t.in_offset, t.length) for t in op.terms]


@given(st.one_of(operators(), dense_blocks()), st.one_of(operators(), dense_blocks()))
@settings(deadline=None)
def test_compose_equals_the_all_pairs_product_bit_for_bit(a, b):
    all_pairs = StructuredOperator([oa.Term(*p) for ta in a.terms for tb in b.terms
                                    if (p := oa._compose_terms(ta, tb)) is not None])
    assert _bits(oa.compose(a, b)) == _bits(all_pairs)


@given(st.one_of(operators(), dense_blocks()))
def test_canonical_terms_are_the_validating_constructors_terms(op):
    rebuilt = [oa.Term(t.coeff, t.out_stride, t.out_offset, t.in_stride, t.in_offset, t.length)
               for t in op.terms]
    assert _bits(op) == _bits(SimpleNamespace(terms=rebuilt))
    assert all(type(t.coeff) is complex for t in op.terms)
    # Term.adjoint skips validation; it must give the validating constructor's term
    flipped = [oa.Term(t.coeff.conjugate(), t.in_stride, t.in_offset, t.out_stride, t.out_offset,
                       t.length) for t in op.terms]
    assert (_bits(SimpleNamespace(terms=[t.adjoint() for t in op.terms]))
            == _bits(SimpleNamespace(terms=flipped)))


def test_compose_rejects_an_overflowing_product():
    a = StructuredOperator((Dyad(1e300, 0, 1),))
    b = StructuredOperator((Dyad(1e300, 1, 5),))
    with pytest.raises(ValueError, match="finite"):
        oa.compose(a, b)


def test_compose_rejects_overflowing_products_that_cancel():
    # the products at (0, 5) are inf and -inf; their sum is nan, which the
    # tolerance filter alone would drop, since abs(nan) > tol is False
    a = StructuredOperator((Dyad(1e300, 0, 1), Dyad(-1e300, 0, 2)))
    b = StructuredOperator((Dyad(1e300, 1, 5), Dyad(1e300, 2, 5)))
    with pytest.raises(ValueError, match="finite"):
        oa.compose(a, b)


def test_compose_rejects_an_overflowing_progression_product():
    a = StructuredOperator((Family(1e300, 1, 0, 1, 0),))
    b = StructuredOperator((Family(1e300, 2, 1, 2, 1),))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        oa.compose(a, b)


@contextlib.contextmanager
def kernel_runs():
    """Records, per compose inside the block, whether the dense point
    kernel built the point table."""
    ran, inner = [], oa._point_product

    def spy(*args):
        table = inner(*args)
        ran.append(table is not None)
        return table

    with mock.patch.object(oa, "_point_product", spy):
        yield ran


def kernel_applies(a, b):
    """Dense point blocks, no point of ``a`` with its column on an output
    progression of ``b``, no point of ``b`` with its row on an input
    progression of ``a``; decided on the progressions' index sets.  Dense:
    the matching point pairs number at least ``_KERNEL_MIN_PAIRS`` and
    fill at least half of rows * inner * cols, counted pair by pair."""
    matches = [s.in_offset for s in a.dyads for t in b.dyads if s.in_offset == t.out_offset]
    rows = {s.out_offset for s in a.dyads}
    cols = {t.in_offset for t in b.dyads}
    inner = set(matches)
    if len(matches) < oa._KERNEL_MIN_PAIRS or 2 * len(matches) < len(rows) * len(inner) * len(cols):
        return False
    b_rows = StructuredOperator._canonical(b.families).range_set()
    a_cols = StructuredOperator._canonical(a.families).support_set()
    return not (any(b_rows.member(t.in_offset) for t in a.dyads)
                or any(a_cols.member(t.out_offset) for t in b.dyads))


def _block(d, seed):
    rng = np.random.default_rng(seed)
    return StructuredOperator([Dyad(complex(*rng.standard_normal(2)), i, j)
                               for i in range(d) for j in range(d)])


def _real_block(d, value):
    return StructuredOperator([Dyad(value, i, j) for i in range(d) for j in range(d)])


@given(point_products())
@example((_block(8, 1), _block(8, 2)))  # one pure draw that must take the kernel
# real negative x negative: each product is 6-0j, and the sums' imaginary
# parts must read +0.0 in the join as in the kernel, on any CPython
@example((_real_block(8, -2.0), _real_block(8, -3.0)))
@settings(deadline=None, max_examples=300)
def test_compose_point_kernel_equals_the_dict_join_bit_for_bit(ab):
    a, b = ab
    with kernel_runs() as ran:
        got = oa.compose(a, b)
    assert _bits(got) == _bits(ref_compose(a, b))
    # pure point blocks above the size threshold must take the kernel, and
    # points on a tail's head or the step before it the dict join
    assert ran == [kernel_applies(a, b)]


def test_compose_keeps_the_term_order_of_a_non_canonical_left_factor():
    # the join sums each entry in a's term order; reversed points would make
    # the kernel's ascending order differ in the last bits
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((8, 8)) * 10.0 ** rng.uniform(-8, 8, size=(8, 8))
    a = StructuredOperator._canonical(tuple(
        Dyad(float(vals[i, j]), i, j) for i in reversed(range(8)) for j in reversed(range(8))))
    b = _block(8, 4)
    with kernel_runs() as ran:
        got = oa.compose(a, b)
    assert _bits(got) == _bits(ref_compose(a, b))
    assert ran == [False]


def test_point_kernel_rejects_overflowing_products_without_warnings():
    big = 1e300 * (1 + 1j)  # ar*br and ai*bi overflow, and their difference is inf - inf
    a = StructuredOperator([Dyad(big * (-1) ** j, i, j) for i in range(8) for j in range(8)])
    b = StructuredOperator([Dyad(big, j, k) for j in range(8) for k in range(8)])
    with pytest.raises(ValueError, match="coefficients must be finite"):
        ref_compose(a, b)
    with warnings.catch_warnings(), kernel_runs() as ran:
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="coefficients must be finite"):
            oa.compose(a, b)
    assert ran == [True]


def test_point_kernel_temporaries_do_not_grow_with_the_inner_size():
    # one inner-size x rows x cols cube of floats would take 64 MB here
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((2, 200, 200))
    a, b = (StructuredOperator([Dyad(float(v[i, j]), i, j)
                                for i in range(200) for j in range(200)]) for v in vals)
    tracemalloc.start()
    try:
        with kernel_runs() as ran:
            oa.compose(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ran == [True]
    assert peak < 16 * 2**20


def test_sparse_point_blocks_take_the_dict_join():
    # the kernel would hold 1000 x 1000 blocks and make 1e9 products for
    # the 1000 multiplies of the join
    p = oa.projector(IndexSet.from_indices(range(1000)))
    tracemalloc.start()
    try:
        with kernel_runs() as ran:
            got = oa.compose(p, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ran == [False]
    assert got == p
    assert peak < 4 * 2**20


@pytest.mark.parametrize("dense_left", [True, False])
def test_a_diagonal_factor_takes_the_dict_join(dense_left):
    d, p = _block(24, 5), oa.projector(IndexSet.from_indices(range(24)))
    a, b = (d, p) if dense_left else (p, d)
    with kernel_runs() as ran:
        got = oa.compose(a, b)
    assert ran == [False]
    assert _bits(got) == _bits(d)


def test_compose_shift_with_adjoint_is_range_projector():
    shift = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    gram = oa.compose(shift, oa.adjoint(shift))
    assert gram == oa.projector(IndexSet.from_progression(2, 3))
    support = oa.compose(oa.adjoint(shift), shift)
    assert support == oa.projector(IndexSet.from_progression(2, 1))


def test_operator_dunders():
    a = StructuredOperator((Dyad(1.0, 0, 1),))
    b = StructuredOperator((Dyad(2.0, 1, 0),))
    assert (a + b).terms == (Dyad(1.0, 0, 1), Dyad(2.0, 1, 0))
    assert (a @ b) == StructuredOperator((Dyad(2.0, 0, 0),))
    assert (a * 3).terms == (Dyad(3.0, 0, 1),)
    assert (a - a).is_zero()


# -- comparisons ---------------------------------------------------------------


def test_equals_absorbs_sub_tolerance_noise():
    a = StructuredOperator((Dyad(1.0, 3, 3),))
    b = StructuredOperator((Dyad(1.0 + 1e-15, 3, 3), Dyad(1e-15, 0, 4)))
    assert oa.equals(a, b)
    with qrepeat.settings(tolerance=1e-16):
        assert not oa.equals(a, b)


def test_max_deviation_reports_position():
    a = StructuredOperator((Family(1.0, 2, 0, 2, 0),))
    b = StructuredOperator((Family(1.0, 2, 0, 2, 0), Dyad(0.5, 6, 6)))
    dev, pos = oa.max_deviation(a, b)
    assert dev == pytest.approx(0.5)
    assert pos == (6, 6)


def test_equals_separates_distinct_periodic_patterns():
    # same entries below 6, different tails
    a = StructuredOperator((Family(1.0, 3, 0, 3, 0),))
    b = StructuredOperator((Family(1.0, 3, 0, 3, 0), Dyad(1.0, 30, 30)))
    assert not oa.equals(a, b)


@given(operators(), operators())
def test_equals_agrees_with_dense_window(a, b):
    # equality is decided over every position, so it must imply agreement
    # on any dense window
    if oa.equals(a, b):
        assert np.allclose(dense(a, 64), dense(b, 64), atol=1e-9)


# Strides <= 3 and offsets <= 6 put every crossing of two progressions of
# operators() below row and column 115, every line's enumerated rows below
# 12, and a tail value at most one line period (<= 6) past a point or a
# crossing.  So every position max_deviation evaluates lies in a 128 window.
@given(operators(), operators())
def test_max_deviation_matches_dense_oracle(a, b):
    diff = dense(a, 128) - dense(b, 128)
    # Python's complex abs, not np.abs, which can differ in the last bit
    mags = [[abs(complex(x)) for x in row] for row in diff]
    top = max(max(row) for row in mags)
    dev, pos = oa.max_deviation(a, b)
    assert dev == top
    if top == 0:
        assert pos is None
    else:
        assert pos == min((r, c) for r, row in enumerate(mags)
                          for c, x in enumerate(row) if x == top)


def test_max_deviation_finds_a_far_crossing():
    # the lines differ by 0.5 everywhere; only where the two families cross,
    # at row and column 2000, do the differences add up to 1
    lines = [Family(1.0, 2, 0, 1, 1000), Family(1.0, 1, 0, 1, 0)]
    a = StructuredOperator(lines)
    b = StructuredOperator([oa.Term(0.5, t.out_stride, t.out_offset, t.in_stride,
                                    t.in_offset, t.length) for t in lines])
    assert oa.max_deviation(a, b) == (1.0, (2000, 2000))


def test_max_deviation_looks_past_a_point_on_a_tail():
    # the point sits on the line's one in-period position, so its tail
    # value 1 shows only at the next row
    op = StructuredOperator((Family(1.0, 1, 5, 1, 5), Dyad(-0.5, 5, 5)))
    assert oa.max_deviation(op, StructuredOperator.zero()) == (1.0, (6, 6))


def test_max_deviation_reports_the_least_position_on_ties():
    assert oa.max_deviation(StructuredOperator.identity(),
                            StructuredOperator.zero()) == (1.0, (0, 0))


def test_max_deviation_honours_the_period_cap():
    op = StructuredOperator((Family(1.0, 210, 0, 210, 0),))
    with qrepeat.settings(period_cap=100), pytest.raises(PeriodCapExceeded):
        oa.max_deviation(op, StructuredOperator.zero())
    assert oa.max_deviation(op, StructuredOperator.zero()) == (1.0, (0, 0))


# -- structure predicates -------------------------------------------------------


def test_is_monomial():
    assert oa.is_monomial(StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(0.7, 1, 0))))
    # two terms feeding different rows from one column
    assert not oa.is_monomial(StructuredOperator((Dyad(1.0, 1, 0), Dyad(1.0, 2, 0))))
    assert not oa.is_monomial(StructuredOperator(
        (Family(1.0, 2, 0, 2, 0), Family(1.0, 2, 1, 4, 2))))
    assert oa.is_monomial(StructuredOperator(()))


# Offsets up to 6 and strides up to 3 put every clash between two terms of
# operators() below row 64, so a 64-window is a faithful dense reference.
# is_monomial is structural: entries of two terms that cancel in a column
# still clash, so the reference renders the terms' magnitudes, which cannot.
@given(operators())
def test_is_monomial_matches_dense_columns(op):
    magnitudes = SimpleNamespace(terms=[
        oa.Term(abs(t.coeff), t.out_stride, t.out_offset, t.in_stride, t.in_offset, t.length)
        for t in op.terms])
    columns = dense(magnitudes, 64).T
    assert oa.is_monomial(op) == all(np.count_nonzero(c) <= 1 for c in columns)


def _all_pairs_monomial(op):
    """is_monomial as first written: every pair of terms solved."""
    for idx, t1 in enumerate(op.terms):
        for t2 in op.terms[idx + 1:]:
            m = oa._match_progressions(t1.in_stride, t1.in_offset, t1.length,
                                       t2.in_stride, t2.in_offset, t2.length)
            if m is None:
                continue
            k0, j0, kstep, jstep, n = m
            if (t1.out_stride * k0 + t1.out_offset != t2.out_stride * j0 + t2.out_offset
                    or (n is None and t1.out_stride * kstep != t2.out_stride * jstep)):
                return False
    return True


@given(st.one_of(operators(), operators(max_index=4, max_terms=10), dense_blocks(3)))
def test_is_monomial_matches_all_pairs(op):
    assert oa.is_monomial(op) == _all_pairs_monomial(op)
    assert oa.is_monomial(oa.adjoint(op)) == _all_pairs_monomial(oa.adjoint(op))


# Counted, not timed: solving every pair of the 209 progressions took
# 21,736 calls per operator.
def test_is_monomial_solves_only_pairs_that_meet(monkeypatch):
    op = oa.projector(IndexSet.from_progression(210, 0).complement())
    calls = []
    inner = oa._match_progressions

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(oa, "_match_progressions", counted)
    assert oa.is_monomial(op) and oa.is_monomial(oa.adjoint(op))
    assert len(calls) < 1000


def test_is_monomial_counts_a_cancelled_entry_as_a_clash():
    # the point cancels the family's entry at row 2, column 2, leaving one
    # nonzero in that column, but the two terms still feed rows 2 and 9
    op = StructuredOperator((Family(1.0, 1, 0, 1, 0), Dyad(-1.0, 2, 2), Dyad(0.5, 9, 2)))
    assert not oa.is_monomial(op)


@given(operators())
def test_diagonal_part_matches_dense_diagonal(op):
    m = dense(op, 64)
    assert np.allclose(dense(oa.diagonal_part(op), 64), np.diag(np.diag(m)), atol=1e-12)


def test_is_diagonal_and_diagonal_part():
    op = StructuredOperator((Family(0.5, 2, 0, 2, 0), Dyad(1.0, 3, 1)))
    assert not oa.is_diagonal(op)
    part = oa.diagonal_part(op)
    assert oa.is_diagonal(part)
    assert np.allclose(mat(part), np.diag(np.diag(mat(op))))


def test_projector_renders_indicator():
    s = IndexSet({1}, 4, 3, {0})
    proj = oa.projector(s)
    expected = np.diag([1.0 if s.member(i) else 0.0 for i in range(DIM)])
    assert np.allclose(mat(proj), expected)


def test_operator_norm_exact_for_monomial():
    op = StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(0.5, 0, 0)))
    value, quality = oa.operator_norm(op)
    assert quality == "exact"
    assert value == pytest.approx(1.0)


@pytest.mark.parametrize("op", [StructuredOperator([Dyad(1.19e-7, 0, 0)]),
                                StructuredOperator([Family(1e-7, 1, 0, 1, 0)])],
                         ids=["point", "progression"])
def test_operator_norm_of_a_small_monomial_operator(op):
    # the Gram entries lie below the tolerance; the norm must not read 0
    value, quality = oa.operator_norm(op)
    assert quality == "exact"
    assert value == pytest.approx(abs(op.terms[0].coeff), rel=1e-12)


def test_operator_norm_exact_for_a_point_block():
    op = StructuredOperator((Dyad(1.0, 0, 0), Dyad(1.0, 1, 0)))
    value, quality = oa.operator_norm(op)
    assert quality == "exact"
    assert value == pytest.approx(np.sqrt(2.0))


def test_operator_norm_sees_a_block_far_from_the_origin():
    value, quality = oa.operator_norm(NORM_DEFECT)
    assert quality == "exact"
    assert value == pytest.approx(0.8 * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("name,reason", [("toeplitz", "progressions are not monomial"),
                                         ("tail_head_row", "row 2 holds")])
def test_operator_norm_refuses_what_it_cannot_decide(name, reason):
    with pytest.raises(UnsupportedForm, match=reason):
        oa.operator_norm(UNDECIDED_NORMS[name])


@given(dense_blocks())
def test_operator_norm_is_the_dense_norm_or_unsupported(op):
    # the window holds every point and at least one step of the tail, so a
    # direct sum keeps its norm there
    w = max((max(t.out_offset, t.in_offset) for t in op.terms), default=0) + 2
    tail_rows = {r for t in op.families for r in range(t.out_offset, w, t.out_stride)}
    tail_cols = {c for t in op.families for c in range(t.in_offset, w, t.in_stride)}
    shared = any(t.out_offset in tail_rows or t.in_offset in tail_cols for t in op.dyads)
    if shared and not oa.is_monomial(op):
        with pytest.raises(UnsupportedForm):
            oa.operator_norm(op)
        return
    value, quality = oa.operator_norm(op)
    assert quality == "exact"
    # compared squared: the monomial path reads the square off Gram entries,
    # which count as zero at or below the tolerance
    ref = np.linalg.norm(dense(op, w), 2)
    assert value ** 2 == pytest.approx(ref ** 2, rel=1e-12, abs=1e-12)


# -- states ---------------------------------------------------------------------


def test_state_vector_basics():
    psi = StateVector({0: 0.6, 3: 0.8})
    assert psi.norm_sq() == pytest.approx(1.0)
    assert psi.is_normalized()
    assert StateVector.basis(5).norm_sq() == 1.0
    phi = StateVector({2: 2.0}).normalized()
    assert phi.norm_sq() == pytest.approx(1.0)
    assert dict(phi.items()) == {2: pytest.approx(1.0)}


# apply and normalized build their results through StateVector._trusted,
# which must keep the public constructor's checks.  Each value below was
# checked against the validating constructor.


def test_apply_rejects_an_overflowing_amplitude():
    with pytest.raises(ValueError, match="finite"):
        oa.apply(StructuredOperator([Dyad(1e200, 0, 0)]), StateVector({0: 1e200}))


def test_normalized_stores_signed_zeros_as_the_public_constructor_does():
    # -5e-324 / 3.16... underflows to -0.0; both constructors store 0.0 + c,
    # whose sign depends on the interpreter's mixed real/complex arithmetic
    psi = StateVector({0: 3.0, 1: complex(1.0, -5e-324)})
    n = math.sqrt(psi.norm_sq())
    assert math.copysign(1.0, (complex(1.0, -5e-324) / n).imag) == -1.0
    want = StateVector({i: c / n for i, c in psi.items()})

    def hexes(v):
        return [(i, c.real.hex(), c.imag.hex()) for i, c in v.items()]

    assert hexes(psi.normalized()) == hexes(want)


def test_normalized_drops_an_amplitude_that_underflows():
    phi = StateVector({0: 3.0, 1: 5e-324}).normalized()
    assert phi.support() == (0,)


def test_apply_sorts_its_indices_whatever_the_term_order():
    op = StructuredOperator._canonical((Dyad(1, 5, 0), Dyad(1, 2, 0)))
    assert oa.apply(op, StateVector.basis(0)).support() == (2, 5)


def test_random_state_is_normalized_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = oa.random_state(rng, max_index=16)
        assert psi.norm_sq() == pytest.approx(1.0)
        assert all(0 <= i <= 16 for i, _ in psi.items())


def test_random_state_keeps_the_public_constructors_bits():
    def public(rng, max_index, max_support=8):
        size = min(int(rng.integers(1, max_support + 1)), max_index)
        idx = rng.choice(max_index, size=size, replace=False)
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        n = np.linalg.norm(amps)
        while n < 1e-9:
            amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            n = np.linalg.norm(amps)
        return StateVector({int(i): complex(a / n) for i, a in zip(idx, amps)})

    def hexes(v):
        return [(i, c.real.hex(), c.imag.hex()) for i, c in v.items()]

    for seed in range(3):
        for k in range(40):
            for args in ((16,), (3, 8), (64, 2)):
                rng, ref_rng = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
                psi, want = oa.random_state(rng, *args), public(ref_rng, *args)
                assert hexes(psi) == hexes(want)
                assert rng.random() == ref_rng.random()  # the same number of draws
                assert psi.norm_sq().hex() == sum(abs(c) ** 2 for _, c in want.items()).hex()


def test_tolerance_override_scopes_comparisons():
    a = StructuredOperator((Dyad(1.0, 0, 0),))
    b = StructuredOperator((Dyad(1.0 + 1e-8, 0, 0),))
    assert not oa.equals(a, b)
    with qrepeat.settings(tolerance=1e-6):
        assert oa.equals(a, b)
