"""Structured operators: canonical form, algebra, and exact comparisons.

Dense cross-checks use the independent renderer from helpers, not the
library's own windowing.  Composition is checked through vector application,
which is exact and free of truncation artifacts.
"""

import contextlib
import json
import math
import operator
import time
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qrepeat
import qrepeat.cli as cli
import qrepeat.opalgebra as oa
from helpers import (NORM_DEFECT, UNDECIDED_NORMS, ZeroNormalsFirst, block_sums,
                     boundary_sums, crowded_operators, dense, dense_blocks, dense_docs, dense_vec,
                     loose_operators, operators, point_products, ref_adjoint, ref_compose,
                     ref_finish, ref_followers, ref_is_monomial, ref_parse,
                     signed_zero_operators, states, step_at)
from qrepeat import (Dyad, Family, IndexSet, PeriodCapExceeded, Povm, StateVector,
                     StructuredOperator, UnsupportedForm)
from qrepeat.indexsets import from_parts

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
    with pytest.raises(ValueError, match="j_start must be nonnegative"):
        Family(1.0, 1, 0, 1, 0, j_start=-1)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Dyad(math.inf, 0, 0), ValueError, "coefficients must be finite"),
    (lambda: Family(complex(0, math.nan), 1, 0, 1, 0), ValueError, "coefficients must be finite"),
    (lambda: oa.Term(1.0, 1, 0, 1, 0, 2), ValueError, "a term has length 1"),
    (lambda: StructuredOperator([1.0]), TypeError, "not a structured term"),
], ids=["infinite", "nan", "length-2", "not-a-term"])
def test_terms_and_operators_refuse_invalid_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_an_operator_refuses_assignment():
    with pytest.raises(AttributeError, match="immutable"):
        StructuredOperator.identity().terms = ()


def test_an_operator_equals_no_number():
    assert (StructuredOperator() == 0) is False


def test_reprs_show_the_values():
    assert repr(StructuredOperator.zero()) == "StructuredOperator(0)"
    assert repr(StructuredOperator([Dyad(0.5, 1, 2), Family(1, 2, 0, 1, 3)])) == \
        "StructuredOperator(1+0j*sum_j|2j+0><1j+3| + 0.5+0j|1><2|)"
    assert repr(StateVector({0: 1.0, 3: 0.5j})) == "StateVector({0: 1+0j, 3: 0+0.5j})"
    assert repr(IndexSet.from_indices([1, 4]) | IndexSet.from_progression(3, 2)) == \
        "IndexSet(transient=[1, 2, 4], bound=5, period=3, residues=[2])"


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


# _finish indexes the points on a family boundary once per call; it must
# absorb exactly what one fresh pass per absorbed point does.  The large
# tolerance makes drops and merges happen.
@given(boundary_sums(), st.sampled_from([1e-12, 0.6]))
@settings(deadline=None, max_examples=500)
def test_finish_absorbs_as_one_pass_per_point_does_bit_for_bit(sums, tol):
    fams, dyds = sums
    got = SimpleNamespace(terms=oa._finish(dict(fams), dict(dyds), tol))
    assert _bits(got) == _bits(SimpleNamespace(terms=ref_finish(fams, dyds, tol)))


def test_canonicalization_is_linear_in_the_absorbed_points():
    # the identity cut into stride-F families, its first period given as
    # points one step before each head: every point extends one family
    F = 2000
    terms = ([Family(1.0, F, F + r, F, F + r) for r in range(F)]
             + [Dyad(1.0, r, r) for r in range(F)])
    start = time.perf_counter()
    op = StructuredOperator(terms)
    assert time.perf_counter() - start < 0.5
    assert op.terms == tuple(Family(1.0, F, r, F, r) for r in range(F))


def test_projector_of_a_long_period_absorbs_its_points_quickly():
    s = from_parts([10999], [(1000, r) for r in range(500)])
    start = time.perf_counter()
    p = oa.projector(s)
    assert time.perf_counter() - start < 0.5
    assert len(p.terms) == 501


def test_an_absorption_merge_that_overflows_is_rejected():
    # (4, 4) extends the family at 5 back onto the one at 4; their sum is inf
    with pytest.raises(ValueError, match="finite"):
        StructuredOperator((Family(1e308, 1, 5, 1, 5), Family(1e308, 1, 4, 1, 4),
                            Dyad(1e308, 4, 4)))


def test_a_moved_family_that_cancels_the_family_it_lands_on_is_dropped():
    # (0, 0) cancels the head of the family at 0, which moves onto the
    # family at 1 with the opposite coefficient: nothing is left
    assert StructuredOperator((Family(1.0, 1, 0, 1, 0), Family(-1.0, 1, 1, 1, 1),
                               Dyad(-1.0, 0, 0))).terms == ()
    fams, dyds = {(1, 0, 1, 0): 1.0 + 0j, (1, 1, 1, 1): -1.0 + 0j}, {(0, 0): -1.0 + 0j}
    lost = []
    assert oa._finish(dict(fams), dict(dyds), 1e-12, lost) == ref_finish(fams, dyds, 1e-12) == ()
    assert lost == [((0, 0), 0.0), (None, 0.0)]


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


_factors = st.one_of(operators(), operators(max_index=30), dense_blocks())


# A pair left out of _followers must compose to nothing; and a pair is left
# out exactly when no output term of the first meets an input term of the second.
@given(_factors, _factors)
@settings(deadline=None)
def test_followers_hold_every_pair_whose_product_has_a_term(a, b):
    follows = 0 in oa._followers([a], [b])[0]
    if oa.compose(b, a).terms:
        assert follows
    assert follows == any(oa._compose_terms(tb, ta) is not None
                          for ta in a.terms for tb in b.terms)


@given(st.lists(_factors, max_size=4), st.lists(_factors, max_size=4))
@settings(deadline=None)
def test_followers_of_many_operators_are_their_pairwise_followers(firsts, seconds):
    assert oa._followers(firsts, seconds) == [
        {k for k, b in enumerate(seconds) if oa._followers([a], [b])[0]} for a in firsts]


@st.composite
def _indexed_terms(draw):
    """Terms of a drawn operator, the side to index them by, and an index
    drawn around their offsets on that side."""
    terms = draw(st.one_of(operators(), dense_blocks())).terms
    outputs = draw(st.booleans())
    offsets = [t.out_offset if outputs else t.in_offset for t in terms] or [0]
    i = max(0, draw(st.sampled_from(offsets)) + draw(st.integers(-3, 8)))
    return terms, outputs, i


# The term index lists exactly the terms that hold an index, so its readers
# need no second check.
@given(_indexed_terms())
@settings(deadline=None, max_examples=300)
def test_holding_lists_exactly_the_terms_that_hold_the_index(drawn):
    terms, outputs, i = drawn
    sided = [t.adjoint() for t in terms] if outputs else terms
    assert oa._holding(oa._term_index(terms, outputs), i) == \
        [n for n, t in enumerate(sided) if step_at(t, i) is not None]


def test_followers_key_the_seconds_through_the_one_term_index(monkeypatch):
    ops = [op for _, op in qrepeat.build_nonrepeatable_sibling(2, (0.5, 0.5)).items()]
    calls = []
    term_index = oa._term_index
    monkeypatch.setattr(oa, "_term_index", lambda *a, **k: calls.append(a) or term_index(*a, **k))
    oa._followers(ops, ops)
    assert len(calls) == 1


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


# The adjoint of a canonical operator is only re-sorted; it must keep every
# bit of the adjoint canonicalized from scratch, signed zeros included.
@given(st.one_of(operators(), dense_blocks(), signed_zero_operators(),
                 st.builds(oa.compose, operators(), operators())))
@settings(deadline=None, max_examples=300)
@example(StructuredOperator((Dyad(-2.0, 3, 1), Family(-2.0, 2, 5, 1, 2), Dyad(1j, 0, 4))))
def test_adjoint_is_the_canonicalized_adjoint_bit_for_bit(op):
    assert _bits(oa.adjoint(op)) == _bits(ref_adjoint(op))


# An operator built at the default tolerance need not be canonical under a
# larger one; there ``adjoint`` canonicalizes it afresh, as before.
@given(loose_operators())
@settings(deadline=None, max_examples=200)
@example(StructuredOperator((Family(1.0, 1, 1, 1, 1), Dyad(1e-8 - 1.0, 1, 1),
                             Dyad(1e-9, 0, 3))))
def test_adjoint_under_a_larger_tolerance_is_the_canonicalized_adjoint(op):
    with qrepeat.settings(tolerance=1e-6):
        adj = oa.adjoint(op)
        assert _bits(adj) == _bits(ref_adjoint(op))
        assert adj == StructuredOperator(adj.terms)


def test_adjoint_neither_canonicalizes_nor_finishes(monkeypatch):
    shift = StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(0.5, 1, 0)))
    block = StructuredOperator([Dyad(complex(i - j, i * j), i, j) for i in range(6)
                                for j in range(6)] + [Family(1.0, 1, 6, 1, 6)])
    ops = (shift, block, oa.compose(block, shift))
    calls = []
    for name in ("_canonicalize", "_finish"):
        inner = getattr(oa, name)
        monkeypatch.setattr(oa, name,
                            lambda *args, _inner=inner: calls.append(None) or _inner(*args))
    for op in ops:
        assert len(oa.adjoint(op).terms) == len(op.terms)
    assert calls == []
    ref_adjoint(shift)  # the counter does see a canonicalization
    assert calls


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


# numpy holds ints on both sides of 2**63 as float64, which rounds them: a
# table built that way merged the rows and columns of an 8 x 8 block at
# 2**63 - 4, and the product of two came out as one point
@pytest.mark.parametrize("base", [2**63 - 4, 2**64 - 4, 2**70])
def test_the_point_kernel_keeps_indices_past_two_to_the_63_exact(base):
    rng = np.random.default_rng(7)
    a, b = (StructuredOperator([Dyad(complex(*rng.standard_normal(2)), base + i, base + j)
                                for i in range(8) for j in range(8)]) for _ in range(2))
    with kernel_runs() as ran:
        got = oa.compose(a, b)
    assert ran == [True]
    assert _bits(got) == _bits(ref_compose(a, b)) and len(got.terms) == 64
    doc = cli._operator_doc(a)
    assert _bits(cli._operator_from(doc, "terms")) == _bits(ref_parse(doc, "terms"))


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


# -- kernel products kept as arrays --------------------------------------------


def _terms_built(op):
    try:
        StructuredOperator.__dict__["terms"].__get__(op)
    except AttributeError:
        return False
    return True


def _ones_block(d, value):
    return [Dyad(value, i, j) for i in range(d) for j in range(d)]


def _tail(t, c=1.0):
    return [Family(c, 1, t, 1, t)]


# Each entry of (1/8 everywhere) @ (1 everywhere) is exactly 1.0, the
# coefficient of the product's tail, 2 * 1/2, though of neither factor's:
# (7, 7) extends the product's tail one step backward, and so on down to (0, 0).
_EXTENDS = (StructuredOperator(_ones_block(8, 0.125) + _tail(8, 2.0)),
            StructuredOperator(_ones_block(8, 1.0) + _tail(8, 0.5)))
# a is 1/8 but for row 8, 1/4; b is 1 but for column 9, -1.  The product's
# (9, 9) is exactly -1.0 and cancels the head of its tail, which starts at 9;
# its (8, 8) is 2.0 and extends nothing.
_CANCELS = (StructuredOperator([Dyad(0.25 if i == 8 else 0.125, i, j)
                                for i in range(10) for j in range(8)] + _tail(9)),
            StructuredOperator([Dyad(-1.0 if j == 9 else 1.0, i, j)
                                for i in range(8) for j in range(10)] + _tail(9)))
# Every entry is z = 0.345584192064786+0.19483956316952594j, summed exactly:
# the first eight products cancel in pairs, the ninth is z * 1.  np.abs(z)
# is 0.396725206132863, abs(z) 0.39672520613286294.
_Z = 0.345584192064786 + 0.19483956316952594j
_NP_ABS = (StructuredOperator([Dyad(_Z if k == 8 else 1.0, i, k)
                               for i in range(9) for k in range(9)]),
           StructuredOperator([Dyad((-1.0) ** k if k < 8 else 1.0, k, j)
                               for k in range(9) for j in range(9)]))
# (1/8 everywhere) @ b: column 0 of b is 2, the rest 1, so the product's
# column 0 is 2.0 and every other entry 1.0, exactly a tolerance of 1.0
_AT_TOL = (StructuredOperator(_ones_block(8, 0.125)),
           StructuredOperator([Dyad(2.0 if j == 0 else 1.0, i, j)
                               for i in range(8) for j in range(8)]))
# each product of these 1e300 entries overflows
_HUGE = (StructuredOperator(_ones_block(8, 1e300 + 1e300j)),
         StructuredOperator(_ones_block(8, -1e300)))
# each entry of a - b is 1.3e308 (1 + i), whose modulus passes the largest
# float, so the block comparison hands a against b to the terms, where abs raises
_VAST = (StructuredOperator(_ones_block(8, 1.3e308)),
         StructuredOperator(_ones_block(8, -1.3e308j)))
# every entry of the product is about z = 6.5e307 (1 + i), and its tail,
# which starts at (8, 8), has coefficient -z: testing whether (7, 7)
# extends it takes abs(c - cf), about 1.3e308 (1 + i), which overflows
_STEP_OVERFLOWS = (StructuredOperator(_ones_block(8, 0.125) + _tail(8, -6.5e307)),
                   StructuredOperator(_ones_block(8, 6.5e307 + 6.5e307j) + _tail(8, 1 + 1j)))


def _array_examples(test):
    for ab, tol in ((_EXTENDS, 1e-12), (_CANCELS, 1e-12), (_NP_ABS, 1e-12), (_NP_ABS, 0.5),
                    (_AT_TOL, 1.0), ((_real_block(8, -2.0), _real_block(8, -3.0)), 1e-12),
                    (_HUGE, 1e-12), (_VAST, 1e-12), (_STEP_OVERFLOWS, 1e-12)):
        test = example(ab, tol)(test)
    return test


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised, under
    warnings turned into errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except (ValueError, OverflowError) as e:
            return type(e).__name__, str(e)


def _dict_finish(fams, rows, cols, prod, tol, lost):
    """``_finish`` of a kernel table's nonzero entries as a dict of points."""
    r, c = np.nonzero(prod)
    dyds = dict(zip(zip(rows[r].tolist(), cols[c].tolist()), prod[r, c].tolist()))
    return StructuredOperator._canonical(oa._finish(fams, dyds, tol, lost))


def _finished(a, b, array_finish):
    """Bits of ``compose(a, b)``'s terms and ``lost`` list, with the array
    finish or with the dict ``_finish`` alone."""
    def run():
        lost = []
        got = oa.compose(a, b, lost)
        return _bits(got), [(pos, m.hex()) for pos, m in lost]
    if array_finish:
        return _outcome(run)
    with mock.patch.object(oa, "_finish_block", _dict_finish):
        return _outcome(run)


@given(point_products(), st.sampled_from([1e-12, 1e-4, 1.0, 1e4]))
@_array_examples
@settings(deadline=None, max_examples=150)
def test_the_kernel_products_array_finish_is_the_dict_finish_bit_for_bit(ab, tol):
    a, b = ab
    with qrepeat.settings(tolerance=tol):
        assert _finished(a, b, True) == _finished(a, b, False)


def _plain(op):
    """``op``'s terms as given, in an operator that holds no block."""
    return StructuredOperator._canonical(tuple(op.terms))


@given(point_products(), st.sampled_from([1e-12, 1e-4, 1.0, 1e4]))
@_array_examples
@settings(deadline=None, max_examples=150)
def test_block_deviation_is_the_term_deviation_bit_for_bit(ab, tol):
    a, b = ab
    with qrepeat.settings(tolerance=tol):
        p = _outcome(oa.compose, a, b)
        ops = [a, b, StructuredOperator.zero()]
        if isinstance(p, StructuredOperator):
            ops += [p, _outcome(oa.compose, p, b)]
        ops = [op for op in ops if isinstance(op, StructuredOperator)]
        for x in ops:
            for y in ops:
                got = _outcome(oa.max_deviation, x, y)
                want = _outcome(oa.max_deviation, _plain(x), _plain(y))
                if isinstance(want, tuple) and isinstance(want[0], float):
                    got, want = (got[0].hex(), got[1]), (want[0].hex(), want[1])
                assert got == want


def test_a_kernel_product_keeps_its_block_and_builds_its_terms_when_read():
    a, b = _block(8, 1), _block(8, 2)
    with kernel_runs() as ran:
        p = oa.compose(a, b)
    assert ran == [True]
    assert getattr(p, "_block", None) is not None and not _terms_built(p)
    # a product of kernel products and its comparison stay arrays
    q = oa.compose(p, b)
    assert oa.max_deviation(q, p)[0] > 0 and not _terms_built(q) and not _terms_built(p)
    assert _bits(p) == _bits(ref_compose(a, b))
    assert _terms_built(p)


def test_an_absorbed_point_takes_the_dict_finish():
    for a, b in (_EXTENDS, _CANCELS):
        with kernel_runs() as ran:
            p = oa.compose(a, b)
        assert ran == [True]
        assert getattr(p, "_block", None) is None and _terms_built(p)
        assert _bits(p) == _bits(ref_compose(a, b))
    extended, cancelled = oa.compose(*_EXTENDS), oa.compose(*_CANCELS)
    assert extended.families == (Family(1.0, 1, 0, 1, 0),) and len(extended.dyads) == 56
    assert Family(1.0, 1, 10, 1, 10) in cancelled.terms
    assert not any(t.out_offset == 9 and t.in_offset == 9 for t in cancelled.dyads)


def test_a_kernel_product_read_under_another_tolerance_has_its_own_terms():
    a, b = _AT_TOL
    with qrepeat.settings(tolerance=0.5):
        p = oa.compose(a, b)
        want = _bits(ref_compose(a, b))
    assert not _terms_built(p)
    with qrepeat.settings(tolerance=1.5):  # would drop all of them
        assert _bits(p) == want
    assert len(want) == 64


def test_equality_and_hash_read_a_kernel_products_terms():
    a, b = _block(8, 1), _block(8, 2)
    p, q, r = oa.compose(a, b), oa.compose(a, b), oa.compose(a, b)
    assert not any(map(_terms_built, (p, q, r)))
    assert p == q and _terms_built(p) and _terms_built(q)
    assert hash(r) == hash(ref_compose(a, b)) and _terms_built(r)


def test_the_adjoint_is_kept_under_the_tolerance_its_operator_is_canonical_under():
    op = _block(8, 3)
    adj = oa.adjoint(op)
    assert oa.adjoint(op) is adj
    with qrepeat.settings(tolerance=1e-6):
        fresh = oa.adjoint(op)
        assert fresh is not adj and oa.adjoint(op) is not fresh
        assert _bits(fresh) == _bits(ref_adjoint(op))
        assert fresh._tol == 1e-6
    assert oa.adjoint(op) is adj


# -- dense outcomes kept as arrays from the parser -------------------------------


def _summed(table, tol):
    """``_from_sums`` of a drawn table under ``tol``."""
    with qrepeat.settings(tolerance=tol):
        return oa._from_sums(*table, tol)


# the dense8 golden, parsed: two 8 x 8 blocks, one with an identity tail
_DENSE8 = cli.instrument_from_doc(json.loads(
    (Path(__file__).parent / "golden" / "dense8.instrument.json").read_text()))


@given(dense_docs(), st.sampled_from([1e-12, 1e-4, 1.0]))
@settings(deadline=None, max_examples=200)
def test_a_parsed_dense_block_is_the_term_path_bit_for_bit(doc, tol):
    with qrepeat.settings(tolerance=tol):
        got = _outcome(lambda: _bits(cli._operator_from(doc, "terms")))
        want = _outcome(lambda: _bits(ref_parse(doc, "terms")))
    assert got == want


def test_a_dense_outcome_is_parsed_into_a_block():
    for _, op in _DENSE8.items():
        assert getattr(op, "_block", None) is not None and not _terms_built(op)
        assert _bits(op) == _bits(ref_parse(cli._operator_doc(op), "terms"))
    # too few products for the kernel: the parser builds the terms
    sparse = cli._operator_from([{"kind": "dyad", "coeff": [1.0, 0.0], "out": i, "in": i}
                                 for i in range(30)], "terms")
    assert getattr(sparse, "_block", None) is None and _terms_built(sparse)


@given(st.one_of(block_sums().map(lambda t: _summed(t, 1e-12)),
                 point_products().map(lambda ab: _outcome(oa.compose, *ab))))
@settings(deadline=None, max_examples=200)
def test_a_block_adjoint_is_the_term_adjoint_bit_for_bit(op):
    if not isinstance(op, StructuredOperator):
        return  # the product overflows; that path has its own property
    adj = oa.adjoint(op)
    if getattr(op, "_block", None) is not None:
        assert getattr(adj, "_block", None) is not None and not _terms_built(adj)
    assert _bits(adj) == _bits(ref_adjoint(_plain(op)))
    assert oa.adjoint(_plain(op)) == adj


# CI runs CPython 3.10 to 3.14, whose 0.0 + z differ in the sign of a zero
# imaginary part; _plus_zero, and the block adjoint and the sampling finish
# through it, must follow whichever rule they run under
@pytest.mark.parametrize("keeps_imag", [False, True])
def test_the_adjoint_block_follows_either_rule_for_adding_a_float_to_a_complex(
        monkeypatch, keeps_imag):
    assert oa._ADD_KEEPS_IMAG == (math.copysign(1.0, (0.0 + complex(1.0, -0.0)).imag) < 0)
    monkeypatch.setattr(oa, "_ADD_KEEPS_IMAG", keeps_imag)
    z = [0.0, -0.0, 1.5, -2.0]
    block = np.array([[complex(x, y) for y in z] for x in z])
    got = oa._adjoint_block(block)
    plus_re, plus_im = oa._plus_zero(block.real, block.imag)
    for i, x in enumerate(z):
        for j, y in enumerate(z):
            re, im = 0.0 + x, -y if keeps_imag else 0.0 + -y  # 0.0 + conj(x + iy)
            assert (got[j, i].real.hex(), got[j, i].imag.hex()) == (re.hex(), im.hex())
            im = y if keeps_imag else 0.0 + y  # 0.0 + (x + iy)
            assert (plus_re[i, j].hex(), plus_im[i, j].hex()) == (re.hex(), im.hex())


@given(st.lists(block_sums(), min_size=1, max_size=3), st.integers(0, 2),
       st.sampled_from([1e-12, 1e-4]))
@settings(deadline=None, max_examples=200)
def test_the_summed_block_deviation_is_the_term_deviation_bit_for_bit(tables, split, tol):
    ops = [_summed(t, tol) for t in tables]
    identity = StructuredOperator.identity()
    # the effects against the identity, as Povm.identity_deviation reads
    # them, and one list of operators against another
    for firsts, seconds in ((ops, [identity]), (ops[:split], ops[split:] + [identity])):
        with qrepeat.settings(tolerance=tol):
            got = _outcome(oa._sum_deviation, firsts, seconds)
            want = _outcome(oa._term_deviation, tuple(t for op in firsts for t in op.terms),
                            tuple(t for op in seconds for t in op.terms))
        if isinstance(want, tuple) and isinstance(want[0], float):
            got, want = (got[0].hex(), got[1]), (want[0].hex(), want[1])
        assert got == want
    with qrepeat.settings(tolerance=tol):
        pv = Povm(tuple(enumerate(ops)))
        assert _outcome(pv.identity_deviation) == _outcome(
            oa._term_deviation, tuple(t for op in ops for t in op.terms), identity.terms)


def test_effects_that_hold_blocks_decide_their_deviation_as_arrays():
    pv = _DENSE8.povm()
    assert all(getattr(p, "_block", None) is not None for _, p in pv.items())
    dev, pos = pv.identity_deviation()
    assert not any(_terms_built(p) for _, p in pv.items())
    assert (dev, pos) == oa._term_deviation(tuple(t for _, p in pv.items() for t in p.terms),
                                            StructuredOperator.identity().terms)
    assert 0 < dev < 1e-12


_counted = st.one_of(operators(), dense_blocks(), block_sums().map(lambda t: _summed(t, 1e-12)),
                     block_sums().map(lambda t: oa.adjoint(_summed(t, 1e-12))))


@given(_counted)
@settings(deadline=None, max_examples=150)
def test_parts_read_a_blocks_fields_or_walk_the_terms_and_keep_nothing(op):
    plain = _plain(op)
    points = [t for t in plain.terms if t.length == 1]
    assert oa._parts(op) == (tuple(t for t in plain.terms if t.length is None),
                             (Counter(t.out_offset for t in points),
                              Counter(t.in_offset for t in points)))
    # the dense kernel's readers leave a term operator holding its terms alone
    oa.compose(plain, plain)
    oa._followers([plain], [plain])
    oa.is_monomial(plain)
    with contextlib.suppress(UnsupportedForm):
        oa.operator_norm(plain)
    assert not hasattr(plain, "_progs") and not hasattr(plain, "_counts")


@given(_counted)
@settings(deadline=None, max_examples=200)
def test_a_blocks_kept_counts_decide_is_monomial_as_the_terms_do(op):
    assert oa.is_monomial(op) == ref_is_monomial(_plain(op))


@given(st.lists(_counted, max_size=3), st.lists(_counted, max_size=3))
@settings(deadline=None, max_examples=150)
def test_block_followers_read_from_the_kept_counts_are_the_term_index_followers(firsts, seconds):
    assert oa._followers(firsts, seconds) == ref_followers([_plain(op) for op in firsts],
                                                           [_plain(op) for op in seconds])


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


# -- canonical order, fixed by construction --------------------------------------
# compose's kernel and max_deviation's block path rely on it unchecked.


def _assert_canonical(op):
    """Progressions sorted by signature, then points by ``(row, col)``, each
    once; canonicalizing the terms again under the active tolerance keeps them."""
    keys = [(t.length == 1, t.out_stride, t.out_offset, t.in_stride, t.in_offset)
            for t in op.terms]
    assert all(map(operator.lt, keys, keys[1:]))
    assert StructuredOperator(op.terms).terms == op.terms


_TOLERANCES = st.sampled_from([1e-12, 1e-6, 1.0])


@given(st.one_of(operators(), dense_blocks(), loose_operators()),
       st.one_of(operators(), dense_blocks()), st.randoms(), _TOLERANCES)
@settings(deadline=None, max_examples=200)
def test_constructor_join_adjoint_and_parser_build_canonical_order(a, b, rnd, tol):
    doc = cli._operator_doc(a) + cli._operator_doc(b)
    rnd.shuffle(doc)
    with qrepeat.settings(tolerance=tol), kernel_runs() as ran:
        for op in (StructuredOperator(b.terms + a.terms), oa.compose(a, b), oa.adjoint(a),
                   cli._operator_from(doc, "terms")):
            _assert_canonical(op)
    assert not any(ran)  # blocks of at most 6 x 6 stay below the kernel's threshold


@given(point_products(), _TOLERANCES)
@example((_block(8, 1), _block(8, 2)), 1e-12)  # a pure draw that takes the kernel
@settings(deadline=None, max_examples=100)
def test_compose_builds_canonical_order_through_either_path(ab, tol):
    a, b = ab
    with qrepeat.settings(tolerance=tol), kernel_runs() as ran:
        p = oa.compose(a, b)
        pp = oa.compose(p, oa.adjoint(p))
        for op in (p, pp, oa.adjoint(p)):
            _assert_canonical(op)
    if kernel_applies(a, b):
        assert ran[0]


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


# A block operator's point block decides "not diagonal" on its own only
# where no progression passes through the off-diagonal entry it finds.
@given(crowded_operators() | block_sums().map(lambda t: _summed(t, 1e-12)),
       st.sampled_from([1e-12, 1.0, 1e4, 1e7]))
@settings(deadline=None)
def test_is_diagonal_on_a_kept_block_agrees_with_the_terms(op, tol):
    with qrepeat.settings(tolerance=tol):
        for case in (op, oa.diagonal_part(op)):
            want = oa.equals(_plain(case), oa.diagonal_part(_plain(case)))
            assert oa.is_diagonal(case) == want


# An off-diagonal entry whose modulus is the tolerance: numpy's complex abs
# gives 0x1.0870cea837714p-10 where abs gives 0x1.0870cea837713p-10, so a
# block read through np.abs put it above the tolerance.
_AT_ABS = -0.0007312715117751976 + 0.0006948674738744653j


def test_is_diagonal_on_a_block_reads_each_modulus_as_abs_does():
    op = oa._from_sums({}, {(i, j): 1.0 if i == j else _AT_ABS
                            for i in range(8) for j in range(8)}, 1e-12)
    assert type(op) is oa._BlockOperator
    with qrepeat.settings(tolerance=abs(_AT_ABS)):
        assert oa.is_diagonal(op)
        assert oa.is_diagonal(StructuredOperator._canonical(op.terms))


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


# Dividing by the largest |coeff|, 2, takes the second point of "drops" to
# 0.75e-12, under the tolerance, and leaves the point of "absorbs" within
# the tolerance of cancelling its family's head.  Those scaled terms are
# not canonical, so they must be canonicalized again before adjoint.
@pytest.mark.parametrize("op", [
    StructuredOperator((Dyad(2.0, 0, 0), Dyad(1.5e-12, 1, 1))),
    StructuredOperator((Family(2.0, 1, 1, 1, 1), Dyad(-2.0 + 1.5e-12, 1, 1))),
    StructuredOperator((Family(1.0, 2, 3, 2, 1), Dyad(0.5, 0, 0))),
], ids=["drops", "absorbs", "unscaled"])
def test_operator_norm_hands_adjoint_canonical_terms(op, monkeypatch):
    inner = oa.adjoint

    def checked(arg):
        assert _bits(StructuredOperator(arg.terms)) == _bits(arg)
        return inner(arg)

    monkeypatch.setattr(oa, "adjoint", checked)
    assert len(op.terms) == 2
    top = max(abs(t.coeff) for t in op.terms)
    assert oa.operator_norm(op) == (top, "exact")


def test_operator_norm_exact_for_a_point_block():
    op = StructuredOperator((Dyad(1.0, 0, 0), Dyad(1.0, 1, 0)))
    value, quality = oa.operator_norm(op)
    assert quality == "exact"
    assert value == pytest.approx(np.sqrt(2.0))


def test_operator_norm_sees_a_block_far_from_the_origin():
    value, quality = oa.operator_norm(NORM_DEFECT)
    assert quality == "exact"
    assert value == pytest.approx(0.8 * math.sqrt(2.0), abs=1e-12)


def test_operator_norm_splits_off_a_far_progression_head_on_the_terms():
    # index sets of the tail's rows and columns would run up to its head,
    # 10**12; the points' rows and columns are tested against it instead
    def op(n):
        return StructuredOperator((Dyad(0.6, 0, 0), Dyad(0.6, 1, 0), Family(1.0, 1, n, 1, n)))

    # the first call also imports what numpy loads lazily
    assert oa.operator_norm(op(2)) == (1.0, "exact")
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = oa.operator_norm(op(10**12))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (1.0, "exact")
    assert elapsed < 0.5
    assert peak < 2**20


def test_schur_adds_the_parts_at_none_to_the_largest_row_or_column_sum():
    # the parts at None weigh 0.125; row 2 sums to 0.25 + 0.5 = 0.75,
    # columns 0 and 5 to 0.25 and 0.5
    assert oa._schur(0.125, [({2: 0.25}, {0: 0.25}), ({2: 0.5}, {5: 0.5})]) == 0.125 + 0.75
    assert oa._schur(0.0, [({2: 0.25}, {0: 0.25}), ({7: 0.5}, {0: 0.5})]) == 0.75  # column 0
    assert oa._schur(0.0, []) == 0.0
    # an operator's point counts are its points at weight 1
    op = StructuredOperator((Dyad(1.0, 0, 0), Dyad(1.0, 0, 1), Dyad(1.0, 1, 2)))
    assert oa._schur(0, [oa._parts(op)[1]]) == 2  # row 0


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


def test_a_state_refuses_an_infinite_amplitude_and_assignment():
    with pytest.raises(ValueError, match="coefficients must be finite"):
        StateVector({0: math.inf})
    with pytest.raises(AttributeError, match="immutable"):
        StateVector.basis(0)._amp = {}


def test_the_constructor_rejects_amplitudes_whose_sum_overflows():
    with pytest.raises(ValueError, match="coefficients must be finite"):
        StateVector([(0, 1e308), (0, 1e308)])


# apply and normalized build their results through StateVector._trusted,
# which must keep the public constructor's checks.  Each value below was
# checked against the validating constructor.


def test_apply_rejects_an_overflowing_amplitude():
    with pytest.raises(ValueError, match="finite"):
        oa.apply(StructuredOperator([Dyad(1e200, 0, 0)]), StateVector({0: 1e200}))


# 1e200 squared passes the largest float; 1e154 squared does not, but the
# sum of two does
@pytest.mark.parametrize("amplitudes", [{0: 1e200}, {0: 1e154, 1: 1e154}])
def test_a_state_whose_norm_overflows_raises_valueerror(amplitudes):
    psi = StateVector(amplitudes)
    for call in (psi.norm_sq, psi.normalized):
        with pytest.raises(ValueError, match="state norm is too large to represent"):
            call()


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


_UNIT_PART = st.sampled_from([0.0, -0.0]) | st.floats(0.01, 2.0) | st.floats(-2.0, -0.01)


# At norm exactly 1.0, normalized() returns the state itself, which must
# have the bits of the division it skips.  The zero parts of either sign
# reach the constructor; from CPython 3.14 a -0.0 imaginary part is stored.
@given(st.dictionaries(st.integers(0, 12), st.builds(complex, _UNIT_PART, _UNIT_PART),
                       min_size=1, max_size=6))
@example({0: complex(0.6, -0.0), 2: complex(0.0, -0.8)})
@example({0: complex(-0.0, -1.0)})
@example({1: complex(1.0, -0.0)})
def test_normalized_keeps_a_unit_state_as_the_division_would(amps):
    psi = StateVector(amps)
    assume(psi.norm_sq() > 0)
    if math.sqrt(psi.norm_sq()) != 1.0:
        psi = psi.normalized()
    assume(math.sqrt(psi.norm_sq()) == 1.0)
    want = StateVector._trusted({i: c / 1.0 for i, c in psi.items()})

    def hexes(v):
        return [(i, c.real.hex(), c.imag.hex()) for i, c in v.items()]

    got = psi.normalized()
    assert got is psi
    assert hexes(got) == hexes(want)


def test_normalized_drops_an_amplitude_that_underflows():
    phi = StateVector({0: 3.0, 1: 5e-324}).normalized()
    assert phi.support() == (0,)


def test_apply_sorts_its_indices_whatever_the_term_order():
    # canonical order lists the family first, so the terms emit row 5 before row 2
    op = StructuredOperator([Family(1, 1, 5, 1, 0), Dyad(1, 2, 0)])
    assert [t.out_offset for t in op.terms] == [5, 2]
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
            for args in ((16,), (3, 8), (64, 2), (1,), (1, 1)):
                rng, ref_rng = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
                psi, want = oa.random_state(rng, *args), public(ref_rng, *args)
                assert hexes(psi) == hexes(want)
                assert rng.random() == ref_rng.random()  # the same number of draws
                assert psi.norm_sq().hex() == sum(abs(c) ** 2 for _, c in want.items()).hex()
    for args in ((16,), (1, 1)):  # amplitudes of norm 0 are drawn again
        rng, ref_rng = ZeroNormalsFirst(9, 2), ZeroNormalsFirst(9, 2)
        assert hexes(oa.random_state(rng, *args)) == hexes(public(ref_rng, *args))
        assert rng.zeros == 0 and rng.random() == ref_rng.random()


@pytest.mark.parametrize("args, message", [
    ((0,), "max_index"), ((-3,), "max_index"), ((16, 0), "max_support"), ((16, -1), "max_support")])
def test_random_state_refuses_an_empty_draw_before_drawing(args, message):
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match=message):
        oa.random_state(rng, *args)  # max_index 0 looped forever
    assert rng.random() == np.random.default_rng(5).random()


def test_tolerance_override_scopes_comparisons():
    a = StructuredOperator((Dyad(1.0, 0, 0),))
    b = StructuredOperator((Dyad(1.0 + 1e-8, 0, 0),))
    assert not oa.equals(a, b)
    with qrepeat.settings(tolerance=1e-6):
        assert oa.equals(a, b)
