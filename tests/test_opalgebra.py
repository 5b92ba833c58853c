"""Structured operators: canonical form, algebra, and exact comparisons.

Dense cross-checks use the independent renderer from helpers, not the
library's own windowing.  Composition is checked through vector application,
which is exact and free of truncation artifacts.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import qrepeat.opalgebra as oa
from helpers import dense, dense_vec, operators, states
from qrepeat import (Dyad, Family, IndexSet, StateVector, StructuredOperator,
                     set_tolerance)

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
    assert not oa.equals(a, b, tol=1e-16)


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
    # the decision window the library derives is at least as wide as the
    # pattern content, so equality must imply dense agreement
    if oa.equals(a, b):
        assert np.allclose(dense(a, 64), dense(b, 64), atol=1e-9)


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


def test_operator_norm_estimates_otherwise():
    op = StructuredOperator((Dyad(1.0, 0, 0), Dyad(1.0, 1, 0)))
    value, quality = oa.operator_norm(op)
    assert quality == "window-estimate"
    assert value == pytest.approx(np.sqrt(2.0))


# -- states ---------------------------------------------------------------------


def test_state_vector_basics():
    psi = StateVector({0: 0.6, 3: 0.8})
    assert psi.norm_sq() == pytest.approx(1.0)
    assert psi.is_normalized()
    assert StateVector.basis(5).norm_sq() == 1.0
    phi = StateVector({2: 2.0}).normalized()
    assert phi.norm_sq() == pytest.approx(1.0)
    assert dict(phi.items()) == {2: pytest.approx(1.0)}


def test_random_state_is_normalized_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(20):
        psi = oa.random_state(rng, max_index=16)
        assert psi.norm_sq() == pytest.approx(1.0)
        assert all(0 <= i <= 16 for i, _ in psi.items())


def test_tolerance_override_scopes_comparisons():
    a = StructuredOperator((Dyad(1.0, 0, 0),))
    b = StructuredOperator((Dyad(1.0 + 1e-8, 0, 0),))
    assert not oa.equals(a, b)
    set_tolerance(1e-6)
    try:
        assert oa.equals(a, b)
    finally:
        set_tolerance(1e-12)
