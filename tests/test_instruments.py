"""Instrument assembly, the bundled constructions, and block-wise building."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qrepeat
import qrepeat.crosscheck as cc
import qrepeat.instruments as ins
import qrepeat.opalgebra as oa
from helpers import (NORM_DEFECT, POINT_ON_TAIL, UNDECIDED_NORMS, dense, dense_blocks,
                     ref_certify_repeatable)
from qrepeat import (BadProbabilityVector, CompletenessViolation,
                     ContractionViolation, CoverageViolation, Dyad, Family,
                     IndexSet, PartsViolation, PeriodCapExceeded, StructuredOperator,
                     UnsupportedForm, build_binary_example, build_example_family,
                     build_from_parts, build_nonrepeatable_sibling,
                     build_orthogonal, certify_repeatable,
                     check_repeatability_numerical, make_instrument, split)
from qrepeat.config import current

DIM = 20

IDENTITY = StructuredOperator.identity()


def resolves_identity(inst):
    total = StructuredOperator.zero()
    for _, effect in inst.povm().items():
        total = oa.add(total, effect)
    return oa.equals(total, IDENTITY)


def test_make_instrument_checks_completeness():
    half = StructuredOperator((Family(1.0, 2, 0, 2, 0),))
    with pytest.raises(CompletenessViolation) as err:
        make_instrument({1: half})
    assert err.value.position is not None
    # the first uncovered column is an odd index
    assert err.value.position[0] % 2 == 1


def test_make_instrument_rejects_expanding_outcome():
    with pytest.raises(ContractionViolation) as err:
        make_instrument({1: StructuredOperator((Family(1.2, 1, 0, 1, 0),))},
                        check_completeness=False)
    assert err.value.norm > 1.0


def test_make_instrument_names_the_outcome_of_an_undecided_norm():
    evens = oa.projector(IndexSet.from_progression(2, 0))
    with pytest.raises(UnsupportedForm,
                       match="operator for outcome 3: operator norm undecided: row 2"):
        make_instrument({1: evens, 3: UNDECIDED_NORMS["tail_head_row"]},
                        check_completeness=False)


def test_make_instrument_rejects_a_block_past_any_window():
    with pytest.raises(ContractionViolation) as err:
        make_instrument({1: NORM_DEFECT}, check_completeness=False)
    assert err.value.norm == pytest.approx(0.8 * math.sqrt(2.0), abs=1e-12)


def test_make_instrument_preserves_label_order():
    ops = {label: oa.projector(IndexSet.from_progression(2, r))
           for r, label in ((0, 2), (1, 1))}
    inst = make_instrument(ops)
    assert inst.outcomes == (1, 2)
    mixed = make_instrument({"b": ops[1], 3: ops[2]})
    assert mixed.outcomes == (3, "b")  # integers sort before strings


def test_example_family_is_complete_exactly():
    inst = build_example_family(3, (0.2, 0.3, 0.5))
    assert resolves_identity(inst)


def test_example_family_dense_form():
    inst = build_example_family(2, (0.5, 0.5))
    m1 = np.zeros((8, 8), dtype=complex)
    m1[1, 0] = math.sqrt(0.5)
    m1[3, 1] = m1[5, 3] = m1[7, 5] = 1.0
    assert np.allclose(dense(inst.operator(1), 8), m1)
    p1 = np.zeros((8, 8))
    p1[0, 0] = 0.5
    p1[1, 1] = p1[3, 3] = p1[5, 5] = p1[7, 7] = 1.0
    assert np.allclose(dense(inst.povm().effect(1), 8), p1)


def test_example_family_vanishing_probability_drops_dyad():
    inst = build_example_family(2, (1.0, 0.0))
    assert inst.operator(2).dyads == ()
    assert resolves_identity(inst)


def test_example_family_validates_probabilities():
    with pytest.raises(BadProbabilityVector):
        build_example_family(2, (0.5, 0.6))
    with pytest.raises(BadProbabilityVector):
        build_example_family(2, (0.5,))
    with pytest.raises(BadProbabilityVector):
        build_example_family(0, ())
    with pytest.raises(BadProbabilityVector):
        build_example_family(2, (1.2, -0.2))
    with pytest.raises(BadProbabilityVector, match="expected 3 probabilities, got 2"):
        build_example_family(3, (0.5, 0.5))


@pytest.mark.parametrize("build", [build_example_family, build_nonrepeatable_sibling])
@pytest.mark.parametrize("p", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
def test_a_nan_probability_is_refused(build, p):
    # nan fails no < or > test, so the range check must be one it fails
    with pytest.raises(BadProbabilityVector, match=r"entries must lie in \[0, 1\]"):
        build(2, p)


def test_sibling_shares_the_povm():
    p = (0.3, 0.7)
    a = build_example_family(2, p).povm()
    b = build_nonrepeatable_sibling(2, p).povm()
    for label in (1, 2):
        assert oa.equals(a.effect(label), b.effect(label))


def test_binary_example_structure():
    inst = build_binary_example(0.3, 0.7)
    assert resolves_identity(inst)
    w1 = split(inst.operator(1)).w
    w2 = split(inst.operator(2)).w
    assert oa.equals(oa.compose(oa.adjoint(w1), w1),
                     StructuredOperator((Dyad(0.3, 0, 0), Dyad(0.7, 1, 1))))
    assert oa.equals(oa.compose(oa.adjoint(w2), w2),
                     StructuredOperator((Dyad(0.7, 0, 0), Dyad(0.3, 1, 1))))


def test_binary_example_validates_probabilities():
    with pytest.raises(BadProbabilityVector):
        build_binary_example(1.5, 0.5)
    with pytest.raises(BadProbabilityVector):
        build_binary_example(0.5, -0.1)


def test_orthogonal_builder_requires_partition():
    evens = IndexSet.from_progression(2, 0)
    odds = IndexSet.from_progression(2, 1)
    inst = build_orthogonal({"even": evens, "odd": odds})
    assert resolves_identity(inst)
    with pytest.raises(CoverageViolation):
        build_orthogonal({"a": evens, "b": evens})
    with pytest.raises(CoverageViolation):
        build_orthogonal({"a": evens})


# -- building from shift and deposit blocks ----------------------------------


def test_build_from_parts_round_trips_the_example():
    inst = build_example_family(2, (0.4, 0.6))
    parts = {label: (split(op).v, split(op).w) for label, op in inst.items()}
    rebuilt = build_from_parts(parts)
    for label in inst.outcomes:
        assert rebuilt.operator(label) == inst.operator(label)


def test_build_from_parts_accepts_multi_class_shifts_and_phases():
    # one outcome may own several residue ladders, and deposit amplitudes
    # may carry phases; deposits still have to land on orbit generators
    v1 = StructuredOperator((Family(1.0, 3, 4, 3, 1), Family(1.0, 3, 5, 3, 2)))
    v2 = StructuredOperator((Family(1.0, 3, 6, 3, 3),))
    w1 = StructuredOperator((Dyad(math.sqrt(0.5) * np.exp(0.7j), 1, 0),))
    w2 = StructuredOperator((Dyad(math.sqrt(0.5), 3, 0),))
    inst = build_from_parts({1: (v1, w1), 2: (v2, w2)})
    assert resolves_identity(inst)


def test_build_from_parts_rejects_deposit_into_shift_range():
    # a deposit aimed past the generator collides with shifted amplitude,
    # which shows up as a range overlap between the blocks
    v1 = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    v2 = StructuredOperator((Family(1.0, 2, 4, 2, 2),))
    w1 = StructuredOperator((Dyad(math.sqrt(0.5), 3, 0),))
    w2 = StructuredOperator((Dyad(math.sqrt(0.5), 2, 0),))
    with pytest.raises(PartsViolation) as err:
        build_from_parts({1: (v1, w1), 2: (v2, w2)})
    assert "orthogonal ranges" in err.value.condition


def test_build_from_parts_rejects_deposit_outside_support():
    v1 = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    v2 = StructuredOperator((Family(1.0, 2, 4, 2, 2),))
    w1 = StructuredOperator((Dyad(1.0, 0, 0),))  # 0 is in no shift support
    with pytest.raises(PartsViolation) as err:
        build_from_parts({1: (v1, w1), 2: (v2, StructuredOperator.zero())})
    assert "support" in err.value.condition or "zero" in err.value.condition


def test_build_from_parts_rejects_incomplete_cover():
    v1 = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    w1 = StructuredOperator((Dyad(1.0, 1, 0),))
    with pytest.raises(PartsViolation) as err:
        build_from_parts({1: (v1, w1)})
    assert err.value.condition == "blocks resolve the identity"


def test_build_from_parts_rejects_overlapping_shift_blocks():
    v = StructuredOperator((Family(1.0, 2, 3, 2, 1),))
    with pytest.raises(PartsViolation):
        build_from_parts({1: (v, StructuredOperator.zero()),
                          2: (v, StructuredOperator.zero())})


def test_build_from_parts_rejects_a_cover_that_certifies_non_repeatable():
    # every part check and the identity check pass: |1><0| and the shift
    # |j+2><j+1| are isometries on their supports, with orthogonal ranges,
    # but |1><0| sends 1, its own output, to zero
    parts = {1: (StructuredOperator((Dyad(1.0, 1, 0),)), StructuredOperator.zero()),
             2: (StructuredOperator((Family(1.0, 1, 2, 1, 1),)), StructuredOperator.zero())}
    with pytest.raises(PartsViolation) as err:
        build_from_parts(parts)
    assert err.value.condition == "repeatability"
    assert err.value.position == (1, 0) and err.value.deviation == 1.0
    assert str(err.value).endswith("(isometry on range (1) at (1, 0))")


def test_instrument_operator_lookup():
    inst = build_example_family(2, (0.5, 0.5))
    assert inst.operator(1).families == (Family(1.0, 2, 3, 2, 1),)
    with pytest.raises(KeyError):
        inst.operator(9)


def _count_norms(monkeypatch):
    calls = []
    inner = oa.operator_norm

    def counted(op):
        calls.append(op)
        return inner(op)

    monkeypatch.setattr(oa, "operator_norm", counted)
    return calls


def test_a_complete_instrument_loads_without_deciding_a_norm(monkeypatch):
    with pytest.raises(UnsupportedForm, match="row 2 holds a point and a progression"):
        oa.operator_norm(POINT_ON_TAIL[1])
    calls = _count_norms(monkeypatch)
    inst = make_instrument(POINT_ON_TAIL)
    assert calls == []
    rep = certify_repeatable(inst)
    assert rep.complete and not rep.repeatable
    devs = check_repeatability_numerical(inst)
    assert devs.keys() == {(1, 1), (1, 2), (2, 1), (2, 2)}
    assert all(d == pytest.approx(0.5, abs=1e-12) for d in devs.values())


def test_an_incomplete_instrument_still_decides_each_norm(monkeypatch):
    calls = _count_norms(monkeypatch)
    half = StructuredOperator((Family(1.0, 2, 0, 2, 0),))
    make_instrument({1: half, 2: half}, check_completeness=False)
    assert calls == [half, half]


def test_outcomes_built_under_another_tolerance_decide_each_norm(monkeypatch):
    # their adjoints would be canonicalized afresh, so completeness bounds
    # no norm: each is taken
    ops = dict(build_example_family(2, (0.5, 0.5)).items())
    calls = _count_norms(monkeypatch)
    make_instrument(ops)
    assert calls == []
    with qrepeat.settings(tolerance=1e-6):
        make_instrument(ops)
    assert calls == [ops[1], ops[2]]


@pytest.mark.parametrize("entries, error, message", [
    ({}, ValueError, "an instrument needs at least one outcome"),
    ({1: "not an operator"}, TypeError, "outcome 1 is not a StructuredOperator"),
], ids=["empty", "not-an-operator"])
def test_make_instrument_refuses_an_empty_or_non_operator_family(entries, error, message):
    with pytest.raises(error, match=message):
        make_instrument(entries, check_completeness=False)


def test_an_instrument_whose_povm_deviation_is_over_the_cap_decides_each_norm(monkeypatch):
    # the effects' line periods have lcm 1009 * 1013 = 1022117, over the cap,
    # so the bound from completeness reads False
    calls = _count_norms(monkeypatch)
    ops = {1: StructuredOperator((Family(1.0, 1009, 0, 1009, 0),)),
           2: StructuredOperator((Family(1.0, 1013, 1, 1013, 1),))}
    inst = make_instrument(ops, check_completeness=False)
    assert inst.outcomes == (1, 2)
    assert calls == [ops[1], ops[2]]
    with pytest.raises(PeriodCapExceeded, match="stride lcm 1022117"):
        certify_repeatable(inst)


@st.composite
def complete_dense_instruments(draw):
    """``M_e = Q P_e Q*`` on ``[0, d)``, ``Q`` from the QR of a drawn dense block
    and ``P_e`` the projectors of a drawn split of ``[0, d)``; outcome 1 carries
    the identity tail from ``d`` and may be followed by the swap of ``|0>`` and
    ``|d-1>``, which keeps the effects (the bench corpus's perturbed blocks)."""
    d = draw(st.integers(2, 6))
    q, _ = np.linalg.qr(dense(draw(dense_blocks()), d))
    first = draw(st.sets(st.integers(0, d - 1)))
    swap = np.eye(d)
    if draw(st.booleans()):
        swap[[0, d - 1]] = swap[[d - 1, 0]]
    entries = []
    for label, mask in ((1, [i in first for i in range(d)]), (2, [i not in first for i in range(d)])):
        p = np.diag(np.array(mask, dtype=float))
        mat = q @ (swap @ p if label == 1 else p) @ q.conj().T
        terms = [Dyad(complex(mat[i, j]), i, j) for i in range(d) for j in range(d)]
        if label == 1:
            terms.append(Family(1.0, 1, d, 1, d))
        entries.append((label, StructuredOperator(terms)))
    return ins.Instrument(tuple(entries))


@st.composite
def finite_dim_draws(draw):
    """The finite-dimensional suite's draws (b) and (c): the square-root
    instrument of a random POVM, or a rotated projective instrument."""
    dim = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ops = [cc._psd_sqrt(p) for p in cc._random_povm(rng, dim, int(rng.integers(2, 4)))]
    else:
        u = cc._random_unitary(rng, dim)
        ops = [u @ np.diag([1.0 if i in block else 0.0 for i in range(dim)])
               for block in cc._random_partition(rng, dim)]
    return cc._point_instrument(ops)


@settings(deadline=None, max_examples=60)
@given(complete_dense_instruments() | finite_dim_draws())
def test_a_norm_bound_by_completeness_holds_for_every_decided_norm(inst):
    tol = current().tolerance
    fires = ins._contractive_by_completeness(inst, tol)
    event(f"bound by completeness: {fires}")
    if not fires:
        return
    for _, op in inst.items():
        try:
            norm, _ = oa.operator_norm(op)
        except UnsupportedForm:
            continue
        assert norm <= 1.0 + tol


def _rotation_near_identity(d, eps, u, v):
    """``I_d + eps (u v* - v u*)`` as points, with the identity tail from ``d`` as
    a second outcome: ``M_1* M_1 = I + eps^2 (u u* + v v*)`` for orthonormal
    ``u``, ``v``, so ``||M_1||^2 = 1 + eps^2`` while every entry of the excess
    may sit below the tolerance."""
    m = np.eye(d) + eps * (np.outer(u, v.conj()) - np.outer(v, u.conj()))
    return {1: StructuredOperator([Dyad(complex(m[i, j]), i, j)
                                   for i in range(d) for j in range(d)]),
            2: StructuredOperator((Family(1.0, 1, d, 1, d),))}, float(np.linalg.norm(m, 2))


def test_entries_dropped_from_the_effects_still_count_against_the_bound(monkeypatch):
    # every entry of eps^2 (u u* + v v*) is 3e-13, under the tolerance, yet the
    # norm of M_1 exceeds 1 + tol; the shortcut must not load it
    d = 60
    u = np.ones(d) / math.sqrt(d)
    v = np.array([(-1.0) ** i for i in range(d)]) / math.sqrt(d)
    entries, norm = _rotation_near_identity(d, 3e-6, u, v)
    assert norm > 1 + current().tolerance
    calls = _count_norms(monkeypatch)
    with pytest.raises(ContractionViolation, match="operator for outcome 1 has norm 1 > 1"):
        make_instrument(entries)
    assert calls == [entries[1]]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.floats(-1.5, 1.5))
def test_a_norm_bound_by_completeness_counts_what_composition_drops(d, seed, spread):
    # ||M_1|| - 1 is about eps^2 / 2, drawn within a factor 30 of the tolerance
    tol = current().tolerance
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
    entries, norm = _rotation_near_identity(d, math.sqrt(2 * tol * 10 ** spread), q[:, 0], q[:, 1])
    fires = ins._contractive_by_completeness(ins.Instrument(tuple(entries.items())), tol)
    event(f"bound by completeness: {fires}")
    if fires:
        assert norm <= 1 + tol


def test_a_kept_povm_is_composed_afresh_under_another_tolerance():
    # the effect entry 1e-8 at |0><0| of outcome 2 is kept at 1e-12, dropped at 1e-6
    inst = build_example_family(2, (1 - 1e-8, 1e-8))
    kept = inst.povm()
    assert inst.povm() is kept
    assert any(t.length == 1 for t in kept.effect(2).terms)
    with qrepeat.settings(tolerance=1e-6):
        fresh = inst.povm()
        assert fresh.entries == ins.povm(inst).entries != kept.entries
        assert not any(t.length == 1 for t in fresh.effect(2).terms)
        assert certify_repeatable(inst) == ref_certify_repeatable(inst, tol=1e-6)
    assert inst.povm().entries == kept.entries


def test_a_kept_deviation_is_decided_afresh_under_another_period_cap():
    pv = build_example_family(24, [1 / 24] * 24).povm()
    assert pv.identity_deviation()[0] <= current().tolerance
    # the effects' stride 24 meets the identity's stride 1 on the diagonal
    with qrepeat.settings(period_cap=12), pytest.raises(PeriodCapExceeded):
        pv.identity_deviation()
