"""Instrument assembly, the bundled constructions, and block-wise building."""

import math

import numpy as np
import pytest

import qrepeat.opalgebra as oa
from helpers import NORM_DEFECT, UNDECIDED_NORMS, dense
from qrepeat import (BadProbabilityVector, CompletenessViolation,
                     ContractionViolation, CoverageViolation, Dyad, Family,
                     IndexSet, PartsViolation, StructuredOperator, UnsupportedForm,
                     build_binary_example, build_example_family,
                     build_from_parts, build_nonrepeatable_sibling,
                     build_orthogonal, make_instrument, split)

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


def test_instrument_operator_lookup():
    inst = build_example_family(2, (0.5, 0.5))
    assert inst.operator(1).families == (Family(1.0, 2, 3, 2, 1),)
    with pytest.raises(KeyError):
        inst.operator(9)
