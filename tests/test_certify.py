"""Repeatability certification, the numerical cross-check, and POVM analysis."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qrepeat
import qrepeat.certify as cer
import qrepeat.crosscheck as cc
import qrepeat.instruments as ins
import qrepeat.opalgebra as oa
from helpers import (ZeroNormalsFirst, agreement_window, dense_blocks, diagonal_povms,
                     index_sets, loose_operators, near_complete_instrument,
                     no_repeatable_form_instruments, operators, partitions,
                     ref_adjoint, ref_certify_repeatable, ref_check_orthogonal, step_at)
from qrepeat import (Dyad, Family, IndexSet, InvalidPovm, Povm, StructuredOperator,
                     UnsupportedForm, build_binary_example,
                     build_example_family, build_nonrepeatable_sibling,
                     build_orthogonal, certify_repeatable,
                     check_orthogonal, check_repeatability_numerical,
                     classify_povm, finite_dim_corollary_suite,
                     make_instrument)

EVENS = IndexSet.from_progression(2, 0)
ODDS = IndexSet.from_progression(2, 1)


def test_example_family_certifies_repeatable_non_orthogonal():
    rep = certify_repeatable(build_example_family(2, (0.5, 0.5)))
    assert rep.repeatable and rep.complete
    assert not rep.orthogonal
    assert rep.witnesses == ()
    for checks in rep.per_outcome.values():
        assert checks.isometric_on_range
        assert checks.range_in_support is True  # monomial, decided exactly
    for checks in rep.per_pair.values():
        assert checks.product_vanishes and checks.ranges_orthogonal


def test_degenerate_probability_recovers_orthogonality():
    # p = 1 makes the deposit block a plain dyad with unit weight and the
    # effects become projections
    rep = certify_repeatable(build_example_family(2, (1.0, 0.0)))
    assert rep.repeatable and rep.orthogonal


def test_sibling_fails_with_witnesses():
    rep = certify_repeatable(build_nonrepeatable_sibling(2, (0.5, 0.5)))
    assert not rep.repeatable
    assert rep.complete  # it is a genuine instrument, just not repeatable
    assert rep.witnesses
    assert any(not c.isometric_on_range for c in rep.per_outcome.values()) or \
        any(not c.product_vanishes for c in rep.per_pair.values())


def test_projective_partition_is_orthogonal():
    rep = certify_repeatable(build_orthogonal({"even": EVENS, "odd": ODDS}))
    assert rep.repeatable and rep.orthogonal and rep.complete


def test_stride_210_partition_builds_and_certifies():
    s = IndexSet.from_progression(210, 0)
    rep = certify_repeatable(build_orthogonal({1: s, 2: s.complement()}))
    assert rep.repeatable and rep.orthogonal and rep.complete


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(oa, name)

    def counted(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(oa, name, counted)
    return calls


# Counted, not timed: an all-pairs compose tries every term of one factor
# against every term of the other.  The counts it made are quoted below.
def test_certify_stride_210_partition_makes_few_progression_products(monkeypatch):
    s = IndexSet.from_progression(210, 0)
    inst = build_orthogonal({1: s, 2: s.complement()})
    calls = _count_calls(monkeypatch, "_compose_terms")
    assert certify_repeatable(inst).repeatable
    assert len(calls) < 5000  # all pairs: 219,664


def test_certify_dense_block_makes_few_progression_products(monkeypatch):
    d = 16
    rng = np.random.default_rng(20261018)
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    ops = {}
    for label, block in ((1, range(0, d // 2)), (2, range(d // 2, d))):
        p = np.zeros((d, d))
        p[list(block), list(block)] = 1.0
        m = q @ p @ q.conj().T
        terms = [Dyad(complex(m[i, j]), i, j) for i in range(d) for j in range(d)]
        if label == 1:
            terms.append(Family(1.0, 1, d, 1, d))
        ops[label] = StructuredOperator(terms)
    inst = make_instrument(ops)
    calls = _count_calls(monkeypatch, "_compose_terms")
    assert certify_repeatable(inst).repeatable
    assert len(calls) < 100  # all pairs: 69,637


def test_incomplete_instrument_reports_completeness():
    inst = make_instrument({1: oa.projector(EVENS)}, check_completeness=False)
    rep = certify_repeatable(inst)
    assert not rep.complete
    assert not rep.repeatable
    assert any(w.condition == "completeness" for w in rep.witnesses)


def test_certify_builds_the_povm_once_and_reads_both_verdicts_from_it(monkeypatch):
    # The substitute halves every effect of a projective partition, so a
    # verdict computed from the real effects would read complete and orthogonal.
    # A bare Instrument carries no POVM; certifying it again reuses the kept one.
    inst = ins.Instrument(build_orthogonal({0: EVENS, 1: ODDS}).entries)
    calls = []
    inner = ins.povm

    def halved(i):
        calls.append(None)
        return ins.Povm(tuple((label, p * 0.5) for label, p in inner(i).items()))

    monkeypatch.setattr(ins, "povm", halved)
    rep = certify_repeatable(inst)
    assert certify_repeatable(inst) == rep
    assert len(calls) == 1
    assert not rep.complete and not rep.orthogonal
    assert [(w.condition, w.deviation) for w in rep.witnesses] == [("completeness", 0.5)]


def test_non_monomial_outcome_leaves_inclusion_undecided():
    c, s = np.cos(0.3), np.sin(0.3)
    rotation = StructuredOperator((Dyad(c, 0, 0), Dyad(s, 0, 1),
                                   Dyad(-s, 1, 0), Dyad(c, 1, 1),
                                   Family(1.0, 1, 2, 1, 2)))
    rep = certify_repeatable(make_instrument({1: rotation}))
    assert rep.repeatable  # a global unitary trivially repeats
    assert rep.per_outcome[1].range_in_support is None


def test_certify_builds_one_adjoint_per_outcome(monkeypatch):
    calls = _count_calls(monkeypatch, "adjoint")
    assert certify_repeatable(build_example_family(24, [1 / 24] * 24)).repeatable
    # across building and certifying: one per outcome for the POVM, kept on the
    # instrument, and one shared by the isometry and range checks; rebuilt at
    # every use over all ordered pairs, certifying alone would take 600
    assert len(calls) == 48


# ex1 keeps each outcome to its own residue class, so most pairs never meet;
# every pair of the sibling meets.  All ordered pairs take 901 products on both,
# counted across building (the POVM, kept) and certifying.
def test_certify_composes_only_the_pairs_whose_terms_meet(monkeypatch):
    calls = _count_calls(monkeypatch, "compose")
    assert certify_repeatable(build_example_family(24, [1 / 24] * 24)).repeatable
    assert len(calls) <= 96
    calls.clear()
    rep = certify_repeatable(build_nonrepeatable_sibling(24, [1 / 24] * 24))
    assert len(calls) == 901
    assert len(rep.witnesses) == 576


def _outputs_raised(inst, shift):
    return ins.Instrument(tuple(
        (label, StructuredOperator(oa.Term(t.coeff, t.out_stride, t.out_offset + shift,
                                           t.in_stride, t.in_offset, t.length)
                                   for t in op.terms))
        for label, op in inst.items()))


# Repeatable and orthogonal; combining its two range masks takes period 154,
# over the cap it is certified under below.
STRIDE_PAIR = make_instrument({1: StructuredOperator([Family(1.0, 14, 0, 2, 0)]),
                               2: StructuredOperator([Family(1.0, 22, 1, 2, 1)])})


@pytest.mark.parametrize("name, inst, cap", [
    ("ex1 n=8", build_example_family(8, [1 / 8] * 8), None),
    ("ex1 n=24", build_example_family(24, [1 / 24] * 24), None),
    ("sibling n=24", build_nonrepeatable_sibling(24, [1 / 24] * 24), None),
    ("three-part partition", build_orthogonal({
        0: IndexSet.from_progression(3, 0), 1: IndexSet.from_progression(3, 1),
        2: IndexSet.from_progression(3, 2)}), None),
    ("ex1 n=16, outputs raised", _outputs_raised(build_example_family(16, [1 / 16] * 16), 10**7),
     None),
    ("stride pair", STRIDE_PAIR, 100),
])
def test_certify_matches_the_reference_on_fixed_instruments(name, inst, cap):
    with qrepeat.settings(period_cap=cap):
        rep, ref = certify_repeatable(inst), ref_certify_repeatable(inst)
    assert rep == ref
    assert list(rep.per_pair) == list(ref.per_pair)
    assert [(w.condition, w.position, w.deviation.hex()) for w in rep.witnesses] \
        == [(w.condition, w.position, w.deviation.hex()) for w in ref.witnesses]


# Certify's cost must follow the terms, not the largest index: every output
# here lies above 10**7, so anything that spends a bit per index is slow.
def test_certify_time_does_not_follow_the_largest_index():
    inst = _outputs_raised(build_example_family(16, [1 / 16] * 16), 10**7)
    started = time.perf_counter()
    certify_repeatable(inst)
    assert time.perf_counter() - started < 1.5


_drawn_instruments = (
    partitions().map(lambda sets: build_orthogonal(dict(enumerate(sets))))
    # projectors whose sets may overlap: idempotent effects, not always orthogonal
    | st.lists(index_sets(), min_size=1, max_size=3).map(
        lambda sets: ins.Instrument(tuple(enumerate(map(oa.projector, sets), 1))))
    | st.lists(operators(), min_size=1, max_size=3).map(
        lambda ops: ins.Instrument(tuple(enumerate(ops, 1))))
    | st.integers(1, 4).flatmap(lambda n: st.sampled_from(
        [build_example_family(n, [1 / n] * n), build_nonrepeatable_sibling(n, [1 / n] * n)])))


@settings(deadline=None)
@given(_drawn_instruments)
def test_certify_matches_the_all_ordered_pairs_reference(inst):
    rep, ref = certify_repeatable(inst), ref_certify_repeatable(inst)
    assert rep == ref
    assert list(rep.per_pair) == list(ref.per_pair)
    assert [(w.condition, w.position, w.deviation.hex()) for w in rep.witnesses] \
        == [(w.condition, w.position, w.deviation.hex()) for w in ref.witnesses]
    assert check_orthogonal(inst.povm()) == ref_check_orthogonal(inst.povm())


# Instruments built at the default tolerance, certified under a larger one:
# their operators are not canonical there, and the adjoints taken for the
# POVM and the certificates must be canonicalized afresh.
@settings(deadline=None, max_examples=50)
@given(st.lists(loose_operators(), min_size=1, max_size=3).map(
    lambda ops: ins.Instrument(tuple(enumerate(ops, 1)))) | st.just(near_complete_instrument()))
# under 1e-6 the adjoint of the second drops its term and that of the first
# does not, so M_2* M_1 = 0 while M_1* M_2 = 2e-6 |0><0|
@example(ins.Instrument(((1, StructuredOperator((Dyad(2.0, 0, 0),))),
                         (2, StructuredOperator((Family(1e-6, 1, 0, 1, 0),))))))
def test_certify_under_a_larger_tolerance_matches_the_reference(inst):
    with qrepeat.settings(tolerance=1e-6):
        rep, ref = certify_repeatable(inst), ref_certify_repeatable(inst, tol=1e-6)
        assert rep == ref
        assert [(w.condition, w.position, w.deviation.hex()) for w in rep.witnesses] \
            == [(w.condition, w.position, w.deviation.hex()) for w in ref.witnesses]
        assert [p.terms for _, p in inst.povm().items()] \
            == [oa.compose(ref_adjoint(op), op).terms for _, op in inst.items()]


def test_check_orthogonal_matches_effect_idempotence():
    assert check_orthogonal(build_orthogonal({0: EVENS, 1: ODDS}).povm())
    assert not check_orthogonal(build_example_family(2, (0.5, 0.5)).povm())


# -- numerical cross-check -----------------------------------------------------


def test_numerical_check_is_exact_on_the_example():
    devs = check_repeatability_numerical(build_example_family(2, (0.5, 0.5)),
                                         trials=25)
    assert max(devs.values()) == 0.0


def test_numerical_check_flags_the_sibling():
    devs = check_repeatability_numerical(build_nonrepeatable_sibling(2, (0.5, 0.5)),
                                         trials=25)
    assert max(devs.values()) > 0.05


def test_the_numerical_checks_skip_an_outcome_whose_image_vanishes():
    # every draw sits at index 0, where the odd projector has no image
    devs = check_repeatability_numerical(build_orthogonal({0: EVENS, 1: ODDS}), trials=3,
                                         max_index=1)
    assert devs == dict.fromkeys([(0, 0), (0, 1), (1, 0), (1, 1)], 0.0)
    ops = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    assert cc._dense_eq4_deviation(ops, np.random.default_rng(0), trials=3) == 0.0


def test_a_povm_draw_whose_effects_do_not_span_is_drawn_again():
    rng = ZeroNormalsFirst(3, 4)  # both blocks of the first draw are zero
    effects = cc._random_povm(rng, 3, 2)
    assert rng.zeros == 0
    want = cc._random_povm(np.random.default_rng(3), 3, 2)
    assert all(np.array_equal(a, b) for a, b in zip(effects, want, strict=True))


def test_numerical_check_is_reproducible():
    inst = build_binary_example(0.3, 0.7)
    a = check_repeatability_numerical(inst, trials=10, seed=4)
    b = check_repeatability_numerical(inst, trials=10, seed=4)
    assert a == b


def test_numerical_check_refuses_an_empty_index_range():
    # max_index 0 left random_state drawing forever
    with pytest.raises(ValueError, match="max_index"):
        check_repeatability_numerical(build_binary_example(0.3, 0.7), trials=1, max_index=0)


@pytest.mark.parametrize("trials", [0, -5])
def test_numerical_check_refuses_fewer_than_one_trial(trials, monkeypatch):
    # no trial read as every deviation 0.0, an exactly repeatable instrument
    inst = build_nonrepeatable_sibling(2, (0.5, 0.5))
    monkeypatch.setattr(cc.oa, "random_state", None)  # no draw may happen
    with pytest.raises(ValueError, match="at least one trial"):
        check_repeatability_numerical(inst, trials=trials)


def test_finite_dim_suite_smoke():
    for dim in range(2, 7):
        for seed in range(3):
            assert finite_dim_corollary_suite(dim, seed)


def test_finite_dim_suite_needs_two_dimensions():
    with pytest.raises(ValueError, match="dim must be at least 2"):
        finite_dim_corollary_suite(1, 0)


def test_finite_dim_suite_decides_through_the_exact_certifier(monkeypatch):
    # one certificate per draw: the projective, square-root and rotated
    # instruments
    calls = []
    inner = cc.certify_repeatable

    def counted(inst):
        calls.append(inst)
        return inner(inst)

    monkeypatch.setattr(cc, "certify_repeatable", counted)
    for dim, seed in ((2, 0), (5, 1), (9, 2)):
        calls.clear()
        assert finite_dim_corollary_suite(dim, seed)
        assert len(calls) == 3
    # and its verdict is the one read: draw (a) must come out repeatable
    monkeypatch.setattr(cc, "certify_repeatable",
                        lambda inst: dataclasses.replace(inner(inst), repeatable=False))
    assert not finite_dim_corollary_suite(2, 0)


def test_finite_dim_suite_reads_completeness_from_the_certifier(monkeypatch):
    inner = cc.certify_repeatable
    monkeypatch.setattr(cc, "certify_repeatable",
                        lambda inst: dataclasses.replace(inner(inst), complete=False))
    assert not finite_dim_corollary_suite(2, 0)


def test_finite_dim_suite_builds_one_povm_per_draw(monkeypatch):
    # the suite's instruments are not checked for completeness on
    # construction, so only certify_repeatable composes their POVMs
    calls = []
    inner = ins.povm

    def counted(inst):
        calls.append(None)
        return inner(inst)

    monkeypatch.setattr(ins, "povm", counted)
    for dim, seed in ((2, 0), (5, 1), (9, 2)):
        calls.clear()
        assert finite_dim_corollary_suite(dim, seed)
        assert len(calls) == 3


# -- POVM classification ---------------------------------------------------------


def test_classify_example_povm():
    cls = classify_povm(build_example_family(2, (0.5, 0.5)).povm())
    assert cls.admits_repeatable_form
    assert cls.omega_set == IndexSet.from_indices([0])
    assert cls.z_sets[1] == ODDS
    assert cls.z_sets[2] == EVENS.difference(IndexSet.from_indices([0]))
    for label in (1, 2):
        assert oa.equals(cls.t[label],
                         StructuredOperator((Dyad(0.5, 0, 0),)))
        assert oa.equals(oa.add(cls.z[label], cls.t[label]),
                         build_example_family(2, (0.5, 0.5)).povm().effect(label))
    assert oa.equals(cls.z_omega, StructuredOperator((Dyad(1.0, 0, 0),)))


# classify_povm sends each index to exactly one part, so these identities
# hold by construction and are not re-decided there; they are checked here.
@given(diagonal_povms())
@settings(deadline=None)
def test_classification_parts_partition_the_basis_and_resolve_the_identity(pv):
    cls = classify_povm(pv)
    sets = [*cls.z_sets.values(), cls.omega_set]
    for i in range(agreement_window(*sets)):
        assert sum(s.member(i) for s in sets) == 1
    for label in pv.outcomes:
        assert oa.equals(oa.compose(cls.z[label], cls.t[label]), StructuredOperator.zero())
    assert check_orthogonal(Povm(tuple(cls.z.items())))
    cover = cls.z_omega
    for z in cls.z.values():
        cover = cover + z
    assert oa.equals(cover, StructuredOperator.identity())
    # the checks kept in classify_povm hold on every valid POVM, so the
    # verdict is the structural one
    assert cls.admits_repeatable_form == all(
        not cls.t[label].terms or not cls.z_sets[label].is_finite for label in pv.outcomes)


def _diag_value(op, i):
    """One diagonal entry, found by scanning every term."""
    val = 0.0 + 0.0j
    for t in op.terms:
        j = step_at(t, i)
        if j is not None and t.out_stride * j + t.out_offset == i:
            val += t.coeff
    return val.real


# Each entry is summed in term order, as the scan sums it, so the bits agree.
# In the example, index 6 sums to 0.6000000000000001 in term order and to
# 0.6 in reverse.
@given(operators(max_index=8, max_terms=8) | dense_blocks(4))
@example(StructuredOperator((Family(0.1, 1, 0, 1, 0), Family(0.2, 2, 0, 2, 0),
                             Family(0.3, 3, 0, 3, 0))))
def test_diagonal_table_matches_a_scan_per_index_bit_for_bit(op):
    n = 40
    assert [v.hex() for v in cer._diagonal(op, n)] == [_diag_value(op, i).hex() for i in range(n)]


@pytest.mark.parametrize("name", ["half", "finite_z"])
def test_classify_says_no_without_an_infinite_one_eigenspace(name):
    cls = classify_povm(no_repeatable_form_instruments()[name].povm())
    assert not cls.admits_repeatable_form


def test_classify_says_yes_for_a_nonzero_degenerate_part_beside_an_infinite_one_eigenspace():
    cls = classify_povm(build_example_family(3, (0.2, 0.3, 0.5)).povm())
    assert cls.admits_repeatable_form
    assert all(not cls.t[label].is_zero() and not cls.z_sets[label].is_finite
               for label in (1, 2, 3))


def test_classify_orthogonal_povm_has_empty_degenerate_part():
    cls = classify_povm(build_orthogonal({0: EVENS, 1: ODDS}).povm())
    assert cls.admits_repeatable_form
    assert cls.omega_set.is_empty
    assert all(t.is_zero() for t in cls.t.values())
    assert cls.z_sets[0] == EVENS and cls.z_sets[1] == ODDS


def test_classify_rejects_non_diagonal_povm():
    # projections onto (|0> +- |1>)/sqrt(2), with the rest of the basis
    # split between the outcomes, make a perfectly good POVM that is not
    # diagonal in the canonical basis
    plus = StructuredOperator((Dyad(0.5, 0, 0), Dyad(0.5, 0, 1),
                               Dyad(0.5, 1, 0), Dyad(0.5, 1, 1),
                               Family(1.0, 2, 2, 2, 2)))
    minus = StructuredOperator((Dyad(0.5, 0, 0), Dyad(-0.5, 0, 1),
                                Dyad(-0.5, 1, 0), Dyad(0.5, 1, 1),
                                Family(1.0, 2, 3, 2, 3)))
    pv = make_instrument({1: plus, 2: minus}).povm()
    with pytest.raises(UnsupportedForm):
        classify_povm(pv)


def test_classify_rejects_defective_weight_sums():
    inst = make_instrument(
        {1: StructuredOperator((Family(np.sqrt(0.5), 1, 0, 1, 0),)),
         2: StructuredOperator((Family(np.sqrt(0.4), 1, 0, 1, 0),))},
        check_completeness=False)
    with pytest.raises(InvalidPovm):
        classify_povm(inst.povm())


def test_classify_rejects_negative_effects():
    from qrepeat.instruments import Povm
    pv = Povm(((1, StructuredOperator((Family(1.5, 1, 0, 1, 0),))),
               (2, StructuredOperator((Family(-0.5, 1, 0, 1, 0),)))))
    with pytest.raises(InvalidPovm):
        classify_povm(pv)
