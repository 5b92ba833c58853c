"""Shift/unitary decomposition of the isometric block, and memory readout.

Every decomposition is checked against the certificate: the two blocks
recombine to the input, their domains partition the support, and the
unitary block is unitary on its domain.  The library verifies the last
itself; the recombination holds by its construction and is checked here,
on every decomposition this module builds.
"""

import sys
import time

import numpy as np
import pytest

import qrepeat.cli as cli
import qrepeat.opalgebra as oa
import qrepeat.wold as wold
from helpers import no_repeatable_form_instruments
from qrepeat import (BilateralOrbit, CycleFamily, Dyad, Family, IndexSet,
                     NotIsometricOnSupport, SplitInvariantViolation,
                     StateVector, StructuredOperator, UnsupportedForm,
                     build_binary_example, build_example_family,
                     build_nonrepeatable_sibling, build_orthogonal,
                     make_instrument, memory_map, read_memory, split, wold_decompose)

EVENS = IndexSet.from_progression(2, 0)
ODDS = IndexSet.from_progression(2, 1)


def op(*terms):
    return StructuredOperator(terms)


@pytest.fixture(autouse=True)
def blocks_reassemble(monkeypatch):
    """``u + s = v`` on every decomposition built here, directly or
    through ``memory_map``."""
    inner = wold.wold_decompose

    def checked(v):
        dec = inner(v)
        assert oa.equals(oa.add(dec.u, dec.s), v)
        return dec

    monkeypatch.setattr(wold, "wold_decompose", checked)
    monkeypatch.setattr(sys.modules[__name__], "wold_decompose", checked)


def assert_certified(v, dec):
    assert oa.equals(oa.add(dec.u, dec.s), v)
    assert dec.unitary_domain.is_disjoint(dec.shift_domain)
    proj = oa.projector(dec.unitary_domain)
    assert oa.equals(oa.compose(oa.adjoint(dec.u), dec.u), proj)
    assert oa.equals(oa.compose(dec.u, oa.adjoint(dec.u)), proj)
    assert oa.equals(oa.compose(oa.adjoint(dec.s), dec.s),
                     oa.projector(dec.shift_domain))


# -- split ---------------------------------------------------------------------


def test_split_example_outcome():
    m = build_example_family(2, (0.5, 0.5)).operator(1)
    parts = split(m)
    assert parts.v == op(Family(1.0, 2, 3, 2, 1))
    assert parts.w == op(Dyad(np.sqrt(0.5), 1, 0))
    assert oa.equals(oa.add(parts.v, parts.w), m)


def test_split_rejects_non_monomial():
    with pytest.raises(UnsupportedForm):
        split(op(Dyad(1.0, 1, 0), Dyad(1.0, 2, 0)))


def test_split_rejects_non_isometric_shift_block():
    m = build_nonrepeatable_sibling(2, (0.5, 0.5)).operator(1)
    with pytest.raises(SplitInvariantViolation):
        split(m)


# -- decomposition zoo -----------------------------------------------------------


def test_ladder_is_a_single_ray():
    v = op(Family(1.0, 2, 3, 2, 1))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.u.is_zero()
    assert len(dec.shift_orbits) == 1
    orbit = dec.shift_orbits[0]
    assert (orbit.generator, orbit.prefix, orbit.phases, orbit.step) == (1, (), (1,), 2)
    assert [orbit.depth_of(i) for i in (1, 3, 5, 7)] == [0, 1, 2, 3]
    assert [orbit.index_at(k) for k in range(4)] == [1, 3, 5, 7]
    assert orbit.index_set() == ODDS
    assert dec.shift_domain == ODDS
    assert dec.fixed_domain.is_empty


def test_full_shift_has_two_interleaved_rays():
    v = op(Family(1.0, 1, 2, 1, 0))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.u.is_zero()
    assert [(o.generator, o.phases, o.step) for o in dec.shift_orbits] == \
        [(0, (0,), 2), (1, (1,), 2)]
    assert dec.shift_domain == IndexSet.full()


def test_projector_is_pure_fixed_domain():
    v = oa.projector(EVENS)
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.s.is_zero()
    assert dec.fixed_domain == EVENS
    assert dec.unitary_domain == EVENS
    assert not dec.shift_orbits and not dec.cycles


def test_transposition_is_a_cycle():
    v = op(Dyad(1.0, 0, 1), Dyad(1.0, 1, 0), Family(1.0, 1, 2, 1, 2))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.cycles == ((0, 1),)
    assert dec.fixed_domain == IndexSet((), 2, 1, (0,))  # everything from 2 up
    assert dec.s.is_zero()


def test_paired_swaps_collapse_into_a_cycle_family():
    # swaps 2j <-> 2j+1 for every j: finitely many explicit cycles, the
    # rest summarized as one translation family
    v = op(Family(1.0, 2, 1, 2, 0), Family(1.0, 2, 0, 2, 1))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.cycles == ((0, 1), (2, 3))
    assert dec.cycle_families == (CycleFamily(offsets=(4, 5), step=2),)
    assert dec.unitary_domain == IndexSet.full()


def test_bilateral_chain_is_unitary():
    # evens descend toward 0, a dyad carries 0 to 1, odds ascend
    v = op(Family(1.0, 2, 0, 2, 2), Dyad(1.0, 1, 0), Family(1.0, 2, 3, 2, 1))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.bilateral_orbits == (BilateralOrbit(
        descending_phases=(0,), descending_step=2, core=(0,),
        ascending_phases=(1,), ascending_step=2),)
    assert dec.u == v and dec.s.is_zero()
    assert dec.unitary_domain == IndexSet.full()


def test_orbit_with_a_prefix_reads_depths_along_it():
    # 0 -> 5 by the point, then up the odds by the family
    v = op(Dyad(1.0, 5, 0), Family(1.0, 2, 7, 2, 5))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    (orbit,) = dec.shift_orbits
    assert (orbit.generator, orbit.prefix, orbit.phases, orbit.step) == (0, (0,), (5,), 2)
    path = [orbit.index_at(k) for k in range(6)]
    assert path == [0, 5, 7, 9, 11, 13]
    assert [orbit.depth_of(i) for i in path] == list(range(6))
    for i, j in zip(path, path[1:]):
        assert oa.apply(v, StateVector.basis(i)).support() == (j,)
    assert orbit.depth_of(3) is None and orbit.depth_of(1) is None


def test_shift_far_from_the_origin_decomposes_quickly():
    # the generator scan used to test each index below 10**6 on its own
    start = time.perf_counter()
    dec = wold_decompose(op(Family(1.0, 1, 10**6 + 1, 1, 10**6)))
    assert time.perf_counter() - start < 2.0
    (orbit,) = dec.shift_orbits
    assert (orbit.generator, orbit.prefix, orbit.phases, orbit.step) == (10**6, (), (10**6,), 1)


def test_phased_shift_keeps_coefficients():
    v = op(Family(1j, 2, 3, 2, 1))
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert dec.s == v


def test_decompose_rejects_downward_shift():
    # range is not contained in the support, so iteration leaks out
    with pytest.raises(UnsupportedForm):
        wold_decompose(op(Family(1.0, 1, 0, 1, 2)))


def test_decompose_rejects_non_injective_map():
    with pytest.raises(NotIsometricOnSupport):
        wold_decompose(op(Dyad(1.0, 0, 0), Dyad(1.0, 0, 1),
                          Family(1.0, 1, 2, 1, 2)))


def test_decompose_rejects_non_unimodular_weights():
    with pytest.raises(NotIsometricOnSupport):
        wold_decompose(op(Family(0.5, 2, 3, 2, 1)))


def test_decompose_zero_operator():
    dec = wold_decompose(StructuredOperator.zero())
    assert dec.u.is_zero() and dec.s.is_zero()
    assert dec.shift_domain.is_empty and dec.unitary_domain.is_empty


def test_binary_outcome_has_two_rays():
    v = split(build_binary_example(0.3, 0.7).operator(1)).v
    dec = wold_decompose(v)
    assert_certified(v, dec)
    assert [(o.generator, o.phases, o.step) for o in dec.shift_orbits] == \
        [(2, (2,), 4), (4, (4,), 4)]


# -- memory readout ----------------------------------------------------------------


def test_read_memory_reports_depth():
    dec = wold_decompose(op(Family(1.0, 2, 3, 2, 1)))
    reading = read_memory(dec, StateVector.basis(5))
    assert reading is not None
    assert reading.orbit_id == 1 and reading.depth == 2
    assert reading.as_dict() == {2: pytest.approx(1.0)}


def test_read_memory_mixture_within_one_orbit():
    dec = wold_decompose(op(Family(1.0, 2, 3, 2, 1)))
    psi = StateVector({1: 0.6, 5: 0.8})
    reading = read_memory(dec, psi)
    assert reading.depth is None
    assert reading.as_dict() == {0: pytest.approx(0.36), 2: pytest.approx(0.64)}


def test_read_memory_outside_orbits_is_undefined():
    dec = wold_decompose(op(Family(1.0, 2, 3, 2, 1)))
    assert read_memory(dec, StateVector.basis(0)) is None
    assert read_memory(dec, StateVector({1: 0.6, 0: 0.8})) is None


def test_read_memory_straddling_orbits_is_undefined():
    dec = wold_decompose(op(Family(1.0, 1, 2, 1, 0)))
    assert read_memory(dec, StateVector({0: 0.6, 1: 0.8})) is None
    assert read_memory(dec, StateVector({0: 0.6, 2: 0.8})) is not None


def test_memory_map_covers_supported_outcomes():
    mm = memory_map(build_example_family(2, (0.5, 0.5)))
    assert set(mm) == {1, 2}
    assert all(dec is not None for dec in mm.values())
    broken = memory_map(build_nonrepeatable_sibling(2, (0.5, 0.5)))
    assert all(dec is None for dec in broken.values())


def test_memory_map_handles_projective_outcomes():
    mm = memory_map(build_orthogonal({"even": EVENS, "odd": ODDS}))
    assert mm["even"].fixed_domain == EVENS
    assert mm["odd"].fixed_domain == ODDS


BILATERAL = op(Family(1.0, 2, 0, 2, 2), Dyad(1.0, 1, 0), Family(1.0, 2, 3, 2, 1))


@pytest.mark.parametrize("inst", [
    build_example_family(2, (0.5, 0.5)),
    build_nonrepeatable_sibling(2, (0.5, 0.5)),
    build_binary_example(0.3, 0.7),
    build_orthogonal({"even": EVENS, "odd": ODDS}),
    make_instrument({1: BILATERAL}),
    *no_repeatable_form_instruments().values(),
], ids=["example", "sibling", "binary", "orthogonal", "bilateral", "half", "finite_z"])
def test_memory_map_skips_exactly_what_the_wold_command_reports_unsupported(inst):
    doc = cli.wold_doc(inst)
    unsupported = {entry["label"] for entry in doc["outcomes"] if "unsupported" in entry}
    assert {label for label, dec in memory_map(inst).items() if dec is None} == unsupported


def test_memory_map_builds_two_adjoints_per_outcome(monkeypatch):
    inst = build_example_family(24, [1 / 24] * 24)
    calls = []
    inner = oa.adjoint

    def counted(op):
        calls.append(None)
        return inner(op)

    monkeypatch.setattr(oa, "adjoint", counted)
    mm = memory_map(inst)
    assert all(dec is not None for dec in mm.values())
    # split builds one adjoint(v) and the monomial check transposes the
    # terms without one; the unitarity certificate shares one adjoint(u)
    # between its two sides
    assert len(calls) == 48
