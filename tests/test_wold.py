"""Shift/unitary decomposition of the isometric block, and memory readout.

Every decomposition is checked against the certificate: the two blocks
recombine to the input, the unitary block is unitary on its domain, and
the shift orbits are pairwise disjoint.  The library verifies none of
these; they follow from its one-term-per-column premise, and the autouse
fixture checks them here, on every decomposition this module builds.
"""

import cmath
import json
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import qrepeat.cli as cli
import qrepeat.opalgebra as oa
import qrepeat.wold as wold
from qrepeat.config import current
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
    """``u + s = v``, ``u*u = uu* = P_U`` and pairwise disjoint shift orbits
    on every decomposition built here, directly or through ``memory_map``."""
    inner, adjoint = wold.wold_decompose, oa.adjoint  # before a test counts adjoints

    def checked(v):
        dec = inner(v)
        assert oa.equals(oa.add(dec.u, dec.s), v)
        # |c| is within tol of 1, so |c|^2 is within 2 tol + tol^2
        proj, u_adj = oa.projector(dec.unitary_domain), adjoint(dec.u)
        bound = 3 * current().tolerance
        assert oa.max_deviation(oa.compose(u_adj, dec.u), proj)[0] <= bound
        assert oa.max_deviation(oa.compose(dec.u, u_adj), proj)[0] <= bound
        seen = IndexSet.empty()
        for orbit in dec.shift_orbits:
            assert seen.is_disjoint(orbit.index_set())
            seen = seen.union(orbit.index_set())
        return dec

    monkeypatch.setattr(wold, "wold_decompose", checked)
    monkeypatch.setattr(sys.modules[__name__], "wold_decompose", checked)


def assert_certified(v, dec):
    # the autouse fixture has checked the unitarity of u
    assert oa.equals(oa.add(dec.u, dec.s), v)
    assert dec.unitary_domain.is_disjoint(dec.shift_domain)
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


def test_lookups_try_only_the_terms_of_the_index_class(monkeypatch):
    # split cuts the evens into one family per residue mod 4000, so v holds
    # 2001 terms; trying every term made 2,005,003 step_at calls here
    k = 2000
    v = split(op(Family(1.0, 2, 2, 2, 0), Family(1.0, 2 * k, 2 * k + 1, 2 * k, 1))).v
    assert len(v.terms) == 2001
    steps, lookups = [], []
    step_at, lookup = oa.Term.step_at, wold._lookup
    monkeypatch.setattr(oa.Term, "step_at", lambda t, i: steps.append(i) or step_at(t, i))
    monkeypatch.setattr(wold, "_lookup", lambda keyed, i: lookups.append(i) or lookup(keyed, i))
    dec = wold_decompose(v)
    assert len(lookups) == 2003 and len(steps) <= 3 * len(lookups)
    assert [(o.generator, o.prefix, o.phases, o.step) for o in dec.shift_orbits] == \
        [(2, (), tuple(range(2, 2 * k + 1, 2)), 2 * k), (2 * k + 1, (), (2 * k + 1,), 2 * k)]
    assert not (dec.cycles or dec.cycle_families or dec.bilateral_orbits)
    assert dec.fixed_domain.is_empty and dec.u.is_zero()


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


@pytest.mark.parametrize("v,error,text", [
    # two rows in column 0: its range {1, 2} leaves its support {0}
    (op(Dyad(1.0, 1, 0), Dyad(1.0, 2, 0)), UnsupportedForm, "the range leaves the support"),
    (op(Family(1.0, 1, 1, 1, 0), Dyad(1.0, 0, 0)), NotIsometricOnSupport,
     "two terms share column 0"),
])
def test_a_non_monomial_operator_meets_a_later_check(v, error, text):
    # no check of its own: two entries in one column take two terms there
    assert not oa.is_monomial(v)
    with pytest.raises(error, match=text):
        wold_decompose(v)


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


# -- the one-term-per-column premise ---------------------------------------------

# |c| == 1 exactly in floating point, so no draw leans on the tolerance
PHASES = (1.0, -1.0, 1j, -1j, 0.6 + 0.8j, -0.8 + 0.6j)


@st.composite
def column_disjoint_isometries(draw):
    """One unimodular term per column, with the range inside the support.

    Residue classes mod ``period`` are carried onto residue classes, each from
    its own start and lifted by whole periods, the way ``tests/golden/mod12``
    is built.  Point terms then send the columns the families leave free,
    among them every row the families reach below a class's start,
    injectively onto rows no family reaches.
    """
    period = draw(st.integers(1, 4))
    classes = draw(st.lists(st.integers(0, period - 1), unique=True, max_size=period))
    start = {c: draw(st.integers(0, 2)) for c in classes}
    image = dict(zip(classes, draw(st.permutations(classes))))
    families = []
    for c in classes:
        lift = max(0, start[image[c]] + draw(st.integers(-1, 2)))
        families.append(Family(draw(st.sampled_from(PHASES)), period,
                               image[c] + lift * period, period, c + start[c] * period))
    fam = StructuredOperator(families)
    support, rng = fam.support_set(), fam.range_set()
    window = period * 6 + 3
    free = [i for i in range(window) if i not in support]
    points = sorted(set(rng.difference(support).members_below(window))
                    | set(draw(st.lists(st.sampled_from(free), max_size=4)) if free else ()))
    free_rows = support.union(IndexSet.from_indices(points)).difference(rng)
    assert free_rows.is_finite
    assume(len(free_rows.transient) >= len(points))
    rows = draw(st.permutations(sorted(free_rows.transient)))
    return StructuredOperator(families + [Dyad(draw(st.sampled_from(PHASES)), row, col)
                                          for row, col in zip(rows, points)])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(column_disjoint_isometries())
def test_column_disjoint_isometries_decompose(v):
    dec = wold_decompose(v)  # the fixture checks u + s = v, unitarity, disjointness
    assert dec.shift_domain.union(dec.unitary_domain) == v.support_set()
    for orbit in dec.shift_orbits:
        path = [orbit.index_at(d) for d in range(5)]
        for d, (i, j) in enumerate(zip(path, path[1:])):
            assert orbit.depth_of(i) == d
            assert oa.apply(v, StateVector.basis(i)).support() == (j,)
            assert read_memory(dec, StateVector.basis(i)).depth == d


# I - |5><5| and |5><5|: outcome 1 sums two terms on column 5 to zero
PUNCTURED = {1: op(Family(1.0, 1, 0, 1, 0), Dyad(-1.0, 5, 5)), 2: op(Dyad(1.0, 5, 5))}


def test_terms_sharing_a_column_are_named():
    with pytest.raises(NotIsometricOnSupport, match="two terms share column 5"):
        wold_decompose(split(PUNCTURED[1]).v)
    mm = memory_map(make_instrument(PUNCTURED))
    assert mm[1] is None and mm[2].cycles == ((5,),)


def test_punctured_identity_is_reported_not_crashed(tmp_path):
    path = tmp_path / "punctured.json"
    path.write_text(json.dumps(cli.instrument_doc(make_instrument(PUNCTURED))))
    runner = CliRunner()
    r = runner.invoke(cli.main, ["certify", str(path), "--out", str(tmp_path / "c.json")])
    assert r.exit_code == 0, r.output
    r = runner.invoke(cli.main, ["wold", str(path), "--out", str(tmp_path / "w.json")])
    assert r.exit_code == 0, r.output
    one, two = json.loads((tmp_path / "w.json").read_text())["outcomes"]
    assert one == {"label": 1, "unsupported": "two terms share column 5"}
    assert "unsupported" not in two and two["cycles"] == [[5]]
    r = runner.invoke(cli.main, ["simulate", str(path), "--steps", "3",
                                 "--log", str(tmp_path / "t.jsonl")])
    assert r.exit_code == 0, r.output


def test_an_overlap_with_a_unimodular_sum_is_unsupported():
    # the sum on column 5 has modulus 1, which the old unitarity check let pass
    v = op(Family(1.0, 1, 0, 1, 0), Dyad(cmath.exp(2j * cmath.pi / 3), 5, 5))
    with pytest.raises(NotIsometricOnSupport, match="two terms share column 5"):
        wold_decompose(v)


def test_an_amplitude_within_the_tolerance_decomposes():
    # |c| - 1 is within the tolerance but |c|^2 - 1 is not
    dec = wold_decompose(op(Family(1 + 6e-13, 1, 0, 1, 0)))
    assert dec.fixed_domain == IndexSet.full() and not dec.shift_orbits


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
    # terms without one; u's unitarity follows from the construction and
    # is not certified again
    assert len(calls) == 24
