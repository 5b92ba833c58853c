"""Shift/unitary decomposition of the isometric block, and memory readout.

Every decomposition is checked against the certificate: the two blocks
recombine to the input, the unitary block is unitary on its domain, the
shift orbits are pairwise disjoint, and every orbit follows the index map
sigma that ``apply`` reads off the operator.  The library verifies none of
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

import qrepeat
import qrepeat.cli as cli
import qrepeat.opalgebra as oa
import qrepeat.wold as wold
from qrepeat.config import current
from helpers import no_repeatable_form_instruments, ref_shared_column
from qrepeat import (BilateralOrbit, CycleFamily, Dyad, Family, IndexSet,
                     NotIsometricOnSupport, PeriodCapExceeded, QRepeatError,
                     SplitInvariantViolation, StateVector, StructuredOperator, UnsupportedForm,
                     build_binary_example, build_example_family,
                     build_nonrepeatable_sibling, build_orthogonal,
                     make_instrument, memory_map, read_memory, split, wold_decompose)

EVENS = IndexSet.from_progression(2, 0)
ODDS = IndexSet.from_progression(2, 1)


def op(*terms):
    return StructuredOperator(terms)


UNCHECKED = wold.wold_decompose  # for timings: the autouse fixture wraps it


def follows_sigma(v, path):
    """Each index of ``path`` is sent to the next by ``v``, read through ``apply``."""
    for i, j in zip(path, path[1:]):
        assert oa.apply(v, StateVector.basis(i)).support() == (j,), (i, j)


def orbits_follow_sigma(v, dec):
    """Each orbit of ``dec`` walks the way ``v`` sends its indices: shift orbits
    from a generator outside the range, over the prefix and two revolutions of
    the phases; cycles, and a cycle family's first two cycles, closing; and a
    bilateral orbit from its descending revolution through the core into its
    ascending one."""
    rng = v.range_set()
    for orbit in dec.shift_orbits:
        assert orbit.generator not in rng
        follows_sigma(v, [orbit.index_at(d)
                          for d in range(len(orbit.prefix) + 2 * len(orbit.phases) + 1)])
    for cycle in dec.cycles:
        follows_sigma(v, cycle + cycle[:1])
    for family in dec.cycle_families:
        for j in (0, 1):
            cycle = tuple(off + j * family.step for off in family.offsets)
            follows_sigma(v, cycle + cycle[:1])
    for b in dec.bilateral_orbits:
        down, up = b.descending_phases, b.ascending_phases
        # a walk's start sits both in the core (or the other side's phases)
        # and in the phases it turned periodic on, so drop the repeats
        path = ((down[0] + b.descending_step,) + down[::-1] + b.core + up
                + (up[0] + b.ascending_step,))
        follows_sigma(v, [i for n, i in enumerate(path) if n == 0 or path[n - 1] != i])


@pytest.fixture(autouse=True)
def blocks_reassemble(monkeypatch):
    """``u + s = v``, ``u*u = uu* = P_U``, pairwise disjoint shift orbits and
    orbits that follow sigma on every decomposition built here, directly or
    through ``memory_map``."""
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
        orbits_follow_sigma(v, dec)
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
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        orbit.index_at(-1)
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


def test_an_inventory_that_misses_the_support_is_refused(monkeypatch):
    # the one fact verified at run time: drop the cycle family and the
    # explicit cycles no longer cover the support
    monkeypatch.setattr(wold, "_tail_cycle_families", lambda *args: ())
    with pytest.raises(RuntimeError, match="orbit inventory fails to cover the support"):
        wold_decompose(op(Family(1.0, 2, 1, 2, 0), Family(1.0, 2, 0, 2, 1)))


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
    # 2001 terms; trying every term made 2,005,003 per-term step lookups here.
    # Sigma translates by the owning term's offsets instead
    k = 2000
    v = split(op(Family(1.0, 2, 2, 2, 0), Family(1.0, 2 * k, 2 * k + 1, 2 * k, 1))).v
    assert len(v.terms) == 2001
    lookups = []
    lookup = wold._lookup
    monkeypatch.setattr(wold, "_lookup", lambda keyed, i: lookups.append(i) or lookup(keyed, i))
    dec = wold_decompose(v)
    assert len(lookups) == 2003
    assert [(o.generator, o.prefix, o.phases, o.step) for o in dec.shift_orbits] == \
        [(2, (), tuple(range(2, 2 * k + 1, 2)), 2 * k), (2 * k + 1, (), (2 * k + 1,), 2 * k)]
    assert not (dec.cycles or dec.cycle_families or dec.bilateral_orbits)
    assert dec.fixed_domain.is_empty and dec.u.is_zero()


def test_a_wide_stride_decomposes_quickly():
    # folding one IndexSet per term, each lifted to the lcm period, took 17 s
    # on a 2-core x86-64 host; the orbits are those at K = 2000, scaled
    k = 10001
    m = op(Family(1.0, 2, 2, 2, 0), Family(1.0, 2 * k, 2 * k + 1, 2 * k, 1))
    start = time.perf_counter()
    dec = UNCHECKED(split(m).v)
    assert time.perf_counter() - start < 5.0
    assert [(o.generator, o.prefix, o.phases, o.step) for o in dec.shift_orbits] == \
        [(2, (), tuple(range(2, 2 * k + 1, 2)), 2 * k), (2 * k + 1, (), (2 * k + 1,), 2 * k)]


def test_the_tail_cycle_analysis_can_pass_the_cap_that_every_set_passed():
    # Modulus 10 (stride-10 halves of stride-5 translations).  {0, 1 mod 5}
    # descend by 5 into two bilateral chains, which climb {2 mod 5} by 15 and
    # {3 mod 5} by 35; {4 mod 5} is fixed.  The leftover has period 105 and
    # every set built has a period of at most 105, but the residue analysis
    # runs modulo lcm(10, 105) = 210.
    def halves(out, in_):
        return [Family(1.0, 10, out, 10, in_), Family(1.0, 10, out + 5, 10, in_ + 5)]
    v = op(*halves(0, 5), *halves(1, 6), *halves(17, 2), *halves(38, 3),
           Family(1.0, 5, 4, 5, 4), Dyad(1.0, 2, 0), Dyad(1.0, 3, 1))
    for cap in (105, 209):
        with qrepeat.settings(period_cap=cap), \
                pytest.raises(PeriodCapExceeded, match="needs period 210 beyond the cap"):
            wold_decompose(v)
    with qrepeat.settings(period_cap=210):
        dec = wold_decompose(v)
    assert (len(dec.shift_orbits), len(dec.bilateral_orbits)) == (8, 2)
    assert not (dec.cycles or dec.cycle_families)


# Counted, not timed: the premise check built one IndexSet per term (2003 here)
def test_validate_builds_only_the_range_and_the_support(monkeypatch):
    k = 2000
    v = split(op(Family(1.0, 2, 2, 2, 0), Family(1.0, 2 * k, 2 * k + 1, 2 * k, 1))).v
    calls = []
    for module in (wold, oa):
        inner = module.from_parts
        monkeypatch.setattr(module, "from_parts",
                            lambda *args, inner=inner: calls.append(None) or inner(*args))
    wold._validate(v, current().tolerance)
    assert len(calls) <= 2


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


CO_MONOMIAL = (NotIsometricOnSupport,
               "columns share output rows, so the squared modulus is not a projector")
STRIDE = (UnsupportedForm, "a family changes stride, so its orbits are not eventually arithmetic")
AMPLITUDE = (NotIsometricOnSupport, "column amplitude 0.5 differs from 1")
RANGE = (UnsupportedForm, "the range leaves the support, so forward orbits are not total")


def shared_column(c):
    return NotIsometricOnSupport, f"two terms share column {c}"


def broken_premises(v):
    """The premises of ``wold_decompose`` that ``v`` breaks, each decided on its own."""
    tol = current().tolerance
    broken = set()
    if not oa.is_monomial(oa.adjoint(v)):
        broken.add("co-monomial")
    if any(t.out_stride != t.in_stride for t in v.terms):
        broken.add("stride")
    if any(abs(abs(t.coeff) - 1.0) > tol for t in v.terms):
        broken.add("amplitude")
    if not v.range_set().is_subset(v.support_set()):
        broken.add("range")
    if ref_shared_column(v.terms) is not None:
        broken.add("column")
    return broken


# Each premise broken alone, then in pairs: the first check in the order
# co-monomial, per term (stride, then amplitude), range, column names it.
PREMISES = [
    ("co-monomial", op(Dyad(1.0, 0, 0), Dyad(1.0, 0, 1)), CO_MONOMIAL),
    ("stride", op(Family(1.0, 2, 0, 1, 0)), STRIDE),
    ("amplitude", op(Family(0.5, 1, 0, 1, 0)), AMPLITUDE),
    ("range", op(Family(1.0, 1, 0, 1, 2)), RANGE),
    ("column", op(Family(1.0, 2, 1, 2, 1), Family(1.0, 3, 3, 3, 3)), shared_column(3)),
    # the second term is the first to share a column (20); the point's 10 comes later
    ("column", op(Family(1.0, 10, 10, 10, 10), Family(1.0, 20, 20, 20, 20), Dyad(1.0, 10, 10)),
     shared_column(20)),
    ("co-monomial stride", op(Family(1.0, 4, 0, 2, 0), Dyad(1.0, 0, 1)), CO_MONOMIAL),
    ("co-monomial amplitude", op(Dyad(0.5, 0, 0), Dyad(1.0, 0, 1)), CO_MONOMIAL),
    ("co-monomial range", op(Dyad(1.0, 2, 0), Dyad(1.0, 2, 1)), CO_MONOMIAL),
    ("co-monomial column", op(Family(1.0, 1, 0, 1, 0), Dyad(1.0, 3, 5)), CO_MONOMIAL),
    ("stride amplitude", op(Family(0.5, 2, 0, 1, 0)), STRIDE),
    # the amplitude term comes first in canonical order
    ("stride amplitude", op(Family(0.5, 2, 1, 2, 1), Family(1.0, 4, 0, 2, 0)), AMPLITUDE),
    ("stride range", op(Family(1.0, 2, 0, 1, 1)), STRIDE),
    ("stride column", op(Family(1.0, 4, 0, 2, 0), Dyad(1.0, 2, 2)), STRIDE),
    ("amplitude range", op(Family(0.5, 1, 0, 1, 2)), AMPLITUDE),
    ("amplitude column", op(Family(1.0, 2, 1, 2, 1), Family(0.5, 3, 3, 3, 3)), AMPLITUDE),
    ("range column", op(Family(1.0, 2, 0, 2, 2), Dyad(1.0, 1, 2)), RANGE),
]


@pytest.mark.parametrize("broken,v,expected", PREMISES,
                         ids=[f"{row[0]}-{n}" for n, row in enumerate(PREMISES)])
def test_each_broken_premise_is_named_by_the_first_check(broken, v, expected):
    assert broken_premises(v) == set(broken.split())
    error, text = expected
    with pytest.raises(QRepeatError) as info:
        wold_decompose(v)
    assert type(info.value) is error and str(info.value) == text


@st.composite
def overlapping_isometries(draw):
    """A ``column_disjoint_isometries`` draw plus terms on columns it already
    uses that keep every earlier premise: sub-progressions and points of its
    families, and points sending a used column to a row outside the range."""
    v = draw(column_disjoint_isometries())
    generators = v.support_set().difference(v.range_set())
    rows = sorted(generators.transient) if generators.is_finite else []
    extra = []
    for t in draw(st.lists(st.sampled_from(v.terms), min_size=1, max_size=3)) if v.terms else ():
        c = draw(st.sampled_from(PHASES))
        if t.length is None and draw(st.booleans()):
            k, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            extra.append(Family(c, t.out_stride * m, t.out_stride * k + t.out_offset,
                                t.in_stride * m, t.in_stride * k + t.in_offset))
        elif t.length is None:
            j = draw(st.integers(1, 3))
            extra.append(Dyad(c, t.out_stride * j + t.out_offset, t.in_stride * j + t.in_offset))
        elif rows:  # each generator row once, so no row takes two columns
            extra.append(Dyad(c, rows.pop(draw(st.integers(0, len(rows) - 1))), t.in_offset))
    # a repeated signature would merge coefficients, so keep the first
    terms = {(t.length, t.out_stride, t.out_offset, t.in_stride, t.in_offset): t
             for t in reversed(v.terms + tuple(extra))}
    w = StructuredOperator(terms.values())
    # absorbing a point can carry a family onto another's signature and sum
    # their coefficients (|1><1| + sum|j+2><j+2| is sum|j+1><j+1|), so keep
    # only draws whose canonical form still breaks no premise but the column
    assume(broken_premises(w) <= {"column"})
    return w


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(overlapping_isometries())
def test_the_shared_column_is_the_one_the_union_fold_finds(v):
    expected = ref_shared_column(v.terms)
    try:
        wold._validate(v, current().tolerance)
    except NotIsometricOnSupport as e:
        assert expected is not None and str(e) == f"two terms share column {expected}"
    else:
        assert expected is None


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


def test_read_memory_of_a_state_with_no_weight_over_the_tolerance_is_undefined():
    dec = wold_decompose(op(Family(1.0, 2, 3, 2, 1)))
    assert read_memory(dec, StateVector()) is None
    uniform = StateVector({1: 1.0, 3: 1.0, 5: 1.0})
    assert read_memory(dec, uniform) is not None
    with qrepeat.settings(tolerance=0.5):  # each index holds a third of the weight
        assert read_memory(dec, uniform) is None


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
    # split builds one adjoint(v) and the co-monomial check keys the terms
    # by output without one; u's unitarity follows from the construction
    # and is not certified again
    assert len(calls) == 24
