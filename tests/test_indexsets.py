"""Canonical eventually periodic index sets and their Boolean algebra."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrepeat
import qrepeat.indexsets as iss
import qrepeat.opalgebra as oa
from helpers import RefIndexSet, agreement_window, index_sets, realize
from qrepeat import IndexSet, PeriodCapExceeded

EVENS = IndexSet.from_progression(2, 0)
ODDS = IndexSet.from_progression(2, 1)


def test_progression_membership():
    assert list(EVENS.members_below(10)) == [0, 2, 4, 6, 8]
    assert list(ODDS.members_below(10)) == [1, 3, 5, 7, 9]
    assert EVENS.member(100) and not EVENS.member(101)


def test_finite_sets():
    s = IndexSet.from_indices([5, 1, 3])
    assert s.is_finite and not s.is_empty
    assert s.first() == 1
    assert list(s.members_below(100)) == [1, 3, 5]
    assert IndexSet.empty().is_empty
    assert IndexSet.empty().first() is None
    assert not IndexSet.full().is_finite
    assert IndexSet.full().first() == 0


def test_canonical_period_reduction():
    # period 4 with residues {0, 2} is the even numbers in disguise
    assert IndexSet((), 0, 4, (0, 2)) == EVENS
    assert IndexSet((), 0, 4, (0, 2)).period == 2


def test_canonical_transient_absorption():
    # transient members that extend the tail pattern fold into it
    s = IndexSet({0, 2, 4}, 6, 2, {0})
    assert s == EVENS
    assert s.bound == 0 and s.transient == frozenset()


def test_constructor_rejects_contradiction():
    with pytest.raises(ValueError):
        IndexSet({3}, 2, 2, {0})  # 3 is past the bound but not in the tail
    with pytest.raises(ValueError):
        IndexSet((), 0, 3, {3})
    with pytest.raises(ValueError):
        IndexSet((), -1, 1, ())
    with pytest.raises(ValueError, match="period must be at least 1"):
        IndexSet((), 0, 0, ())
    with pytest.raises(ValueError, match="transient indices must be nonnegative"):
        IndexSet({-1}, 0, 1, ())


def test_complement_and_full():
    assert EVENS.complement() == ODDS
    assert EVENS.union(ODDS) == IndexSet.full()
    assert EVENS.intersect(ODDS).is_empty
    assert IndexSet.full().complement().is_empty
    assert IndexSet.from_indices([7]).complement().member(6)
    assert not IndexSet.from_indices([7]).complement().member(7)


def test_subset_and_disjoint():
    multiples_of_4 = IndexSet.from_progression(4, 0)
    assert multiples_of_4.is_subset(EVENS)
    assert not EVENS.is_subset(multiples_of_4)
    assert multiples_of_4.is_disjoint(ODDS)
    assert not multiples_of_4.is_disjoint(EVENS)


def test_difference():
    d = EVENS.difference(IndexSet.from_indices([0, 2]))
    assert d.first() == 4
    assert list(d.members_below(9)) == [4, 6, 8]


def test_tail_progressions_reconstruct():
    s = IndexSet({1, 4}, 6, 6, {0, 3, 5})
    rebuilt = IndexSet.from_indices(s.transient)
    for stride, offset in s.tail_progressions():
        rebuilt = rebuilt.union(IndexSet.from_progression(stride, offset))
    assert rebuilt == s


def test_period_cap_enforced():
    with qrepeat.settings(period_cap=10), pytest.raises(PeriodCapExceeded):
        IndexSet.from_progression(7, 0).intersect(IndexSet.from_progression(5, 0))


@given(index_sets(), index_sets())
def test_union_matches_enumeration(a, b):
    n = agreement_window(a, b)
    assert realize(a.union(b), n) == realize(a, n) | realize(b, n)


@given(index_sets(), index_sets())
def test_intersection_matches_enumeration(a, b):
    n = agreement_window(a, b)
    assert realize(a.intersect(b), n) == realize(a, n) & realize(b, n)


@given(index_sets(), index_sets())
def test_difference_matches_enumeration(a, b):
    n = agreement_window(a, b)
    assert realize(a.difference(b), n) == realize(a, n) - realize(b, n)


@given(index_sets())
def test_complement_is_involutive(a):
    assert a.complement().complement() == a
    n = agreement_window(a)
    assert realize(a.complement(), n) == set(range(n)) - realize(a, n)


@given(index_sets(), index_sets())
def test_de_morgan(a, b):
    assert a.union(b).complement() == a.complement().intersect(b.complement())


@given(index_sets(), index_sets())
def test_subset_agrees_with_enumeration(a, b):
    n = agreement_window(a, b)
    assert a.is_subset(b) == (realize(a, n) <= realize(b, n))
    assert a.is_disjoint(b) == (not realize(a, n) & realize(b, n))


@given(index_sets())
def test_members_below_sorted_and_consistent(a):
    got = list(a.members_below(40))
    assert got == sorted(got)
    assert set(got) == realize(a, 40)


@given(index_sets())
def test_first_is_least_member(a):
    if a.is_empty:
        assert a.first() is None
    else:
        first = a.first()
        assert a.member(first)
        assert not realize(a, first)


@given(index_sets())
def test_equality_is_extensional(a):
    # rebuilding from any presentation of the same membership gives the
    # same canonical fields
    clone = IndexSet(set(a.members_below(a.bound)), a.bound, a.period, a.residues)
    assert clone == a and hash(clone) == hash(a)


def _canonical_by_divisor_scan(transient, bound, period, residues):
    """Canonical fields the way the least period used to be found: the first
    divisor of the period that the residue set factors through."""
    d = next(d for d in range(1, period + 1) if period % d == 0 and
             all(((r % d) in residues) == (r in residues) for r in range(period)))
    residues = frozenset(r for r in range(d) if r in residues)
    transient = set(transient)
    while bound > 0 and ((bound - 1) in transient) == (((bound - 1) % d) in residues):
        bound -= 1
        transient.discard(bound)
    return frozenset(transient), bound, d, residues


@st.composite
def planted_periods(draw):
    """Residues mod a period up to 60 that repeat with a planted divisor of
    it, up to two flipped residues (which may break it), and transient bits."""
    period = draw(st.integers(1, 60))
    sub = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    base = draw(st.frozensets(st.integers(0, sub - 1)))
    flips = draw(st.frozensets(st.integers(0, period - 1), max_size=2))
    residues = frozenset(r for r in range(period) if r % sub in base) ^ flips
    bound = draw(st.integers(0, 12))
    transient = draw(st.frozensets(st.integers(0, bound - 1), max_size=8)) if bound else frozenset()
    return transient, bound, period, residues


@given(planted_periods())
def test_canonical_fields_match_a_divisor_scan(fields):
    s = IndexSet(*fields)
    assert (s.transient, s.bound, s.period, s.residues) == _canonical_by_divisor_scan(*fields)


# -- the bitmask IndexSet against the frozenset reference -----------------------

DIVISORS_210 = [d for d in range(1, 211) if 210 % d == 0]


@st.composite
def reference_fields(draw):
    """Constructor fields with a period up to 210 (a divisor of 210, or up
    to 12), residues that repeat with a planted divisor of it up to two
    flips, and transient bits, some of them at or past the bound in
    agreement with the tail."""
    period = draw(st.sampled_from(DIVISORS_210) | st.integers(1, 12))
    sub = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    base = draw(st.frozensets(st.integers(0, sub - 1)))
    flips = draw(st.frozensets(st.integers(0, period - 1), max_size=2))
    residues = frozenset(r for r in range(period) if r % sub in base) ^ flips
    bound = draw(st.integers(0, 40))
    transient = draw(st.frozensets(st.integers(0, bound - 1), max_size=12)) if bound else frozenset()
    extra = draw(st.frozensets(st.integers(bound, bound + 2 * period), max_size=3))
    transient |= {i for i in extra if i % period in residues}
    return transient, bound, period, residues


def _fields(s):
    return s.transient, s.bound, s.period, s.residues


@given(reference_fields(), reference_fields())
@settings(deadline=None)
def test_bitmask_sets_match_the_frozenset_reference(fa, fb):
    a, b = IndexSet(*fa), IndexSet(*fb)
    ra, rb = RefIndexSet(*fa), RefIndexSet(*fb)
    assert _fields(a) == _fields(ra)
    assert all(a.member(i) == ra.member(i) for i in range(-1, a.bound + 2 * a.period))
    assert a.first() == ra.first()
    assert a.tail_progressions() == ra.tail_progressions()
    assert _fields(a.complement()) == _fields(ra.complement())
    assert _fields(a.union(b)) == _fields(ra.union(rb))
    assert _fields(a.intersect(b)) == _fields(ra.intersect(rb))
    assert _fields(a.difference(b)) == _fields(ra.difference(rb))
    assert a.is_subset(b) == ra.is_subset(rb)
    assert a.is_disjoint(b) == ra.is_disjoint(rb)


@given(reference_fields(), st.integers(-2, 40))
def test_members_below_agrees_with_member_and_the_reference(fields, limit):
    a, ref = IndexSet(*fields), RefIndexSet(*fields)
    got = list(a.members_below(limit))
    assert got == [i for i in range(limit) if a.member(i)]
    assert got == [i for i in range(limit) if ref.member(i)]


def test_members_below_a_far_point_is_one_pass():
    # the index-by-index scan took seconds here: each member() call shifts
    # the whole transient mask
    start = time.perf_counter()
    assert list(IndexSet.from_indices([10**6]).members_below(10**6 + 1)) == [10**6]
    assert list(IndexSet.from_progression(1, 10**6).members_below(10**6 + 3)) == \
        [10**6, 10**6 + 1, 10**6 + 2]
    assert time.perf_counter() - start < 2.0


def test_reading_a_large_dense_mask_is_linear():
    # clearing one bit per step copied the whole mask: 7.8 s for .transient
    evens = IndexSet.from_indices(range(0, 400_000, 2))
    start = time.perf_counter()
    assert len(evens.transient) == 200_000
    assert sum(1 for _ in evens.members_below(400_000)) == 200_000
    assert time.perf_counter() - start < 2.0


def test_a_large_point_set_builds_in_one_pass():
    # ORing one bit per point copied the whole mask: 2.5 s and 2.3 s on a
    # 2-core x86-64 host
    evens = range(0, 800_000, 2)
    start = time.perf_counter()
    built = IndexSet.from_indices(evens)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    given_bound = IndexSet(transient=evens, bound=800_000)
    assert time.perf_counter() - start < 1.0
    assert built == given_bound and built.bound == 799_999
    assert built.member(799_998) and not built.member(799_997)


def test_repunit_matches_the_division_formula():
    for count in range(65):
        for step in range(1, 41):
            assert iss._repunit(count, step) == ((1 << count * step) - 1) // ((1 << step) - 1)


_progressions = st.lists(st.tuples(st.sampled_from(DIVISORS_210[:8]) | st.integers(1, 12),
                                   st.integers(0, 60)), max_size=6)


@given(st.lists(st.integers(0, 80), max_size=8), _progressions)
@settings(deadline=None)
def test_from_parts_matches_a_union_fold(points, progressions):
    ref = RefIndexSet.from_indices(points)
    for stride, offset in progressions:
        ref = ref.union(RefIndexSet.from_progression(stride, offset))
    assert _fields(iss.from_parts(points, progressions)) == _fields(ref)


@pytest.mark.parametrize("points, progressions, message", [
    ([-1], [], "indices must be nonnegative"),
    ([], [(0, 1)], "stride must be at least 1"),
    ([], [(2, -1)], "offset must be nonnegative"),
])
def test_from_parts_rejects_an_invalid_part(points, progressions, message):
    with pytest.raises(ValueError, match=message):
        iss.from_parts(points, progressions)


def test_period_cap_holds_for_from_parts_and_combine():
    with qrepeat.settings(period_cap=10):
        with pytest.raises(PeriodCapExceeded, match="combined period 35 exceeds cap 10"):
            iss.from_parts([1], [(7, 0), (5, 3)])
        with pytest.raises(PeriodCapExceeded, match="combined period 35 exceeds cap 10"):
            iss._combine(IndexSet.from_progression(7, 0), IndexSet.from_progression(5, 0))
        assert iss.from_parts([1], [(2, 0), (5, 3)]).period == 10


# Counted, not timed: folding the support progression by progression made
# one union, so one _combine, per term (209 here).
def test_support_set_builds_without_combining(monkeypatch):
    op = oa.projector(IndexSet.from_progression(210, 0).complement())
    calls = []
    inner = iss._combine

    def counted(a, b):
        calls.append(None)
        return inner(a, b)

    monkeypatch.setattr(iss, "_combine", counted)
    assert op.support_set() == IndexSet.from_progression(210, 0).complement()
    assert op.range_set() == op.support_set()
    assert calls == []
