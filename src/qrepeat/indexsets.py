"""Exact algebra of eventually periodic subsets of the nonnegative integers.

An :class:`IndexSet` stores a finite transient region next to a periodic
tail.  Every Boolean operation is closed on this class and decidable, and
instances are kept canonical (minimal period first, then minimal bound), so
field equality coincides with extensional equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import PeriodCapExceeded

PERIOD_CAP = 10**6


def set_period_cap(value: int) -> None:
    """Raise or lower the global period guard (mostly for the CLI)."""
    global PERIOD_CAP
    if value < 1:
        raise ValueError("period cap must be positive")
    PERIOD_CAP = int(value)


@dataclass(frozen=True)
class IndexSet:
    """Subset of the nonnegative integers with an eventually periodic tail.

    Membership of ``i < bound`` is looked up in ``transient``; membership of
    ``i >= bound`` depends only on ``i % period`` via ``residues``.
    """

    transient: frozenset[int]
    bound: int
    period: int
    residues: frozenset[int]

    def __init__(self, transient: Iterable[int] = (), bound: int = 0,
                 period: int = 1, residues: Iterable[int] = ()):
        transient = frozenset(int(i) for i in transient)
        bound = int(bound)
        period = int(period)
        residues = frozenset(int(r) for r in residues)
        if period < 1:
            raise ValueError("period must be at least 1")
        if bound < 0:
            raise ValueError("bound must be nonnegative")
        if any(i < 0 for i in transient):
            raise ValueError("transient indices must be nonnegative")
        if any(not 0 <= r < period for r in residues):
            raise ValueError("residues must lie in [0, period)")
        # Tolerate transient entries at or past the bound as long as they
        # agree with the periodic tail; a disagreement is a contradiction.
        for i in sorted(transient):
            if i >= bound and (i % period) not in residues:
                raise ValueError(f"transient index {i} contradicts the periodic tail")
        transient = frozenset(i for i in transient if i < bound)
        tr, b, p, rs = _canonicalize(transient, bound, period, residues)
        object.__setattr__(self, "transient", tr)
        object.__setattr__(self, "bound", b)
        object.__setattr__(self, "period", p)
        object.__setattr__(self, "residues", rs)

    # -- constructors ------------------------------------------------

    @staticmethod
    def empty() -> "IndexSet":
        return IndexSet()

    @staticmethod
    def full() -> "IndexSet":
        return IndexSet(residues=(0,))

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "IndexSet":
        idx = frozenset(int(i) for i in indices)
        if not idx:
            return IndexSet.empty()
        return IndexSet(transient=idx, bound=max(idx) + 1)

    @staticmethod
    def from_progression(stride: int, offset: int) -> "IndexSet":
        """The set ``{stride*j + offset : j >= 0}``."""
        if stride < 1:
            raise ValueError("stride must be at least 1")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        return IndexSet(bound=offset, period=stride, residues=(offset % stride,))

    # -- queries -----------------------------------------------------

    def member(self, i: int) -> bool:
        if i < 0:
            return False
        if i < self.bound:
            return i in self.transient
        return (i % self.period) in self.residues

    __contains__ = member

    @property
    def is_empty(self) -> bool:
        return not self.transient and not self.residues

    @property
    def is_finite(self) -> bool:
        return not self.residues

    def members_below(self, limit: int) -> Iterator[int]:
        return (i for i in range(limit) if self.member(i))

    def first(self) -> int | None:
        """Smallest member, or None for the empty set."""
        if self.transient:
            lo = min(self.transient)
        else:
            lo = None
        if self.residues:
            tail = min(self.bound + ((r - self.bound) % self.period) for r in self.residues)
            lo = tail if lo is None else min(lo, tail)
        return lo

    def tail_progressions(self) -> list[tuple[int, int]]:
        """The periodic tail as a list of ``(stride, offset)`` progressions."""
        out = []
        for r in sorted(self.residues):
            offset = self.bound + ((r - self.bound) % self.period)
            out.append((self.period, offset))
        return out

    # -- algebra -----------------------------------------------------

    def union(self, other: "IndexSet") -> "IndexSet":
        return _combine(self, other, lambda a, b: a or b)

    def intersect(self, other: "IndexSet") -> "IndexSet":
        return _combine(self, other, lambda a, b: a and b)

    def difference(self, other: "IndexSet") -> "IndexSet":
        return _combine(self, other, lambda a, b: a and not b)

    def complement(self) -> "IndexSet":
        transient = frozenset(i for i in range(self.bound) if i not in self.transient)
        residues = frozenset(r for r in range(self.period) if r not in self.residues)
        return IndexSet(transient, self.bound, self.period, residues)

    def is_subset(self, other: "IndexSet") -> bool:
        return self.difference(other).is_empty

    def is_disjoint(self, other: "IndexSet") -> bool:
        return self.intersect(other).is_empty

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def __repr__(self) -> str:
        return (f"IndexSet(transient={sorted(self.transient)}, bound={self.bound}, "
                f"period={self.period}, residues={sorted(self.residues)})")


def _canonicalize(transient, bound, period, residues):
    # Minimal period: membership past the bound must factor through i % d.
    period = _min_period(period, residues)
    residues = frozenset(r for r in residues if r < period)
    # Minimal bound: pull the boundary down while the transient region
    # agrees with what the tail predicts.
    transient = set(transient)
    while bound > 0:
        prev = bound - 1
        if (prev in transient) != ((prev % period) in residues):
            break
        transient.discard(prev)
        bound = prev
    return frozenset(transient), bound, period, frozenset(residues)


def _min_period(period: int, residues: frozenset[int]) -> int:
    """Least period of ``residues`` as a subset of the integers mod ``period``.

    The shifts that leave the set invariant are the multiples of its least
    period, which divides ``period``.  So dividing ``period`` by each of its
    prime factors, as long as the quotient is still such a shift, ends there.
    """
    d = n = period
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left of n is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            while d % p == 0 and {(r + d // p) % period for r in residues} == residues:
                d //= p
        p += 1
    return d


def _combine(a: IndexSet, b: IndexSet, fn) -> IndexSet:
    period = math.lcm(a.period, b.period)
    if period > PERIOD_CAP:
        raise PeriodCapExceeded(
            f"combined period {period} exceeds cap {PERIOD_CAP}")
    bound = max(a.bound, b.bound)
    transient = frozenset(i for i in range(bound) if fn(a.member(i), b.member(i)))
    residues = frozenset(
        r for r in range(period)
        if fn((r % a.period) in a.residues, (r % b.period) in b.residues))
    return IndexSet(transient, bound, period, residues)
