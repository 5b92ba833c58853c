"""Exact algebra of eventually periodic subsets of the nonnegative integers.

An :class:`IndexSet` stores a finite transient region next to a periodic
tail, both as Python int bitmasks: bit ``i`` of the transient mask tells
whether ``i < bound`` is a member, and bit ``r`` of the residue mask
whether the indices ``i >= bound`` with ``i % period == r`` are.  Every
Boolean operation is closed on this class and decidable.  Both operands are
lifted to the larger bound and the lcm period, which multiplies a residue
mask by a repunit (ones spaced one period apart), and are then combined by
one ``|``, ``&`` or ``& ~``.  Instances are kept canonical (minimal period
first, then minimal bound), so field equality coincides with extensional
equality.

:func:`from_parts` builds the union of given points and ``(stride,
offset)`` progressions in one pass, ORing each straight into the masks
instead of folding unions.  The active period cap of :mod:`qrepeat.config`
bounds every period built: the lcm of the two periods of a Boolean
operation, and the lcm of the strides passed to :func:`from_parts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import current
from .errors import PeriodCapExceeded

_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class IndexSet:
    """Subset of the nonnegative integers with an eventually periodic tail.

    Membership of ``i < bound`` is bit ``i`` of the transient mask;
    membership of ``i >= bound`` depends only on ``i % period``, as bit
    ``i % period`` of the residue mask.  ``transient`` and ``residues``
    read the masks back as frozensets.  A union of points and progressions
    is built in one pass by :func:`from_parts`, which holds the lcm of the
    strides passed to it to the active period cap.
    """

    _tmask: int
    bound: int
    period: int
    _rmask: int

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
        _fill(self, *_canonicalize(_mask([i for i in transient if i < bound]), bound,
                                   period, _mask(list(residues))))

    @classmethod
    def _trusted(cls, tmask: int, bound: int, period: int, rmask: int) -> "IndexSet":
        """Set from masks already known to be canonical."""
        s = object.__new__(cls)
        _fill(s, tmask, bound, period, rmask)
        return s

    @property
    def transient(self) -> frozenset[int]:
        return frozenset(_bits(self._tmask))

    @property
    def residues(self) -> frozenset[int]:
        return frozenset(_bits(self._rmask))

    # -- constructors ------------------------------------------------

    @staticmethod
    def empty() -> "IndexSet":
        return IndexSet._trusted(0, 0, 1, 0)

    @staticmethod
    def full() -> "IndexSet":
        return IndexSet._trusted(0, 0, 1, 1)

    @staticmethod
    def from_indices(indices: Iterable[int]) -> "IndexSet":
        return from_parts(indices, ())

    @staticmethod
    def from_progression(stride: int, offset: int) -> "IndexSet":
        """The set ``{stride*j + offset : j >= 0}``."""
        return from_parts((), ((stride, offset),))

    # -- queries -----------------------------------------------------

    def member(self, i: int) -> bool:
        if i < 0:
            return False
        if i < self.bound:
            return bool(self._tmask >> i & 1)
        return bool(self._rmask >> (i % self.period) & 1)

    __contains__ = member

    @property
    def is_empty(self) -> bool:
        return not self._tmask and not self._rmask

    @property
    def is_finite(self) -> bool:
        return not self._rmask

    def members_below(self, limit: int) -> Iterator[int]:
        """Members below ``limit``, ascending: the set bits of the lifted transient mask."""
        return _bits(_lift_transient(self, max(limit, self.bound)) & ((1 << max(limit, 0)) - 1))

    def first(self) -> int | None:
        """Smallest member, or None for the empty set."""
        if self._tmask:  # every transient member lies below every tail member
            return _low_bit(self._tmask)
        if self._rmask:
            # rotate the residues so that bit 0 stands for the bound's residue
            p, k = self.period, self.bound % self.period
            rot = (self._rmask >> k) | (self._rmask << (p - k))
            return self.bound + _low_bit(rot)
        return None

    def tail_progressions(self) -> list[tuple[int, int]]:
        """The periodic tail as ``(stride, offset)`` progressions, by residue."""
        return [(self.period, self.bound + ((r - self.bound) % self.period))
                for r in _bits(self._rmask)]

    # -- algebra -----------------------------------------------------

    def union(self, other: "IndexSet") -> "IndexSet":
        ta, ra, tb, rb, bound, period = _combine(self, other)
        return IndexSet._trusted(*_canonicalize(ta | tb, bound, period, ra | rb))

    def intersect(self, other: "IndexSet") -> "IndexSet":
        ta, ra, tb, rb, bound, period = _combine(self, other)
        return IndexSet._trusted(*_canonicalize(ta & tb, bound, period, ra & rb))

    def difference(self, other: "IndexSet") -> "IndexSet":
        ta, ra, tb, rb, bound, period = _combine(self, other)
        return IndexSet._trusted(*_canonicalize(ta & ~tb, bound, period, ra & ~rb))

    def complement(self) -> "IndexSet":
        # Flipping every bit keeps the residues' shift invariance and every
        # disagreement between transient and tail, so the result is canonical.
        return IndexSet._trusted(~self._tmask & ((1 << self.bound) - 1), self.bound,
                                 self.period, ~self._rmask & ((1 << self.period) - 1))

    def is_subset(self, other: "IndexSet") -> bool:
        ta, ra, tb, rb, _, _ = _combine(self, other)
        return not (ta & ~tb or ra & ~rb)

    def is_disjoint(self, other: "IndexSet") -> bool:
        ta, ra, tb, rb, _, _ = _combine(self, other)
        return not (ta & tb or ra & rb)

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def __repr__(self) -> str:
        return (f"IndexSet(transient={sorted(self.transient)}, bound={self.bound}, "
                f"period={self.period}, residues={sorted(self.residues)})")


def from_parts(points: Iterable[int], progressions: Iterable[tuple[int, int]]) -> IndexSet:
    """The union of the ``points`` and the progressions ``{stride*j + offset :
    j >= 0}``, built at once rather than as a fold of unions.

    Its tail has the lcm of the strides as period, which must not exceed the
    active period cap; its bound is the highest point plus one or the highest
    offset.  With those known, each part is ORed straight into the masks: a
    point's bit and a progression's members below the bound into the
    transient mask, and the progression's residue bit, lifted to the lcm,
    into the residue mask.  One canonicalization follows.
    """
    points = [int(i) for i in points]
    if any(i < 0 for i in points):
        raise ValueError("indices must be nonnegative")
    tmask, bound = _mask(points), max(points, default=-1) + 1
    progressions = [(int(stride), int(offset)) for stride, offset in progressions]
    period = 1
    for stride, offset in progressions:
        if stride < 1:
            raise ValueError("stride must be at least 1")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        period = math.lcm(period, stride)
        _check_cap(period)
        bound = max(bound, offset)
    rmask = 0
    for stride, offset in progressions:
        rmask |= (1 << offset % stride) * _repunit(period // stride, stride)
        if offset < bound:
            tmask |= _repunit(-(-(bound - offset) // stride), stride) << offset
    return IndexSet._trusted(*_canonicalize(tmask, bound, period, rmask))


def _combine(a: IndexSet, b: IndexSet) -> tuple[int, int, int, int, int, int]:
    """Both sets' masks lifted to a common bound and period:
    ``(a transient, a residues, b transient, b residues, bound, period)``."""
    period = math.lcm(a.period, b.period)
    _check_cap(period)
    bound = max(a.bound, b.bound)
    return (_lift_transient(a, bound), a._rmask * _repunit(period // a.period, a.period),
            _lift_transient(b, bound), b._rmask * _repunit(period // b.period, b.period),
            bound, period)


def _check_cap(period: int) -> None:
    cap = current().period_cap
    if period > cap:
        raise PeriodCapExceeded(f"combined period {period} exceeds cap {cap}")


def _lift_transient(s: IndexSet, bound: int) -> int:
    """Members of ``s`` below ``bound >= s.bound`` as a mask."""
    if bound == s.bound:
        return s._tmask
    return s._tmask | (_tail_below(s._rmask, s.period, bound) >> s.bound << s.bound)


def _tail_below(rmask: int, period: int, bound: int) -> int:
    """Indices below ``bound`` whose residue mod ``period`` is in ``rmask``."""
    return rmask * _repunit(-(-bound // period), period) & ((1 << bound) - 1)


def _repunit(count: int, step: int) -> int:
    """``count`` one bits spaced ``step`` apart, from bit 0, in linear time."""
    ones, n = 1, 1
    while n < count:
        ones |= ones << n * step
        n *= 2
    return ones >> (n - count) * step


def _canonicalize(tmask: int, bound: int, period: int, rmask: int) -> tuple[int, int, int, int]:
    """Canonical ``(transient mask, bound, period, residue mask)``.

    The shifts that leave the residues invariant are the multiples of their
    least period, which divides ``period``.  So dividing ``period`` by each
    of its prime factors, as long as a rotation by the quotient ``q`` leaves
    the residue mask unchanged (the mask is then its low ``q`` bits times a
    repunit), ends there.  The least bound is one past the highest index
    below the bound where the transient mask disagrees with the tail.
    """
    n = period
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left of n is prime
        if n % p == 0:
            while n % p == 0:
                n //= p
            while period % p == 0:
                q = period // p
                low = rmask & ((1 << q) - 1)
                if rmask != low * _repunit(p, q):
                    break
                period, rmask = q, low
        p += 1
    if bound:
        bound = (tmask ^ _tail_below(rmask, period, bound)).bit_length()
        tmask &= (1 << bound) - 1
    return tmask, bound, period, rmask


def _fill(s: IndexSet, tmask: int, bound: int, period: int, rmask: int) -> None:
    _setattr(s, "_tmask", tmask)
    _setattr(s, "bound", bound)
    _setattr(s, "period", period)
    _setattr(s, "_rmask", rmask)


def _mask(indices: list[int]) -> int:
    """Bit ``i`` set for each ``i >= 0`` in ``indices``, filled byte by byte."""
    buf = bytearray(max(indices, default=-1) // 8 + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits, ascending, in one scan of the binary digits."""
    digits = bin(mask)[:1:-1]  # least significant first, without the "0b"
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _low_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1
