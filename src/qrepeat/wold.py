"""Shift/deposit splitting and orbit decomposition of partial isometries.

A monomial partial isometry with one unimodular term per support column,
whose families all translate along their own progression, acts on basis
indices as an injective partial map sigma.  That premise is checked up
front on the pairs that opalgebra's term index lists, which sigma reads too;
of what follows from it, only the orbit inventory's cover of the support is
verified at run time.  The orbit structure is computed exactly:
forward walks from generator indices become unilateral shift orbits,
translation-free pieces form a fixed domain, and whatever remains splits
into finite cycles, periodic families of cycles, and bilateral chains.  The
shift orbits carry the repetition counter: the depth of a basis index
inside its orbit counts how many times the measurement has acted since the
state entered the orbit.

A walk has no length cap; it ends by the premise alone.  Sigma is
injective, so a walk visits pairwise distinct indices and crosses each
point at most once.  Between point crossings the key (family, index mod L)
takes finitely many values, and a revisit of a key at a higher index
proves the walk has become translation-periodic, because the whole segment
between the two visits shifts upward unchanged.  Revisits at lower indices
form strictly decreasing chains, which are finite.  L is the strides' lcm,
which ``period_cap`` bounds when the support and range are built, so the
cap on periods is the one bound on the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import opalgebra as oa
from .config import check_period, current
from .errors import (NotIsometricOnSupport, QRepeatError, SplitInvariantViolation,
                     UnsupportedForm)
from .indexsets import IndexSet, from_parts
from .opalgebra import StateVector, StructuredOperator


# -- splitting M = V + W ----------------------------------------------------


@dataclass(frozen=True)
class SplitParts:
    """Shift block ``v`` (columns inside the range) and deposit block ``w``."""

    v: StructuredOperator
    w: StructuredOperator


def split(m: StructuredOperator) -> SplitParts:
    """Split a monomial operator into its shift and deposit blocks.

    Columns whose input index already lies in the range of ``m`` form
    ``v``; the remaining support columns form ``w``.  For operators coming
    from a repeatable instrument ``v`` is a partial isometry and the blocks
    have orthogonal ranges; violations are reported with the failing
    condition and deviation, which is the standard symptom of feeding in a
    non-repeatable operator.
    """
    tol = current().tolerance
    if not oa.is_monomial(m):
        raise UnsupportedForm("splitting requires at most one entry per column")
    v = oa.compose(m, oa.projector(m.range_set()))
    w = m + v.scale(-1.0)

    def check(cond: str, a: StructuredOperator, b: StructuredOperator):
        dev, _ = oa.max_deviation(a, b)
        if dev > tol:
            raise SplitInvariantViolation(
                f"{cond}: deviation {dev:.3g}", condition=cond, deviation=dev)

    vd = oa.adjoint(v)
    gram = oa.compose(vd, v)
    check("shift block squares to itself", oa.compose(gram, gram), gram)
    # V* W = 0 exactly when its adjoint W* V = 0, so one order decides both
    check("deposit range is orthogonal to the shift range",
          oa.compose(vd, w), StructuredOperator.zero())
    return SplitParts(v, w)


# -- orbit bookkeeping -------------------------------------------------------


@dataclass(frozen=True)
class ShiftOrbit:
    """Forward orbit of one generator index.

    The orbit visits ``prefix`` first, then cycles through ``phases``
    shifted upward by ``step`` per revolution: the index at depth
    ``len(prefix) + r*len(phases) + k`` is ``phases[k] + r*step``.
    """

    generator: int
    prefix: tuple[int, ...]
    phases: tuple[int, ...]
    step: int

    def depth_of(self, index: int) -> int | None:
        """Number of steps from the generator, or None when outside."""
        if index in self.prefix:
            return self.prefix.index(index)
        # the phases are pairwise incongruent mod step, so one matches at most
        for k, p in enumerate(self.phases):
            if index >= p and (index - p) % self.step == 0:
                return len(self.prefix) + (index - p) // self.step * len(self.phases) + k
        return None

    def index_at(self, depth: int) -> int:
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth < len(self.prefix):
            return self.prefix[depth]
        d = depth - len(self.prefix)
        r, k = divmod(d, len(self.phases))
        return self.phases[k] + r * self.step

    def index_set(self) -> IndexSet:
        return from_parts(self.prefix, [(self.step, p) for p in self.phases])


@dataclass(frozen=True)
class CycleFamily:
    """Infinitely many congruent cycles: ``offsets + j*step`` for every j >= 0."""

    offsets: tuple[int, ...]
    step: int

    def index_set(self) -> IndexSet:
        return from_parts((), [(self.step, off) for off in self.offsets])


@dataclass(frozen=True)
class BilateralOrbit:
    """Orbit with no generator, unbounded in both directions.

    Read forward, the orbit descends through ``descending_phases`` shifted
    by ``descending_step`` per revolution, crosses the finite ``core``, and
    climbs away through ``ascending_phases``.
    """

    descending_phases: tuple[int, ...]
    descending_step: int
    core: tuple[int, ...]
    ascending_phases: tuple[int, ...]
    ascending_step: int

    def index_set(self) -> IndexSet:
        return from_parts(self.core,
                          [(self.descending_step, p) for p in self.descending_phases]
                          + [(self.ascending_step, p) for p in self.ascending_phases])


@dataclass(frozen=True)
class WoldDecomposition:
    """Exact unitary/shift splitting ``v = u + s`` with its orbit inventory."""

    u: StructuredOperator
    s: StructuredOperator
    shift_orbits: tuple[ShiftOrbit, ...]
    cycles: tuple[tuple[int, ...], ...]
    cycle_families: tuple[CycleFamily, ...]
    bilateral_orbits: tuple[BilateralOrbit, ...]
    fixed_domain: IndexSet
    unitary_domain: IndexSet
    shift_domain: IndexSet


# -- the index map sigma -----------------------------------------------------


def _lookup(keyed, i: int) -> int:
    """Position of the first of ``keyed``'s terms taking input ``i``, as its
    term index lists them."""
    return oa._holding(keyed[1], i)[0]


def _walk(keyed, start: int, modulus: int):
    """Follow sigma from ``start`` until the orbit closes or turns periodic.

    Every term's strides agree (a point's are 1), so sigma translates each
    input by its term's ``out_offset - in_offset``.  Sigma is injective, so
    only ``start`` can come back.  Returns ("cycle", indices) or
    ("ray", prefix, phases, step).
    """
    terms = keyed[0]
    seq = [start]
    seen: dict[tuple[int, int], int] = {}
    while True:
        i = seq[-1]
        n = _lookup(keyed, i)
        t = terms[n]
        if t.length is None:
            key = (n, i % modulus)
            at = seen.get(key)
            if at is not None and seq[at] < i:
                return "ray", tuple(seq[:at]), tuple(seq[at:-1]), i - seq[at]
            seen[key] = len(seq) - 1
        else:
            seen.clear()
        nxt = i + t.out_offset - t.in_offset
        if nxt == start:
            return "cycle", tuple(seq)
        seq.append(nxt)


# -- decomposition -----------------------------------------------------------


def _validate(v: StructuredOperator, tol: float) -> tuple[IndexSet, IndexSet]:
    if not all(agree for _, _, agree in oa._meeting_pairs(v.terms, outputs=True)):
        raise NotIsometricOnSupport(
            "columns share output rows, so the squared modulus is not a projector")
    for t in v.terms:
        if t.out_stride != t.in_stride:
            raise UnsupportedForm(
                "a family changes stride, so its orbits are not eventually arithmetic")
        if abs(abs(t.coeff) - 1.0) > tol:
            raise NotIsometricOnSupport(
                f"column amplitude {abs(t.coeff):.6g} differs from 1")
    rng, support = v.range_set(), v.support_set()
    if not rng.is_subset(support):
        raise UnsupportedForm(
            "the range leaves the support, so forward orbits are not total")
    # one term per column: the checks above hold per entry.  Name the least
    # column that the first term to share one shares with the terms before it
    shared = min(((n, first) for n, first, _ in oa._meeting_pairs(v.terms)), default=None)
    if shared is not None:
        raise NotIsometricOnSupport(f"two terms share column {shared[1]}")
    return support, rng


def wold_decompose(v: StructuredOperator) -> WoldDecomposition:
    """Split a partial isometry into unitary and unilateral-shift blocks.

    Requires a monomial, co-monomial operator with one unimodular term per
    support column, families that translate along their own progressions,
    and a range inside the support.  Forward walks from the finitely many generator
    indices (support minus range) yield the shift orbits; the rest of the
    support carries the unitary block, inventoried as a fixed domain, finite
    cycles, periodic cycle families, and bilateral chains.

    Range inside support and an injective sigma make sigma permute the
    residue classes of the periodic tail, so the generators are finite and
    the tail residues permute; a generator lies outside the range, so its
    walk never closes; the preimage of a leftover index is leftover, so the
    backward walk is total.  With ``u + s = v``, ``u``'s unitarity and the
    orbits' disjointness, all of this follows from the premise.  The one
    fact verified at run time is the inventory's cover of the support.
    """
    support, rng = _validate(v, current().tolerance)

    fixed_parts, active = [], []
    for t in v.terms:
        if t.length is None and t.out_offset == t.in_offset:
            fixed_parts.append((t.in_stride, t.in_offset))
        else:
            active.append(t)
    fixed = from_parts((), fixed_parts)
    adjoints = [t.adjoint() for t in active]
    forward, backward = (active, oa._term_index(active)), (adjoints, oa._term_index(adjoints))
    modulus = math.lcm(*(t.in_stride for t in active))

    generators = support.difference(rng)
    orbits: list[ShiftOrbit] = []
    shift_domain = IndexSet.empty()
    for g in generators.members_below(generators.bound):
        _, prefix, phases, step = _walk(forward, g, modulus)
        orbit = ShiftOrbit(g, prefix, phases, step)
        orbits.append(orbit)
        shift_domain = shift_domain.union(orbit.index_set())

    # everything else is recurrent: cycles, cycle families, bilateral chains
    leftover = support.difference(fixed).difference(shift_domain)
    horizon = max([leftover.bound, 1]
                  + [t.in_offset + t.in_stride for t in active]
                  + [t.out_offset + 1 for t in active if t.length == 1])
    cycles: list[tuple[int, ...]] = []
    bilaterals: list[BilateralOrbit] = []
    claimed = IndexSet.empty()
    for q in leftover.members_below(horizon):
        if q in claimed:
            continue
        kind, *rest = _walk(forward, q, modulus)
        if kind == "cycle":
            cycles.append(rest[0])
            claimed = claimed.union(IndexSet.from_indices(rest[0]))
            continue
        fprefix, fphases, fstep = rest
        _, bprefix, bphases, bstep = _walk(backward, q, modulus)
        back = tuple(reversed(bprefix))
        core = back + fprefix[1:] if back and fprefix else back + fprefix
        orbit = BilateralOrbit(bphases, bstep, core, fphases, fstep)
        bilaterals.append(orbit)
        claimed = claimed.union(orbit.index_set())

    cycle_families = _tail_cycle_families(leftover, forward, modulus, horizon)

    covered = fixed.union(shift_domain).union(claimed)
    for cf in cycle_families:
        covered = covered.union(cf.index_set())
    if covered != support:
        raise RuntimeError("orbit inventory fails to cover the support")

    unitary_domain = support.difference(shift_domain)
    s_op = oa.compose(v, oa.projector(shift_domain))
    u_op = oa.compose(v, oa.projector(unitary_domain))
    return WoldDecomposition(u_op, s_op, tuple(orbits), tuple(cycles),
                             tuple(cycle_families), tuple(bilaterals),
                             fixed, unitary_domain, shift_domain)


def _tail_cycle_families(leftover: IndexSet, forward, modulus: int,
                         horizon: int) -> tuple[CycleFamily, ...]:
    """Cycle families hiding in the periodic tail of the recurrent region.

    Beyond the horizon the index map is a pure residue translation, so the
    residue classes mod lcm(modulus, period) permute; a residue cycle with
    zero net lift spawns one congruent basis-index cycle per period step.
    Classes with nonzero lift belong to bilateral chains, which were
    already discovered by the explicit walks below the horizon.
    """
    tail = leftover.tail_progressions()
    if not tail:
        return ()
    lam = check_period(math.lcm(modulus, leftover.period),
                       "orbit residue analysis needs period {period} beyond the cap")
    residues = set()
    for p, off in tail:
        for k in range(lam // p):
            residues.add((off + k * p) % lam)
    families: list[CycleFamily] = []
    done: set[int] = set()
    for r0 in sorted(residues):
        if r0 in done:
            continue
        r, lift, deltas = r0, 0, []
        while True:
            done.add(r)
            deltas.append(lift)
            rep = horizon + ((r - horizon) % lam)
            owner = forward[0][_lookup(forward, rep)]
            shift = owner.out_offset - owner.in_offset
            lift += shift
            r = (r + shift) % lam
            if r == r0:
                break
        if lift == 0:
            start = horizon - min(deltas)
            base = start + ((r0 - start) % lam)
            families.append(CycleFamily(tuple(base + d for d in deltas), lam))
    return tuple(families)


# -- memory readout ----------------------------------------------------------


@dataclass(frozen=True)
class MemoryReading:
    """Shift-orbit position of a state, the repetition counter.

    ``depth`` is set when the state occupies a single depth; superpositions
    across depths leave it None and report the full ``distribution`` as
    (depth, probability) pairs.  ``outcome`` is filled in by trajectory
    code; a bare readout leaves it None.
    """

    outcome: object
    orbit_id: int
    depth: int | None
    distribution: tuple[tuple[int, float], ...]

    def as_dict(self) -> dict[int, float]:
        return dict(self.distribution)


def read_memory(decomp: WoldDecomposition, psi: StateVector) -> MemoryReading | None:
    """Locate a state inside the shift orbits, or None when that is undefined.

    The readout is defined when every occupied basis index lies in one and
    the same shift orbit; touching the unitary domain or straddling two
    orbits returns None.
    """
    tol = current().tolerance
    total = psi.norm_sq()
    if total <= tol:
        return None
    orbit: ShiftOrbit | None = None
    weights: dict[int, float] = {}
    for i, amp in psi.items():
        prob = (amp.real * amp.real + amp.imag * amp.imag) / total
        if prob <= tol:
            continue
        for here in decomp.shift_orbits:  # the orbits are disjoint
            depth = here.depth_of(i)
            if depth is not None:
                break
        else:
            return None
        if orbit is None:
            orbit = here
        elif here.generator != orbit.generator:
            return None
        weights[depth] = weights.get(depth, 0.0) + prob
    if orbit is None:
        return None
    dist = tuple(sorted(weights.items()))
    return MemoryReading(None, orbit.generator,
                         dist[0][0] if len(dist) == 1 else None, dist)


def outcome_decompositions(inst):
    """``(label, parts, decomposition, reason)`` per outcome; ``reason`` is the message
    of the QRepeatError that makes it unsupported (the other two None), else None."""
    for label, op in inst.items():
        try:
            parts = split(op)
            dec = wold_decompose(parts.v)
        except QRepeatError as e:
            yield label, None, None, str(e)
        else:
            yield label, parts, dec, None


def memory_map(inst):
    """Per-outcome decompositions for instruments that support them.

    Unsupported outcomes map to None instead of raising, so trajectory code
    can attach readings when they exist and stay silent when they do not.
    """
    return {label: dec for label, _, dec, _ in outcome_decompositions(inst)}
