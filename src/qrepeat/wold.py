"""Shift/deposit splitting and orbit decomposition of partial isometries.

A monomial partial isometry with one unimodular term per support column,
whose families all translate along their own progression, acts on basis
indices as an injective partial map sigma.  That premise is checked up
front; of what follows from it, only the orbit inventory's cover of the
support is verified at run time.  The orbit structure is computed exactly:
forward walks from generator indices become unilateral shift orbits,
translation-free pieces form a fixed domain, and whatever remains splits
into finite cycles, periodic families of cycles, and bilateral chains.  The
shift orbits carry the repetition counter: the depth of a basis index
inside its orbit counts how many times the measurement has acted since the
state entered the orbit.

Walk termination rests on two facts.  Forward orbits visit pairwise
distinct indices, so each dyad is crossed at most once; and between dyad
crossings a revisit of the same (family, index mod L) key at a higher
index proves the walk has become translation-periodic, because the whole
segment between the two visits shifts upward unchanged.  Revisits at lower
indices form strictly decreasing chains, which are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import opalgebra as oa
from .config import current
from .errors import (NotIsometricOnSupport, PeriodCapExceeded, QRepeatError,
                     SplitInvariantViolation, UnsupportedForm)
from .indexsets import IndexSet, from_parts
from .opalgebra import StateVector, StructuredOperator

_WALK_CAP = 500_000


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


def _keyed(terms: list[oa.Term]):
    """``terms`` with their positions keyed by input, for ``_lookup``."""
    return (terms, *oa._inputs_keyed(terms))


def _lookup(keyed, i: int) -> tuple[int, int] | None:
    """Position of the first term taking input ``i``, and the step it is at;
    only the terms of ``i``'s point or residue class are tried."""
    terms, progs, points_at = keyed
    for n in sorted(points_at.get(i, [])
                    + [n for s, group in progs.items() for n in group.get(i % s, ())]):
        j = terms[n].step_at(i)
        if j is not None:
            return n, j
    return None


def _walk(keyed, start: int, modulus: int):
    """Follow sigma from ``start`` until the orbit closes or turns periodic.

    Returns ("cycle", indices) or ("ray", prefix, phases, step).
    """
    terms = keyed[0]
    seq = [start]
    visited = {start}
    seen: dict[tuple[int, int], int] = {}
    while len(seq) <= _WALK_CAP:
        i = seq[-1]
        hit = _lookup(keyed, i)
        if hit is None:
            raise RuntimeError(f"index map is not total at {i}")
        n, j = hit
        t = terms[n]
        if t.length is None:
            key = (n, i % modulus)
            at = seen.get(key)
            if at is not None and seq[at] < i:
                return "ray", tuple(seq[:at]), tuple(seq[at:-1]), i - seq[at]
            seen[key] = len(seq) - 1
        else:
            seen.clear()
        nxt = t.out_stride * j + t.out_offset
        if nxt == start:
            return "cycle", tuple(seq)
        if nxt in visited:
            raise RuntimeError("orbit walk revisited an interior index")
        seq.append(nxt)
        visited.add(nxt)
    raise RuntimeError("orbit walk exceeded the safety cap")


# -- decomposition -----------------------------------------------------------


def _validate(v: StructuredOperator, tol: float) -> tuple[IndexSet, IndexSet]:
    # the transposed terms need no canonical form: is_monomial reads any list
    if not oa.is_monomial(StructuredOperator._canonical(tuple(t.adjoint() for t in v.terms))):
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
    columns = IndexSet.empty()  # one term per column: the checks above hold per entry
    for t in v.terms:
        cols = from_parts((t.in_offset,), ()) if t.length == 1 \
            else from_parts((), ((t.in_stride, t.in_offset),))
        if not columns.is_disjoint(cols):
            raise NotIsometricOnSupport(
                f"two terms share column {columns.intersect(cols).first()}")
        columns = columns.union(cols)
    return support, rng


def wold_decompose(v: StructuredOperator) -> WoldDecomposition:
    """Split a partial isometry into unitary and unilateral-shift blocks.

    Requires a monomial, co-monomial operator with one unimodular term per
    support column, families that translate along their own progressions,
    and a range inside the support.  Forward walks from the finitely many generator
    indices (support minus range) yield the shift orbits; the rest of the
    support carries the unitary block, inventoried as a fixed domain, finite
    cycles, periodic cycle families, and bilateral chains.  ``u + s = v``,
    ``u``'s unitarity and the orbits' disjointness follow from the premise;
    only the inventory's cover of the support is verified.
    """
    support, rng = _validate(v, current().tolerance)

    fixed_parts, active = [], []
    for t in v.terms:
        if t.length is None and t.out_offset == t.in_offset:
            fixed_parts.append((t.in_stride, t.in_offset))
        else:
            active.append(t)
    fixed = from_parts((), fixed_parts)
    forward, backward = _keyed(active), _keyed([t.adjoint() for t in active])
    modulus = math.lcm(*(t.in_stride for t in active))

    generators = support.difference(rng)
    if not generators.is_finite:
        raise RuntimeError("generator set is infinite despite range inclusion")
    orbits: list[ShiftOrbit] = []
    shift_domain = IndexSet.empty()
    for g in generators.members_below(generators.bound):
        kind, *rest = _walk(forward, g, modulus)
        if kind != "ray":
            raise RuntimeError("a generator orbit closed into a cycle")
        prefix, phases, step = rest
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
        bkind, *brest = _walk(backward, q, modulus)
        if bkind != "ray":
            raise RuntimeError("backward walk closed a cycle the forward walk missed")
        bprefix, bphases, bstep = brest
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
    lam = math.lcm(modulus, leftover.period)
    if lam > current().period_cap:
        raise PeriodCapExceeded(
            f"orbit residue analysis needs period {lam} beyond the cap")
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
            hit = _lookup(forward, rep)
            if hit is None:
                raise RuntimeError(f"tail index {rep} has no owning family")
            owner, j = forward[0][hit[0]], hit[1]
            shift = owner.out_stride * j + owner.out_offset - rep
            lift += shift
            r = (r + shift) % lam
            if r == r0:
                break
            if r not in residues or r in done:
                raise RuntimeError("tail residues do not permute cleanly")
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


def memory_map(inst):
    """Per-outcome decompositions for instruments that support them.

    Outcomes that ``qrepeat wold`` reports unsupported (any QRepeatError
    from splitting or decomposing) map to None instead of raising, so
    trajectory code can attach readings when they exist and stay silent
    when they do not.
    """
    out = {}
    for label, op in inst.items():
        try:
            parts = split(op)
            out[label] = wold_decompose(parts.v)
        except QRepeatError:
            out[label] = None
    return out
