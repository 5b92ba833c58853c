"""Shared test utilities: an independent dense renderer, reference
implementations and strategies.

The renderer enumerates term entries directly and is deliberately kept
separate from the library's own windowing code, so the two implementations
cross-check each other.  ``RefIndexSet`` is the index-set algebra on
frozensets, residue by residue, that the bitmask ``IndexSet`` must match.
``ref_certify_repeatable`` and ``ref_check_orthogonal`` decide every fact
over all ordered pairs of outcomes, mirrored adjoint pairs included.
``ref_compose`` is the dict join that ``compose``'s dense point kernel must
match bit for bit.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

import qrepeat.cli as cli
import qrepeat.opalgebra as oa
from qrepeat import (DegenerateState, Dyad, Family, IndexSet, StateVector,
                     StructuredOperator, build_example_family,
                     make_instrument, memory_map, read_memory, settings)
from qrepeat.certify import (CertificationReport, OutcomeChecks, PairChecks,
                             Witness)
from qrepeat.config import current


def dense(op, dim):
    m = np.zeros((dim, dim), dtype=complex)
    for t in op.terms:
        j = 0
        while ((t.length is None or j < t.length)
               and t.out_stride * j + t.out_offset < dim
               and t.in_stride * j + t.in_offset < dim):
            m[t.out_stride * j + t.out_offset,
              t.in_stride * j + t.in_offset] += t.coeff
            j += 1
    return m


def dense_vec(psi, dim):
    v = np.zeros(dim, dtype=complex)
    for i, amp in psi.items():
        if i < dim:
            v[i] = amp
    return v


def realize(s, limit):
    """Membership set below ``limit``, via member() alone."""
    return {i for i in range(limit) if s.member(i)}


def agreement_window(*sets):
    """Index below which two eventually periodic sets must be compared to
    conclude anything: past every bound the union is periodic with the lcm."""
    bound = max(s.bound for s in sets)
    period = math.lcm(*(s.period for s in sets))
    return bound + 2 * period


@st.composite
def index_sets(draw):
    period = draw(st.integers(min_value=1, max_value=6))
    residues = draw(st.frozensets(st.integers(0, period - 1), max_size=period))
    bound = draw(st.integers(min_value=0, max_value=12))
    transient = draw(st.frozensets(st.integers(0, bound - 1), max_size=8)) if bound else frozenset()
    return IndexSet(transient, bound, period, residues)


def near_complete_instrument():
    """The example family with one coefficient 1e-8 short of completeness:
    repeatable at tolerance 1e-6, not at 1e-12."""
    doc = cli.instrument_doc(build_example_family(2, (0.5, 0.5)))
    doc["outcomes"][0]["terms"][0]["coeff"][0] -= 1e-8
    return cli.instrument_from_doc(doc, check_completeness=False)


def no_repeatable_form_instruments():
    """Instruments whose POVMs have no repeatable instrument: ``{I/2, I/2}``,
    where no effect has eigenvalue 1, and ``{|0><0|/2 + |1><1|,
    |0><0|/2 + sum_{j>=2} |j><j|}``, whose first outcome has a nonzero
    degenerate part but a finite 1-eigenspace."""
    half = math.sqrt(0.5)
    return {
        "half": make_instrument({1: StructuredOperator((Family(half, 1, 0, 1, 0),)),
                                 2: StructuredOperator((Family(half, 1, 0, 1, 0),))}),
        "finite_z": make_instrument({1: StructuredOperator((Dyad(half, 0, 0), Dyad(1.0, 1, 1))),
                                     2: StructuredOperator((Dyad(half, 0, 0),
                                                            Family(1.0, 1, 2, 1, 2)))}),
    }


# Two points in one column, far from the origin: a 2x1 block of norm
# 0.8*sqrt(2) > 1.
NORM_DEFECT = StructuredOperator((Dyad(0.8, 1000, 1000), Dyad(0.8, 1001, 1000)))

# Operators whose norm is not decided exactly: a Toeplitz pair of
# progressions, which is not monomial, and a dense 2x2 block with a point on
# the head row of its identity tail.
UNDECIDED_NORMS = {
    "toeplitz": StructuredOperator((Family(0.5, 1, 0, 1, 0), Family(0.5, 1, 1, 1, 0))),
    "tail_head_row": StructuredOperator((Dyad(0.5, 0, 0), Dyad(0.5, 0, 1), Dyad(0.5, 1, 0),
                                         Dyad(-0.5, 1, 1), Family(1.0, 1, 2, 1, 2),
                                         Dyad(0.5, 2, 0))),
}


# -- reference index sets -------------------------------------------------------
# Index-set algebra in its first, plain form: frozensets of transient
# indices and residues, every Boolean operation evaluated index by index
# below the bound and residue by residue below the lcm period.  The bitmask
# IndexSet must produce the same canonical fields.


@dataclass(frozen=True)
class RefIndexSet:
    transient: frozenset
    bound: int
    period: int
    residues: frozenset

    def __init__(self, transient=(), bound=0, period=1, residues=()):
        transient = frozenset(i for i in transient if i < bound)
        tr, b, p, rs = _ref_canonicalize(transient, bound, period, frozenset(residues))
        object.__setattr__(self, "transient", tr)
        object.__setattr__(self, "bound", b)
        object.__setattr__(self, "period", p)
        object.__setattr__(self, "residues", rs)

    @staticmethod
    def from_indices(indices):
        idx = frozenset(indices)
        return RefIndexSet(idx, max(idx) + 1) if idx else RefIndexSet()

    @staticmethod
    def from_progression(stride, offset):
        return RefIndexSet((), offset, stride, (offset % stride,))

    def member(self, i):
        if i < 0:
            return False
        if i < self.bound:
            return i in self.transient
        return (i % self.period) in self.residues

    def first(self):
        cands = list(self.transient)
        cands += [self.bound + ((r - self.bound) % self.period) for r in self.residues]
        return min(cands, default=None)

    def tail_progressions(self):
        return [(self.period, self.bound + ((r - self.bound) % self.period))
                for r in sorted(self.residues)]

    def union(self, other):
        return _ref_combine(self, other, lambda a, b: a or b)

    def intersect(self, other):
        return _ref_combine(self, other, lambda a, b: a and b)

    def difference(self, other):
        return _ref_combine(self, other, lambda a, b: a and not b)

    def complement(self):
        return RefIndexSet((i for i in range(self.bound) if i not in self.transient),
                           self.bound, self.period,
                           (r for r in range(self.period) if r not in self.residues))

    def is_subset(self, other):
        d = self.difference(other)
        return not d.transient and not d.residues

    def is_disjoint(self, other):
        d = self.intersect(other)
        return not d.transient and not d.residues


def _ref_canonicalize(transient, bound, period, residues):
    d = n = period
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            while n % p == 0:
                n //= p
            while d % p == 0 and {(r + d // p) % period for r in residues} == residues:
                d //= p
        p += 1
    residues = frozenset(r for r in residues if r < d)
    transient = set(transient)
    while bound > 0 and ((bound - 1) in transient) == (((bound - 1) % d) in residues):
        bound -= 1
        transient.discard(bound)
    return frozenset(transient), bound, d, residues


def _ref_combine(a, b, fn):
    period = math.lcm(a.period, b.period)
    bound = max(a.bound, b.bound)
    return RefIndexSet(
        (i for i in range(bound) if fn(a.member(i), b.member(i))), bound, period,
        (r for r in range(period)
         if fn((r % a.period) in a.residues, (r % b.period) in b.residues)))


_coeffs = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def operators(draw, max_index=6, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(_coeffs)
        if abs(c) < 1e-9:
            continue
        if draw(st.booleans()):
            terms.append(Dyad(c, draw(st.integers(0, max_index)),
                              draw(st.integers(0, max_index))))
        else:
            terms.append(Family(c,
                                draw(st.integers(1, 3)), draw(st.integers(0, max_index)),
                                draw(st.integers(1, 3)), draw(st.integers(0, max_index))))
    return StructuredOperator(tuple(terms))


@st.composite
def dense_blocks(draw, max_dim=6):
    """A d x d block of points, d <= max_dim, with an optional identity tail
    ``Family(1, 1, d, 1, d)`` and an optional point on its boundary (its head
    or the step before it)."""
    d = draw(st.integers(1, max_dim))
    terms = [Dyad(draw(_coeffs), i, j) for i in range(d) for j in range(d)]
    if draw(st.booleans()):
        terms.append(Family(1.0, 1, d, 1, d))
        if draw(st.booleans()):
            k = draw(st.sampled_from([d - 1, d]))
            terms.append(Dyad(draw(st.sampled_from([1.0, -1.0]) | _coeffs), k, k))
    return StructuredOperator(tuple(terms))


@st.composite
def point_products(draw):
    """``(a, b)``: two rectangular point blocks on drawn row, inner and
    column offsets, so their inner index sets may overlap only in part or
    not at all.  Half the draws are 8 to 14 wide with at most a tenth of
    their entries dropped (zeros), dense enough for the kernel; the rest
    are up to 12 wide with up to 70 % dropped.  Each block spans
    magnitudes from 1e-8 to 1e8 and may hold an exact cancellation: ``a``'s column
    ``k2`` is minus its column ``k1`` and ``b``'s row ``k2`` equals its row
    ``k1``.  Either factor may carry an identity tail just past its block,
    with a point on the tail's head or the step before it."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):  # dense enough for the kernel
        m, k, n = (draw(st.integers(8, 14)) for _ in range(3))
        zeros = draw(st.sampled_from([0.0, 0.1]))
    else:
        m, k, n = (draw(st.integers(1, 12)) for _ in range(3))
        zeros = draw(st.sampled_from([0.0, 0.3, 0.7]))
    row0, ka0, kb0, col0 = (draw(st.integers(0, 8)) for _ in range(4))

    def block(rows, cols):
        mags = 10.0 ** rng.uniform(-8, 8, size=(rows, cols))
        vals = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) * mags
        vals[rng.random((rows, cols)) < zeros] = 0
        return vals

    a, b = block(m, k), block(k, n)
    if k >= 2 and draw(st.booleans()):
        k1, k2 = rng.choice(k, size=2, replace=False)
        a[:, k2] = -a[:, k1]
        b[k2] = b[k1]

    def op(vals, r0, c0):
        terms = [Dyad(complex(vals[i, j]), r0 + i, c0 + j)
                 for i in range(vals.shape[0]) for j in range(vals.shape[1]) if vals[i, j]]
        if draw(st.booleans()):
            t = max(r0 + vals.shape[0], c0 + vals.shape[1])
            terms.append(Family(1.0, 1, t, 1, t))
            if draw(st.booleans()):
                p = draw(st.sampled_from([t - 1, t]))
                terms.append(Dyad(draw(st.sampled_from([1.0, -1.0]) | _coeffs), p, p))
        return StructuredOperator(terms)

    return op(a, row0, ka0), op(b, kb0, col0)


def ref_compose(a, b):
    """``a @ b`` by the dict join alone: ``b``'s points keyed by output
    index and its progressions by output stride and residue, each
    coefficient summed in the order of the all-pairs product.  Point sums
    start at ``0j``, which up to CPython 3.13 gives the bits of ``0.0``."""
    nprog = sum(1 for t in b.terms if t.length is None)
    progs = {}
    for idx, t in enumerate(b.terms[:nprog]):
        progs.setdefault(t.out_stride, {}).setdefault(t.out_offset % t.out_stride, []).append(idx)
    points = b.terms[nprog:]
    points_at = {}
    for t in points:
        points_at.setdefault(t.out_offset, []).append((t.in_offset, t.coeff))

    fams, dyds = {}, {}
    for ta in a.terms:
        ca, ai, ao = ta.coeff, ta.in_offset, ta.out_offset
        if ta.length == 1:
            hits = sorted(idx for stride, group in progs.items()
                          for idx in group.get(ai % stride, ()))
            for idx in hits:
                tb = b.terms[idx]
                d = ai - tb.out_offset
                if d >= 0:
                    key = (ao, tb.in_stride * (d // tb.out_stride) + tb.in_offset)
                    dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
            for bi, cb in points_at.get(ai, ()):
                key = (ao, bi)
                dyds[key] = dyds.get(key, 0j) + ca * cb
            continue
        s1, os_ = ta.in_stride, ta.out_stride
        for idx in sorted(oa._meeting(progs, s1, ai)):
            p = oa._compose_terms(ta, b.terms[idx])
            sig = p[1:5]
            fams[sig] = fams.get(sig, 0.0) + p[0]
        for tb in points:
            d = tb.out_offset - ai
            if d >= 0 and d % s1 == 0:
                key = (os_ * (d // s1) + ao, tb.in_offset)
                dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
    return StructuredOperator._canonical(oa._finish(fams, dyds, current().tolerance))


@st.composite
def states(draw, max_index=12):
    amps = draw(st.dictionaries(st.integers(0, max_index), _coeffs,
                                min_size=1, max_size=6))
    amps = {i: a for i, a in amps.items() if abs(a) > 1e-9}
    if not amps:
        amps = {0: 1.0}
    return StateVector(amps)


# -- reference Born sampler ---------------------------------------------------
# The sampling algorithm in its first, plain form: every image and every
# normalized state goes through the validating StateVector constructor, the
# probabilities take one apply per outcome, and the chosen post-state a
# second apply.  The library's one-pass, memoized path must match it bit
# for bit under the same seeding contract.


def ref_apply(op, psi):
    out = {}
    for i, c in psi.items():
        for t in op.terms:
            d = i - t.in_offset
            if d >= 0 and d % t.in_stride == 0:
                j = d // t.in_stride
                if t.length is None or j < t.length:
                    r = t.out_stride * j + t.out_offset
                    out[r] = out.get(r, 0.0) + t.coeff * c
    return StateVector(out)


def ref_normalized(psi):
    n = math.sqrt(psi.norm_sq())
    return StateVector({i: c / n for i, c in psi.items()})


def ref_select(inst, psi, u, tol):
    probs = {label: ref_apply(op, psi).norm_sq() for label, op in inst.items()}
    total = sum(probs.values())
    if total <= tol:
        raise DegenerateState("every outcome probability vanished")
    target = u * total
    acc = 0.0
    labels = inst.outcomes
    for label in labels:
        acc += probs[label]
        if target < acc:
            break
    else:
        label = labels[-1]
    return label, probs[label], ref_normalized(ref_apply(inst.operator(label), psi))


def ref_conditionals(inst, state_sampler, trajectories, seed, tol=1e-12):
    """``(first_counts, counts, selections)``, the selections in call order."""
    first_counts, counts, selections = {}, {}, []
    for k in range(trajectories):
        rng = np.random.default_rng([seed, k])
        psi = ref_normalized(state_sampler(rng))
        e, pe, phi = ref_select(inst, psi, float(rng.random()), tol)
        f, pf, post = ref_select(inst, phi, float(rng.random()), tol)
        selections += [(e, pe, phi), (f, pf, post)]
        first_counts[e] = first_counts.get(e, 0) + 1
        counts[(e, f)] = counts.get((e, f), 0) + 1
    return first_counts, counts, selections


def ref_trajectory(inst, psi, steps, seed, tol=1e-12):
    """``(outcome, probability, post_state, memory)`` per step."""
    with settings(tolerance=tol):
        decomps = memory_map(inst)
        rng = np.random.default_rng(seed)
        state = ref_normalized(psi)
        record = []
        for _ in range(steps):
            label, prob, state = ref_select(inst, state, float(rng.random()), tol)
            reading = None
            if decomps.get(label) is not None:
                reading = read_memory(decomps[label], state)
                if reading is not None:
                    reading = dataclasses.replace(reading, outcome=label)
            record.append((label, prob, state, reading))
    return record


def bits(label, prob, state):
    """A selection as exact bits: label, probability and every amplitude,
    signed zeros included, through ``float.hex``."""
    return (label, prob.hex(),
            tuple((i, c.real.hex(), c.imag.hex()) for i, c in state.items()))


def reading_bits(reading):
    if reading is None:
        return None
    return (reading.outcome, reading.orbit_id, reading.depth,
            tuple((d, p.hex()) for d, p in reading.distribution))


# -- reference certification --------------------------------------------------
# Certification in its all-ordered-pairs form: every effect product
# ``P_e P_f`` and every range product ``M_f* M_e`` is composed in both
# orders, and ``M_e*`` is rebuilt at each use.  The library decides each
# adjoint pair once and must report the same fields and witnesses.


def ref_check_orthogonal(pv):
    for e, pe in pv.items():
        for f, pf in pv.items():
            expected = pf if e == f else StructuredOperator.zero()
            if not oa.equals(oa.compose(pe, pf), expected):
                return False
    return True


def ref_certify_repeatable(inst, tol=1e-12):
    witnesses = []
    pv = inst.povm()
    dev, pos = pv.identity_deviation()
    complete = dev <= tol
    if not complete:
        witnesses.append(Witness("completeness", pos, dev))
    per_outcome = {}
    for label, op in inst.items():
        dev, pos = oa.max_deviation(oa.compose(oa.adjoint(op), oa.compose(op, op)), op)
        if dev > tol:
            witnesses.append(Witness(f"isometry on range ({label!r})", pos, dev))
        ris = op.range_set().is_subset(op.support_set()) if oa.is_monomial(op) else None
        per_outcome[label] = OutcomeChecks(dev <= tol, ris)
    zero = StructuredOperator.zero()
    per_pair = {}
    for e, op_e in inst.items():
        for f, op_f in inst.items():
            if e == f:
                continue
            dev, pos = oa.max_deviation(oa.compose(op_f, op_e), zero)
            if dev > tol:
                witnesses.append(Witness(f"annihilation ({f!r} after {e!r})", pos, dev))
            rdev, _ = oa.max_deviation(oa.compose(oa.adjoint(op_f), op_e), zero)
            per_pair[(e, f)] = PairChecks(dev <= tol, rdev <= tol)
    repeatable = complete and all(c.isometric_on_range for c in per_outcome.values()) \
        and all(c.product_vanishes for c in per_pair.values())
    return CertificationReport(repeatable, ref_check_orthogonal(pv), complete,
                               per_outcome, per_pair, tuple(witnesses))


@st.composite
def partitions(draw):
    """Up to three disjoint index sets and the complement of their union."""
    parts, union = [], IndexSet.empty()
    for _ in range(draw(st.integers(1, 3))):
        s = draw(index_sets()).difference(union)
        parts.append(s)
        union = union.union(s)
    return parts + [union.complement()]
