"""Shared test utilities: an independent dense renderer, reference
implementations and strategies.

The renderer enumerates term entries directly and is deliberately kept
separate from the library's own windowing code, so the two implementations
cross-check each other.  ``RefIndexSet`` is the index-set algebra on
frozensets, residue by residue, that the bitmask ``IndexSet`` must match.
``ref_certify_repeatable`` and ``ref_check_orthogonal`` decide every fact
over all ordered pairs of outcomes, mirrored adjoint pairs included.
``ref_compose`` is the dict join that ``compose``'s dense point kernel must
match bit for bit, and ``ref_adjoint`` the canonicalizing adjoint that the
re-sorting ``adjoint`` must match bit for bit.  ``ref_shared_column`` folds
one ``IndexSet`` per term, the one-term-per-column check that ``wold``'s
keyed check must match.  ``ref_finish`` absorbs one point per pass over a
fresh index of every family, the rule that ``_finish``'s single index must
keep term for term and bit for bit.
"""

import cmath
import dataclasses
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from hypothesis import strategies as st

import qrepeat.cli as cli
import qrepeat.opalgebra as oa
from qrepeat import (DegenerateState, Dyad, Family, IndexSet, Povm, StateVector,
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


def step_at(t, i):
    """The ``j`` whose input index under term ``t`` is ``i``, or None."""
    j, rem = divmod(i - t.in_offset, t.in_stride)
    if rem or j < 0 or (t.length is not None and j >= t.length):
        return None
    return j


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


# A complete instrument (outcome 1's point |2><0| sits on a row of its
# progression), so operator_norm cannot split outcome 1, but completeness
# bounds it; not repeatable.
_R = 1 / math.sqrt(2)
POINT_ON_TAIL = {
    1: StructuredOperator((Dyad(0.5, 0, 0), Dyad(0.5, 2, 0), Dyad(1.0, 1, 1),
                           Family(_R, 1, 2, 1, 2))),
    2: StructuredOperator((Dyad(0.5, 0, 0), Dyad(-0.5, 2, 0), Family(_R, 1, 2, 1, 2))),
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
        meeting = [idx for s, group in progs.items() for r, idxs in group.items()
                   if r % math.gcd(s1, s) == ai % math.gcd(s1, s) for idx in idxs]
        for idx in sorted(meeting):
            p = oa._compose_terms(ta, b.terms[idx])
            sig = p[1:5]
            fams[sig] = fams.get(sig, 0.0) + p[0]
        for tb in points:
            d = tb.out_offset - ai
            if d >= 0 and d % s1 == 0:
                key = (os_ * (d // s1) + ao, tb.in_offset)
                dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
    return StructuredOperator._canonical(oa._finish(fams, dyds, current().tolerance))


def ref_adjoint(op):
    """The adjoint canonicalized from scratch: every term flipped, then
    merged, filtered, absorbed and sorted as any new operator is."""
    return StructuredOperator([t.adjoint() for t in op.terms])


def ref_parse(doc, where):
    """The operator at ``where`` by the term path: each term summed as the
    parser sums it, then the whole table finished by ``_finish``."""
    fams, dyds = {}, {}
    for k, t in enumerate(doc):
        cli._add_term(t, where, k, fams, dyds)
    return StructuredOperator._canonical(oa._finish(fams, dyds, current().tolerance))


def ref_followers(firsts, seconds):
    """``_followers`` read from the terms: every term of ``seconds`` keyed by
    input in one term index, and the rows and output progressions of each
    operator of ``firsts`` read from its terms."""
    terms = [t for op in seconds for t in op.terms]
    owner = [k for k, op in enumerate(seconds) for _ in op.terms]
    progs, points, starts = oa._term_index(terms)
    owners = {i: {owner[n] for n in ns} for i, ns in points.items()}
    index = (progs, {}, starts)
    follows = []
    for op in firsts:
        hits = set()
        for i in {t.out_offset for t in op.terms if t.length == 1}:
            hits.update(owners.get(i, ()))
            hits.update(owner[n] for n in oa._holding(index, i))
        for s, o in {(t.out_stride, t.out_offset) for t in op.terms if t.length is None}:
            hits.update(k for i, ks in owners.items() if i >= o and (i - o) % s == 0 for k in ks)
            hits.update(owner[n] for n in oa._meeting(index, s, o))
        follows.append(hits)
    return follows


def ref_is_monomial(op):
    """``is_monomial`` decided on the terms alone."""
    return all(agree for _, _, agree in oa._meeting_pairs(op.terms))


def _dense_parts(rng, d, zeros):
    """Real and imaginary parts of a ``d x d`` block spanning 1e-14 to 1e6,
    with a fraction ``zeros`` of the parts set to a zero of either sign."""
    parts = rng.standard_normal((2, d, d)) * 10.0 ** rng.uniform(-14, 6, size=(2, d, d))
    signed = np.copysign(0.0, rng.choice([1.0, -1.0], size=parts.shape))
    return np.where(rng.random(parts.shape) < zeros, signed, parts)


@st.composite
def dense_docs(draw):
    """Term documents of one outcome around a dense ``d x d`` point block,
    d from 6 to 12, at drawn row and column offsets, in a drawn order, so
    some draws pay for the dense kernel and some do not.  Parts may be
    zeros of either sign; some positions are given twice, the second time
    as the same or the negated coefficient (an exact zero sum); one pair
    of entries may be about 1e308, so that their sum or its modulus
    overflows; an identity tail just past the block may carry a point on
    its head or the step before it, which the tail absorbs; and one term
    may be malformed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([6, 8, 8, 10, 12]))
    r0, c0 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    parts = _dense_parts(rng, d, draw(st.sampled_from([0.0, 0.2])))

    def dyad(re, im, out, in_):
        return {"kind": "dyad", "coeff": [float(re), float(im)], "out": out, "in": in_}

    terms = [dyad(parts[0, i, j], parts[1, i, j], r0 + i, c0 + j)
             for i in range(d) for j in range(d)]
    for k in rng.choice(len(terms), size=draw(st.integers(0, 3)), replace=False):
        re, im = terms[k]["coeff"]
        sign = draw(st.sampled_from([1.0, -1.0]))
        terms.append(dyad(sign * re, sign * im, terms[k]["out"], terms[k]["in"]))
    big = draw(st.sampled_from([None] * 6 + [(1e308, 0.0), (1.5e308, 1.5e308)]))
    if big is not None:
        k = int(rng.integers(len(terms)))
        terms[k] = dyad(*big, terms[k]["out"], terms[k]["in"])
        if big[1] == 0.0:  # a second one at the same position: the sum is inf
            terms.append(dict(terms[k]))
    terms = [terms[k] for k in rng.permutation(len(terms))]
    if draw(st.booleans()):
        t = max(r0, c0) + d
        terms.append({"kind": "family", "coeff": [1.0, 0.0], "outStride": 1, "outOffset": t,
                      "inStride": 1, "inOffset": t})
        if draw(st.booleans()):
            p = draw(st.sampled_from([t - 1, t]))
            terms.append(dyad(1.0 if p < t else -1.0, 0.0, p, p))
    if draw(st.sampled_from([False] * 9 + [True])):
        terms.insert(int(rng.integers(len(terms) + 1)),
                     draw(st.sampled_from([dyad(1.0, 0.0, -1, 0), {"kind": "dyad"}])))
    return terms


@st.composite
def block_sums(draw):
    """Summed coefficient tables ``(fams, dyds)`` for ``_from_sums``: a
    dense ``d x d`` point block, d from 6 to 12, at drawn offsets, its parts
    zeros of either sign at times (as no parsed sum holds before CPython
    3.14), and up to three progressions of stride 1-3 drawn around the
    block, which may hold its rows and columns, cross it or run along its
    diagonal."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([6, 8, 8, 10, 12]))
    r0, c0 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    parts = _dense_parts(rng, d, draw(st.sampled_from([0.0, 0.2])))
    dyds = {(r0 + i, c0 + j): complex(parts[0, i, j], parts[1, i, j])
            for i in range(d) for j in range(d) if parts[0, i, j] or parts[1, i, j]}
    fams = {}
    for _ in range(draw(st.integers(0, 3))):
        sig = (draw(st.integers(1, 3)), draw(st.integers(0, 16)),
               draw(st.integers(1, 3)), draw(st.integers(0, 16)))
        fams[sig] = draw(st.sampled_from([1.0, -1.0, 0.5j])
                         | _coeffs.filter(lambda c: abs(c) > 1e-3))
    return fams, dyds


def ref_shared_column(terms):
    """The least column that the first term to share one shares with the
    terms before it, or None: the union of the columns so far, folded one
    ``IndexSet`` per term."""
    columns = IndexSet.empty()
    for t in terms:
        cols = IndexSet.from_indices((t.in_offset,)) if t.length == 1 \
            else IndexSet.from_progression(t.in_stride, t.in_offset)
        if not columns.is_disjoint(cols):
            return columns.intersect(cols).first()
        columns = columns.union(cols)
    return None


def ref_finish(fams, dyds, tol):
    """Canonical terms from summed coefficients, absorbing one point per
    pass: each pass indexes every family afresh and absorbs the least point
    at a family head or one step before it that cancels the head or extends
    the family, trying its families in sorted order."""
    for c in chain(fams.values(), dyds.values()):
        if not cmath.isfinite(c):
            raise ValueError("coefficients must be finite")
    dyds = {k: c for k, c in dyds.items() if abs(c) > tol}
    fams = {k: c for k, c in fams.items() if abs(c) > tol}
    while _ref_absorb_one(fams, dyds, tol):
        pass
    out = [oa.Term._trusted(c, *sig, None) for sig, c in sorted(fams.items())]
    out.extend(oa.Term._trusted(c, 1, o, 1, i, 1) for (o, i), c in sorted(dyds.items()))
    return tuple(out)


def _ref_absorb_one(fams, dyds, tol):
    near = {}
    for sig in fams:
        os_, oo, is_, io = sig
        near.setdefault((oo, io), []).append(sig)
        if oo >= os_ and io >= is_:
            near.setdefault((oo - os_, io - is_), []).append(sig)
    for pos in sorted(near.keys() & dyds.keys()):
        c = dyds[pos]
        for sig in sorted(near[pos]):
            os_, oo, is_, io = sig
            cf = fams[sig]
            if pos == (oo, io) and abs(c + cf) <= tol:
                step = 1
            elif pos == (oo - os_, io - is_) and abs(c - cf) <= tol:
                step = -1
            else:
                continue
            del dyds[pos]
            del fams[sig]
            nsig = (os_, oo + step * os_, is_, io + step * is_)
            cf = fams.get(nsig, 0.0) + cf
            if abs(cf) > tol:
                fams[nsig] = cf
            elif nsig in fams:
                del fams[nsig]
            return True
    return False


@st.composite
def boundary_sums(draw):
    """Summed coefficient tables ``(fams, dyds)`` for ``_finish``: families
    of stride 1-3 and offset 0-6, points at each family's head and one or
    two steps to either side with a coefficient equal, opposite, half or
    within 1e-13 of the family's, and stray points."""
    fams, dyds = {}, {}
    for _ in range(draw(st.integers(0, 5))):
        os_, is_ = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        oo, io = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        cf = draw(st.sampled_from([1.0, -1.0, 0.5, 1j]) | _coeffs)
        fams[(os_, oo, is_, io)] = cf
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(-2, 2))
            pos = (oo + k * os_, io + k * is_)
            if min(pos) >= 0:
                dyds[pos] = draw(st.sampled_from([cf, -cf, cf / 2, cf + 1e-13, -cf - 1e-13j]))
    for _ in range(draw(st.integers(0, 3))):
        dyds[(draw(st.integers(0, 10)), draw(st.integers(0, 10)))] = draw(_coeffs)
    return fams, dyds


@st.composite
def loose_operators(draw):
    """An operator canonical at the default tolerance but not under 1e-6:
    terms of size about 1e-7 or 1e-9, and points within 1e-8 of cancelling
    a family head or of extending a family one step backward."""
    base = draw(operators())
    small = draw(operators()).scale(draw(st.sampled_from([1e-7, 1e-9])))
    terms = list(base.terms + small.terms)
    for t in base.families:
        eps = draw(st.sampled_from([1e-8, 1e-10, 1e-8j]))
        if draw(st.booleans()):
            terms.append(Dyad(eps - t.coeff, t.out_offset, t.in_offset))
        elif t.out_offset >= t.out_stride and t.in_offset >= t.in_stride:
            terms.append(Dyad(t.coeff + eps, t.out_offset - t.out_stride,
                              t.in_offset - t.in_stride))
    return StructuredOperator(terms)


_zero_part_coeffs = st.builds(lambda x, k: (complex(x, 0.0), complex(0.0, x), complex(x, x))[k],
                              st.floats(1e-6, 2.0) | st.floats(-2.0, -1e-6), st.integers(0, 2))


@st.composite
def signed_zero_operators(draw):
    """A canonical operator whose coefficients have zero real or imaginary
    parts, each zero's sign drawn.  Canonicalization stores ``0.0 + c``,
    which up to CPython 3.13 makes every zero part ``+0.0``; the drawn
    signs are put back on the canonical terms, so both signs reach
    ``adjoint`` on every version."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        c = draw(_zero_part_coeffs)
        if draw(st.booleans()):
            terms.append(Dyad(c, draw(st.integers(0, 6)), draw(st.integers(0, 6))))
        else:
            terms.append(Family(c, draw(st.integers(1, 3)), draw(st.integers(0, 6)),
                                draw(st.integers(1, 3)), draw(st.integers(0, 6))))
    return _resigned(draw, terms)


def _resigned(draw, terms):
    """The canonical operator of ``terms``, each zero part of a coefficient
    given a drawn sign."""
    signed = []
    for t in StructuredOperator(terms).terms:
        re, im = (math.copysign(0.0, draw(st.sampled_from([1.0, -1.0]))) if part == 0 else part
                  for part in (t.coeff.real, t.coeff.imag))
        signed.append(oa.Term._trusted(complex(re, im), t.out_stride, t.out_offset,
                                       t.in_stride, t.in_offset, t.length))
    return StructuredOperator._canonical(tuple(signed))


@st.composite
def crowded_operators(draw):
    """A non-monomial operator: two points in one column, two columns sent
    to one row, and up to three families, each started at a drawn step, that
    may cross them.  Some coefficients have a zero part, whose sign is
    drawn."""
    def coeff():
        return draw(_zero_part_coeffs | _coeffs.filter(lambda c: abs(c) > 1e-9))

    def index():
        return draw(st.integers(0, 6))

    col, row = index(), index()
    terms = [Dyad(coeff(), index(), col), Dyad(coeff(), index(), col),
             Dyad(coeff(), row, index()), Dyad(coeff(), row, index())]
    for _ in range(draw(st.integers(0, 3))):
        terms.append(Family(coeff(), draw(st.integers(1, 3)), index(),
                            draw(st.integers(1, 3)), index(), draw(st.integers(0, 2))))
    return _resigned(draw, terms)


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
# second apply.  The library's trajectories and its array selection in
# statistics batches must match it bit for bit under the same seeding
# contract.


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
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
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
    else:  # a compensated total (Python 3.12+) passed the running sum
        label = [lab for lab in labels if probs[lab] > 0][-1]
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
        dev, pos = oa.max_deviation(oa.compose(ref_adjoint(op), oa.compose(op, op)), op)
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
            rdev, _ = oa.max_deviation(oa.compose(ref_adjoint(op_f), op_e), zero)
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


# Weight vectors of a three-outcome diagonal POVM on one part of the basis:
# indicators make the part projective, exact binary fractions degenerate.
_DIAGONAL_WEIGHTS = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                     (0.5, 0.5, 0.0), (0.25, 0.25, 0.5), (0.0, 0.75, 0.25)]


@st.composite
def diagonal_povms(draw):
    """A three-outcome POVM, diagonal in the basis: each part of a drawn
    partition of the basis carries one weight vector."""
    terms = {1: [], 2: [], 3: []}
    for part in draw(partitions()):
        weights = draw(st.sampled_from(_DIAGONAL_WEIGHTS))
        for label, w in zip(terms, weights):
            if w:
                terms[label].extend(oa.projector(part).scale(w).terms)
    return Povm(tuple((label, StructuredOperator(ts)) for label, ts in terms.items()))


class ZeroNormalsFirst:
    """A generator seeded as ``np.random.default_rng(seed)`` whose first
    ``zeros`` calls of ``standard_normal`` give zeros without drawing."""

    def __init__(self, seed, zeros):
        self.rng, self.zeros = np.random.default_rng(seed), zeros

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def standard_normal(self, size):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(size)
        return self.rng.standard_normal(size)
