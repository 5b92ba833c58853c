"""Structured operators on l2 of the nonnegative integers.

An operator is a finite formal sum of terms of one type, :class:`Term`:
progressions ``c * sum_j |os*j+oo><is*j+io|`` that run for one step (a
point, the matrix unit ``c |oo><io|``) or for every ``j >= 0`` (a shift
family).  ``Dyad`` and ``Family`` are its two constructors, matching the
``dyad`` and ``family`` kinds of the instrument files.  The class is closed
under adjoint, sum, and composition, which makes completeness and
repeatability checks exact rather than truncation-limited.

Equality is decided on the terms.  Progressions with one primitive
direction and one invariant ``v*row - u*col`` lie on one geometric line,
and from the line's highest head on its own entries repeat with the lcm
of their row strides.  Entries change elsewhere only at points and at
crossings of non-parallel progressions, and a crossing is the one integer
solution of a 2x2 system.  So finitely many positions carry every value an
operator takes, and :func:`max_deviation` evaluates exactly those.

Coefficients and deviations at or below the active tolerance of
:mod:`qrepeat.config` count as zero, and line periods are held to its
period cap; ``with qrepeat.settings(...)`` sets both for a block.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import current
from .errors import PeriodCapExceeded, UnsupportedForm
from .indexsets import IndexSet, from_parts

_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Term:
    """``coeff * sum_{0 <= j < length} |out_stride*j + out_offset><in_stride*j + in_offset|``.

    ``length`` is 1, a point ``coeff |out_offset><in_offset|``, or None, an
    infinite progression family.  A point's strides carry nothing, so they
    are stored as 1 and equal points compare equal.
    """

    coeff: complex
    out_stride: int
    out_offset: int
    in_stride: int
    in_offset: int
    length: int | None

    # Written out rather than generated: adjoint builds a Term per term, and
    # the generated frozen __init__ costs about half as much again.
    def __init__(self, coeff: complex, out_stride: int, out_offset: int,
                 in_stride: int, in_offset: int, length: int | None = None):
        if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
            raise ValueError("coefficients must be finite")
        if length not in (1, None):
            raise ValueError("a term has length 1 (a point) or None (a progression)")
        if out_stride < 1 or in_stride < 1:
            raise ValueError("family strides must be at least 1; use a Dyad for stride-0 terms")
        if out_offset < 0 or in_offset < 0:
            raise ValueError("term indices must be nonnegative")
        if length == 1:
            out_stride = in_stride = 1
        _setattr(self, "coeff", coeff)
        _setattr(self, "out_stride", out_stride)
        _setattr(self, "out_offset", out_offset)
        _setattr(self, "in_stride", in_stride)
        _setattr(self, "in_offset", in_offset)
        _setattr(self, "length", length)

    @classmethod
    def _trusted(cls, coeff: complex, out_stride: int, out_offset: int,
                 in_stride: int, in_offset: int, length: int | None) -> "Term":
        """Term from fields already known to be valid: a finite coefficient,
        strides of at least 1 (1 for a point) and nonnegative offsets.
        Stored as given, through the slot descriptors, which skip the
        validating ``__init__`` and the frozen ``__setattr__``."""
        t = _new(cls)
        _set_coeff(t, coeff)
        _set_out_stride(t, out_stride)
        _set_out_offset(t, out_offset)
        _set_in_stride(t, in_stride)
        _set_in_offset(t, in_offset)
        _set_length(t, length)
        return t

    def step_at(self, i: int) -> int | None:
        """The ``j`` whose input index is ``i``, or None when ``i`` is not an input."""
        j, rem = divmod(i - self.in_offset, self.in_stride)
        if rem or j < 0 or (self.length is not None and j >= self.length):
            return None
        return j

    def adjoint(self) -> "Term":
        # swapping the fields of a valid term keeps it valid
        return Term._trusted(self.coeff.conjugate(), self.in_stride, self.in_offset,
                             self.out_stride, self.out_offset, self.length)


_new = object.__new__
(_set_coeff, _set_out_stride, _set_out_offset, _set_in_stride, _set_in_offset,
 _set_length) = (Term.__dict__[f].__set__ for f in Term.__slots__)


def Dyad(coeff: complex, out: int, in_: int) -> Term:
    """Point term ``coeff * |out><in_|``."""
    return Term(complex(coeff), 1, int(out), 1, int(in_), 1)


def Family(coeff: complex, out_stride: int, out_offset: int,
           in_stride: int, in_offset: int, j_start: int = 0) -> Term:
    """Progression ``coeff * sum_{j>=j_start} |out_stride*j+out_offset><in_stride*j+in_offset|``.

    A nonzero ``j_start`` is folded into the offsets.
    """
    if j_start < 0:
        raise ValueError("j_start must be nonnegative")
    return Term(complex(coeff),
                int(out_stride), int(out_offset) + int(j_start) * int(out_stride),
                int(in_stride), int(in_offset) + int(j_start) * int(in_stride))


class StructuredOperator:
    """Finite formal sum of terms, kept canonical.

    Canonicalization merges duplicate signatures, drops negligible
    coefficients, and absorbs points that exactly cancel a family head or
    extend a family one step backward.  None of these steps changes the
    entrywise realization.
    """

    __slots__ = ("terms", "_tol")  # _tol: the tolerance the terms are canonical under

    def __init__(self, terms: Iterable[Term] = ()):
        object.__setattr__(self, "_tol", current().tolerance)
        object.__setattr__(self, "terms", _canonicalize(terms, self._tol))

    @classmethod
    def _canonical(cls, terms: tuple[Term, ...]) -> "StructuredOperator":
        """Wrap terms, canonical under the active tolerance, as given.  Terms
        that are not canonical may go only to readers of any term list, such as
        ``max_deviation``, ``is_monomial`` and ``compose``'s left factor, not to ``adjoint``."""
        op = object.__new__(cls)
        object.__setattr__(op, "_tol", current().tolerance)
        object.__setattr__(op, "terms", terms)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("StructuredOperator is immutable")

    def __eq__(self, other):
        # syntactic identity of canonical forms; use equals() for a
        # tolerance-aware comparison
        if not isinstance(other, StructuredOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "StructuredOperator":
        return StructuredOperator()

    @staticmethod
    def identity() -> "StructuredOperator":
        return StructuredOperator([Family(1.0, 1, 0, 1, 0)])

    # -- structure queries ---------------------------------------------

    @property
    def dyads(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.length == 1)

    @property
    def families(self) -> tuple[Term, ...]:
        return tuple(t for t in self.terms if t.length is None)

    def is_zero(self) -> bool:
        return equals(self, StructuredOperator.zero())

    def support_set(self) -> IndexSet:
        """Input indices touched by some term (columns carrying entries)."""
        return _index_set((t.in_stride, t.in_offset, t.length) for t in self.terms)

    def range_set(self) -> IndexSet:
        """Output indices touched by some term (rows carrying entries)."""
        return _index_set((t.out_stride, t.out_offset, t.length) for t in self.terms)

    # -- algebra ---------------------------------------------------------

    def scale(self, factor: complex) -> "StructuredOperator":
        return StructuredOperator([_scaled(t, factor) for t in self.terms])

    def __add__(self, other: "StructuredOperator") -> "StructuredOperator":
        return add(self, other)

    def __sub__(self, other: "StructuredOperator") -> "StructuredOperator":
        return add(self, other.scale(-1.0))

    def __matmul__(self, other: "StructuredOperator") -> "StructuredOperator":
        return compose(self, other)

    def __mul__(self, factor: complex) -> "StructuredOperator":
        return self.scale(factor)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "StructuredOperator(0)"
        bits = [f"{t.coeff:.6g}|{t.out_offset}><{t.in_offset}|" if t.length == 1 else
                f"{t.coeff:.6g}*sum_j|{t.out_stride}j+{t.out_offset}><{t.in_stride}j+{t.in_offset}|"
                for t in self.terms]
        return "StructuredOperator(" + " + ".join(bits) + ")"


def _index_set(progressions) -> IndexSet:
    points, progs = [], []
    for stride, offset, length in progressions:
        if length == 1:
            points.append(offset)
        else:
            progs.append((stride, offset))
    return from_parts(points, progs)


def _scaled(t: Term, factor: complex) -> Term:
    return Term(t.coeff * factor, t.out_stride, t.out_offset, t.in_stride, t.in_offset, t.length)


def _canonicalize(terms: Iterable[Term], tol: float) -> tuple[Term, ...]:
    fams: dict[tuple[int, int, int, int], complex] = {}
    dyds: dict[tuple[int, int], complex] = {}
    for t in terms:
        if not isinstance(t, Term):
            raise TypeError(f"not a structured term: {t!r}")
        if t.length == 1:
            key = (t.out_offset, t.in_offset)
            dyds[key] = dyds.get(key, 0.0) + complex(t.coeff)
        else:
            sig = (t.out_stride, t.out_offset, t.in_stride, t.in_offset)
            fams[sig] = fams.get(sig, 0.0) + complex(t.coeff)
    return _finish(fams, dyds, tol)


def _finish(fams: dict[tuple[int, int, int, int], complex],
            dyds: dict[tuple[int, int], complex], tol: float) -> tuple[Term, ...]:
    """Canonical terms from summed coefficients.

    ``fams`` maps progression signatures ``(os, oo, is, io)`` and ``dyds``
    point positions ``(out, in)`` to their coefficient sums.  A sum that is
    not finite raises ValueError before the tolerance filter, which would
    drop a nan silently.  Sums within ``tol`` of zero are dropped, points on
    a family boundary are absorbed, and the progressions, then the points,
    are listed in sorted order.
    """
    for c in chain(fams.values(), dyds.values()):
        if not cmath.isfinite(c):
            raise ValueError("coefficients must be finite")
    dyds = {k: c for k, c in dyds.items() if abs(c) > tol}
    fams = {k: c for k, c in fams.items() if abs(c) > tol}
    while _absorb_one(fams, dyds, tol):  # each pass removes a point, so this ends
        pass
    out = [Term._trusted(c, *sig, None) for sig, c in sorted(fams.items())]
    out.extend(Term._trusted(c, 1, o, 1, i, 1) for (o, i), c in sorted(dyds.items()))
    return tuple(out)


def _absorb_one(fams: dict[tuple[int, int, int, int], complex],
                dyds: dict[tuple[int, int], complex], tol: float) -> bool:
    """Absorb the least point that cancels a family head or extends a family
    one step backward, trying its families in sorted order; False when none does.

    Only a point at a family head or one step before it can match, so only
    those points are tried.
    """
    near: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
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
                step = 1  # the point cancels the head; the family starts one step later
            elif pos == (oo - os_, io - is_) and abs(c - cf) <= tol:
                step = -1  # the point extends the family one step backward
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


# -- state vectors -------------------------------------------------------


class StateVector:
    """Finitely supported vector, stored as an index -> amplitude map.

    The public constructor coerces and validates every entry.  ``apply``
    and ``normalized`` build their results through :meth:`_trusted`, which
    skips the coercion and index checks because their indices and
    amplitudes come from a valid state, but still rejects non-finite
    amplitudes, drops zeros, sorts the indices and stores ``0.0 + c``, as
    the public constructor does.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        amp: dict[int, complex] = {}
        for i, c in items:
            i = int(i)
            c = complex(c)
            if not cmath.isfinite(c):
                raise ValueError("coefficients must be finite")
            if i < 0:
                raise ValueError("basis indices must be nonnegative")
            if c != 0:
                amp[i] = amp.get(i, 0.0) + c
        object.__setattr__(self, "_amp", {i: amp[i] for i in sorted(amp) if amp[i] != 0})

    @classmethod
    def _trusted(cls, amplitudes: dict[int, complex]) -> "StateVector":
        """State from a dict of nonnegative int indices to complex amplitudes,
        equal to the public constructor's result on such input.  Each
        amplitude is stored as ``0.0 + c``, so signed zeros come out as
        they do from the public constructor."""
        amp: dict[int, complex] = {}
        for i in sorted(amplitudes):
            c = 0.0 + amplitudes[i]
            if c:
                if not cmath.isfinite(c):
                    raise ValueError("coefficients must be finite")
                amp[i] = c
        vec = object.__new__(cls)
        _setattr(vec, "_amp", amp)
        return vec

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @staticmethod
    def basis(i: int) -> "StateVector":
        return StateVector({i: 1.0})

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(self._amp.items())

    def support(self) -> tuple[int, ...]:
        return tuple(self._amp)

    def norm_sq(self) -> float:
        return sum([abs(c) ** 2 for c in self._amp.values()])

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= current().tolerance

    def normalized(self) -> "StateVector":
        n = math.sqrt(self.norm_sq())
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector._trusted({i: c / n for i, c in self._amp.items()})

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c:.6g}" for i, c in self._amp.items())
        return f"StateVector({{{inner}}})"


def random_state(rng: np.random.Generator, max_index: int, max_support: int = 8) -> StateVector:
    """Normalized state with small uniform support and Gaussian amplitudes."""
    size = min(int(rng.integers(1, max_support + 1)), max_index)
    idx = rng.choice(max_index, size=size, replace=False)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    n = np.linalg.norm(amps)
    while n < 1e-9:  # absurdly unlikely, but keep the draw well defined
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        n = np.linalg.norm(amps)
    return StateVector._trusted({int(i): complex(a / n) for i, a in zip(idx, amps)})


# -- application and composition ----------------------------------------


def apply(op: StructuredOperator, psi: StateVector) -> StateVector:
    """Image of ``psi`` under ``op`` (not renormalized).

    The image is built with the trusted ``StateVector._trusted``, which
    keeps the finiteness check, the zero drop, the sorted indices and the
    ``0.0 + c`` rule of the public constructor.
    """
    out: dict[int, complex] = {}
    for i, c in psi.items():
        for t in op.terms:  # Term.step_at, inlined: this loop is the sampling hot path
            d = i - t.in_offset
            if d >= 0 and d % t.in_stride == 0:
                j = d // t.in_stride
                if t.length is None or j < t.length:
                    r = t.out_stride * j + t.out_offset
                    out[r] = out.get(r, 0.0) + t.coeff * c
    return StateVector._trusted(out)


def adjoint(op: StructuredOperator) -> StructuredOperator:
    """Adjoint of ``op``, canonicalized afresh unless ``op`` is canonical under
    the active tolerance.  Then the swap keeps signatures distinct and ``|c|``
    above the tolerance, and takes a family head (the step before one) to a
    head (the step before), so nothing merges, drops or is absorbed: the terms
    are only sorted back, each stored as ``0.0 + c`` as canonicalization does."""
    if op._tol != current().tolerance:
        return StructuredOperator([t.adjoint() for t in op.terms])
    return StructuredOperator._canonical(tuple(sorted(
        (Term._trusted(0.0 + t.coeff.conjugate(), t.in_stride, t.in_offset, t.out_stride,
                       t.out_offset, t.length) for t in op.terms),
        key=lambda t: (t.length == 1, t.out_stride, t.out_offset, t.in_stride, t.in_offset))))


def add(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    return StructuredOperator(a.terms + b.terms)


def _match_progressions(s1: int, o1: int, n1: int | None,
                        s2: int, o2: int, n2: int | None):
    """Solutions of ``s1*k + o1 == s2*j + o2`` with ``0 <= k < n1``, ``0 <= j < n2``.

    A length of None is unbounded.  Returns ``(k0, j0, kstep, jstep, n)``
    parametrizing all solutions as ``k = k0 + kstep*t, j = j0 + jstep*t``
    for ``0 <= t < n``, where ``n`` is 1 when either length is 1 and None
    otherwise; or None when there is no solution.
    """
    g = math.gcd(s1, s2)
    d = o2 - o1
    if d % g:
        return None
    m = s2 // g
    k0 = 0 if m == 1 else ((d // g) % m) * pow(s1 // g, -1, m) % m
    j0 = (s1 * k0 + o1 - o2) // s2
    kstep, jstep = s2 // g, s1 // g
    if j0 < 0:
        t = -(j0 // jstep)  # ceil(-j0 / jstep)
        k0 += kstep * t
        j0 += jstep * t
    if (n1 is not None and k0 >= n1) or (n2 is not None and j0 >= n2):
        return None
    return k0, j0, kstep, jstep, (None if n1 is None and n2 is None else 1)


def _compose_terms(a: Term, b: Term) -> tuple | None:
    """Fields ``(coeff, out_stride, out_offset, in_stride, in_offset, length)``
    of the product term ``a @ b``, or None when the two do not meet.  The
    coefficient is not checked: a product that overflows is caught by
    ``_finish`` once summed."""
    m = _match_progressions(a.in_stride, a.in_offset, a.length,
                            b.out_stride, b.out_offset, b.length)
    if m is None:
        return None
    k0, j0, kstep, jstep, n = m
    return (a.coeff * b.coeff,
            a.out_stride * kstep, a.out_stride * k0 + a.out_offset,
            b.in_stride * jstep, b.in_stride * j0 + b.in_offset, n)


def _meeting(progs: dict[int, dict[int, list[int]]], stride: int, offset: int) -> list[int]:
    """Indices in ``progs`` (stride -> residue -> term indices) of the
    progressions that meet ``{stride*j + offset}``: those whose residue
    agrees with ``offset`` modulo the gcd of the two strides."""
    hits = []
    for s, group in progs.items():
        g = math.gcd(stride, s)
        r0 = offset % g
        if len(group) < s // g:
            hits.extend(idx for r, idxs in group.items() if r % g == r0 for idx in idxs)
        else:
            hits.extend(idx for r in range(r0, s, g) for idx in group.get(r, ()))
    return hits


def _point_block(points: Iterable[Term]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct rows and columns of point terms with distinct
    positions, and the dense complex block holding each coefficient at its
    row and column."""
    out = np.array([t.out_offset for t in points])
    in_ = np.array([t.in_offset for t in points])
    rows, cols = np.unique(out), np.unique(in_)
    block = np.zeros((len(rows), len(cols)), dtype=complex)
    block[np.searchsorted(rows, out), np.searchsorted(cols, in_)] = [t.coeff for t in points]
    return rows, cols, block


def _on_progression(indices: Iterable[int], progressions: list[tuple[int, int]]) -> bool:
    """True when some index lies on some ``{stride*j + offset : j >= 0}``."""
    return any(i >= o and (i - o) % s == 0 for s, o in progressions for i in indices)


# The dense kernel pays only on dense point blocks.  It costs rows * inner
# * cols products however sparse the blocks are, where the join costs one
# multiply per matching pair: the sum over inner k of (a's points in
# column k) * (b's points in row k).  It runs when the matching pairs
# number at least _KERNEL_MIN_PAIRS and fill at least 1/_KERNEL_FILL of
# rows * inner * cols; _kernel_pays gives the timings behind both.
_KERNEL_MIN_PAIRS = 512
_KERNEL_FILL = 2
# Inner indices per step of the dense kernel: its two buffers hold
# (_K_CHUNK + 1) * rows * cols floats each, whatever the inner size.
_K_CHUNK = 8


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dense complex product ``a @ b``, with the bits of the dict join.

    Each entry is summed from ``0j`` one inner index at a time, in
    ascending order, and each product is formed as CPython forms a complex
    product, ``(ar*br - ai*bi) + i(ar*bi + ai*br)``; numpy's complex
    multiply and ``np.sum``'s pairwise order would change the last bits.
    The join's sums start at ``0j`` too, not at the float ``0.0``: from
    CPython 3.14, ``0.0 + z`` keeps the imaginary part of ``z`` as it is,
    so a product such as ``(-2+0j) * (-3+0j) = 6-0j`` would keep its
    ``-0.0`` there, where this kernel gives ``+0.0``.  A step of
    ``_K_CHUNK`` inner indices writes its products below the running sum,
    which ``np.add.accumulate`` then folds in, in place.
    """
    inner, m, n = b.shape[0], a.shape[0], b.shape[1]
    ar, ai = a.real.T[:, :, None], a.imag.T[:, :, None]
    br, bi = b.real[:, None, :], b.imag[:, None, :]
    re = np.zeros((min(_K_CHUNK, inner) + 1, m, n))
    im = np.zeros_like(re)
    with np.errstate(over="ignore", invalid="ignore"):  # _finish rejects what overflows
        for k in range(0, inner, _K_CHUNK):
            ks, c = slice(k, k + _K_CHUNK), min(_K_CHUNK, inner - k)
            rp, ip = re[1:c + 1], im[1:c + 1]
            np.subtract(np.multiply(ar[ks], br[ks], out=rp),
                        np.multiply(ai[ks], bi[ks], out=ip), out=rp)
            np.add.accumulate(re[:c + 1], axis=0, out=re[:c + 1])
            re[0] = re[c]  # rp is free again: scratch for the imaginary part
            np.add(np.multiply(ar[ks], bi[ks], out=ip),
                   np.multiply(ai[ks], br[ks], out=rp), out=ip)
            np.add.accumulate(im[:c + 1], axis=0, out=im[:c + 1])
            im[0] = im[c]
    out = np.empty((m, n), dtype=complex)
    out.real, out.imag = re[0], im[0]
    return out


def _kernel_pays(a_points: list[Term], b_points: list[Term]) -> bool:
    """True when the point x point products of ``a @ b`` are dense enough
    for the kernel: at least ``_KERNEL_MIN_PAIRS`` matching pairs, filling
    at least ``1/_KERNEL_FILL`` of the kernel's rows * inner * cols.

    Timed on a 2-core x86-64 host, each factor a point block plus an
    identity tail, kernel time over join time: dense d x d blocks 1.3-1.4
    at d = 5, 0.6-1.1 at d = 7, 0.8-1.0 at d = 8 (512 pairs), 0.35 at
    d = 16; blocks filled at random to 0.4-0.7 (fill 0.15-0.54) 0.9-1.4
    below 700 pairs, 0.5-0.8 above 900.  A diagonal factor leaves a fill
    of 1/d and loses: dense x diagonal 1.1-2.0 at d = 16 and 1.2-1.8 at
    d = 64; diagonal x diagonal (fill 1/d^2) 4 at d = 16, 24 at d = 64,
    250 at d = 200, where the join makes 200 multiplies and the kernel
    8e6.
    """
    per_col = Counter(t.in_offset for t in a_points)
    per_row = Counter(t.out_offset for t in b_points)
    inner = per_col.keys() & per_row.keys()
    pairs = sum(per_col[k] * per_row[k] for k in inner)
    rows = len({t.out_offset for t in a_points})
    cols = len({t.in_offset for t in b_points})
    return pairs >= _KERNEL_MIN_PAIRS and pairs * _KERNEL_FILL >= rows * len(inner) * cols


def _point_product(a: StructuredOperator, b: StructuredOperator,
                   nprog: int) -> dict[tuple[int, int], complex] | None:
    """The point table of ``a @ b`` from the dense kernel, holding its
    nonzero entries; None when the dict join must build it.  ``b`` is
    canonical, with ``nprog`` progressions ahead of its points.

    The kernel applies when only point x point products reach the table:
    no column of a point of ``a`` lies on an output progression of ``b``
    and no row of a point of ``b`` on an input progression of ``a``.
    ``a``'s points must be distinct and ascending by ``(row, col)``, as in
    canonical order, so that the join, too, sums each entry in ascending
    inner index.
    """
    b_points = b.terms[nprog:]
    a_points = [t for t in a.terms if t.length == 1]
    if len(a_points) * len(b_points) < _KERNEL_MIN_PAIRS:  # bounds the matching pairs
        return None
    keys = [(t.out_offset, t.in_offset) for t in a_points]
    if not all(map(operator.lt, keys, keys[1:])) or not _kernel_pays(a_points, b_points):
        return None
    rows, a_cols, a_block = _point_block(a_points)
    b_rows, cols, b_block = _point_block(b_points)
    a_inputs = [(t.in_stride, t.in_offset) for t in a.terms if t.length is None]
    b_outputs = [(t.out_stride, t.out_offset) for t in b.terms[:nprog]]
    if _on_progression(a_cols.tolist(), b_outputs) or _on_progression(b_rows.tolist(), a_inputs):
        return None
    _, ia, ib = np.intersect1d(a_cols, b_rows, assume_unique=True, return_indices=True)
    if not len(ia):
        return {}
    prod = _block_product(a_block[:, ia], b_block[ib])
    r, c = np.nonzero(prod)  # nan is nonzero, so non-finite sums reach _finish
    return dict(zip(zip(rows[r].tolist(), cols[c].tolist()), prod[r, c].tolist()))


def compose(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    """Operator product ``a @ b`` (apply ``b`` first), summed straight into
    canonical form.

    ``b``'s points are keyed by output index and its progressions by output
    stride and residue.  A point of ``a`` meets the points keyed by its
    input and, in each stride group, the progressions of its input's
    residue that start at or below it.  A progression of ``a`` meets the
    progressions whose output residue agrees with its input offset modulo
    the gcd of the two strides (solutions then exist), and the points on its
    input progression.  For each term of ``a`` the partners are taken in
    ``b``'s term order, so every coefficient is summed in the order of the
    all-pairs product and keeps its bits.

    When only point x point products reach the point table (no point of
    ``a`` has its column on a progression of ``b``, no point of ``b`` its
    row on an input progression of ``a``) and the point blocks are dense
    (``_kernel_pays``: at least ``_KERNEL_MIN_PAIRS`` matching pairs,
    filling at least half of rows * inner * cols), that table comes from
    a numpy kernel over the two blocks instead (``_point_product``).  It
    keeps the join's bits: ``a``'s points are sorted, so the join sums
    each entry in ascending inner index, and the kernel adds its products
    in that order too, one index at a time from ``0j``, each formed by
    CPython's complex multiply in real arithmetic.  The absent pairs add
    only signed zeros, which leave a nonzero sum as it is, and a sum that
    starts at ``+0.0`` never turns into ``-0.0`` (an exact zero sum is
    ``+0.0``).  The progressions still go through the join, and
    ``_finish`` filters and orders both tables as before.
    """
    nprog = sum(1 for t in b.terms if t.length is None)  # canonical: progressions first
    progs: dict[int, dict[int, list[int]]] = {}  # out stride -> out residue -> indices
    for idx, t in enumerate(b.terms[:nprog]):
        progs.setdefault(t.out_stride, {}).setdefault(t.out_offset % t.out_stride, []).append(idx)
    points = b.terms[nprog:]
    fams: dict[tuple[int, int, int, int], complex] = {}
    dyds = _point_product(a, b, nprog)
    kernel = dyds is not None
    points_at: dict[int, list[tuple[int, complex]]] = {}  # out index -> (in index, coeff)
    if not kernel:
        dyds = {}
        for t in points:
            points_at.setdefault(t.out_offset, []).append((t.in_offset, t.coeff))

    for ta in a.terms:
        ca, ai, ao = ta.coeff, ta.in_offset, ta.out_offset
        if ta.length == 1:
            if kernel:
                continue
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
        for idx in sorted(_meeting(progs, s1, ai)):
            p = _compose_terms(ta, b.terms[idx])
            sig = p[1:5]
            fams[sig] = fams.get(sig, 0.0) + p[0]
        for tb in points:
            d = tb.out_offset - ai
            if d >= 0 and d % s1 == 0:
                key = (os_ * (d // s1) + ao, tb.in_offset)
                dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
    return StructuredOperator._canonical(_finish(fams, dyds, current().tolerance))


# -- equality, decided on the terms ----------------------------------------


def _line(t: Term) -> tuple[int, int, int]:
    """Primitive direction ``(u, v)`` and invariant ``v*row - u*col`` of a progression."""
    g = math.gcd(t.out_stride, t.in_stride)
    u, v = t.out_stride // g, t.in_stride // g
    return u, v, v * t.out_offset - u * t.in_offset


def _crossing(s: Term, t: Term) -> tuple[int, int] | None:
    """The one position of two non-parallel progressions, or None."""
    det = t.out_stride * s.in_stride - s.out_stride * t.in_stride
    e, f = t.out_offset - s.out_offset, t.in_offset - s.in_offset
    k, rk = divmod(t.out_stride * f - t.in_stride * e, det)
    j, rj = divmod(s.out_stride * f - s.in_stride * e, det)
    if rk or rj or k < 0 or j < 0:
        return None
    return s.out_stride * k + s.out_offset, s.in_stride * k + s.in_offset


def max_deviation(a: StructuredOperator, b: StructuredOperator):
    """Largest entrywise difference ``|a - b|`` over all positions.

    Returns ``(deviation, position)``, where the position is the least
    ``(row, col)`` attaining the deviation, or None when it is 0.  Parallel
    progressions on one geometric line make its entries periodic in the row,
    with the lcm ``L`` of their row strides, from its highest head on; the
    entries change elsewhere only at points and at crossings of
    non-parallel progressions.  So the positions evaluated are those points
    and crossings, each line's rows up to its highest head plus ``L``, and,
    where one of those rows is a point or a crossing, the first later row of
    its residue that is neither.  The terms need not be canonical; each
    entry is summed in term order.
    """
    terms = a.terms + b.terms
    line_of = {t: _line(t) for t in terms if t.length is None}
    tails: dict[tuple[int, int, int], list[int]] = {}  # line -> [highest head row, L]
    by_dir: dict[tuple[int, int], list[Term]] = {}
    for t, line in line_of.items():
        tail = tails.setdefault(line, [t.out_offset, 1])
        tail[0] = max(tail[0], t.out_offset)
        tail[1] = math.lcm(tail[1], t.out_stride)
        by_dir.setdefault(line[:2], []).append(t)
    cap = current().period_cap
    for _, period in tails.values():
        if period > cap:
            raise PeriodCapExceeded(f"stride lcm {period} on one line exceeds cap {cap}")

    fixed = {(t.out_offset, t.in_offset) for t in terms if t.length == 1}
    groups = list(by_dir.values())
    for i, group in enumerate(groups):
        for other in groups[i + 1:]:
            for s in group:
                for t in other:
                    p = _crossing(s, t)
                    if p is not None:
                        fixed.add(p)

    # positions past a line's enumerated rows that its progressions may hold
    beyond: dict[tuple[int, int, int], list[tuple[int, int]]] = {}
    for r, c in fixed:
        for u, v in by_dir:
            line = (u, v, v * r - u * c)
            if line not in tails:
                continue
            hi, period = tails[line]
            if r >= hi + period:
                beyond.setdefault(line, []).append((r, c))
            elif r >= hi:
                dr, dc = period, period // u * v
                q = (r + dr, c + dc)
                while q in fixed:
                    q = (q[0] + dr, q[1] + dc)
                beyond.setdefault(line, []).append(q)

    def entries(terms):
        ents: dict[tuple[int, int], complex] = {}
        for t in terms:
            c = t.coeff
            if t.length == 1:
                key = (t.out_offset, t.in_offset)
                ents[key] = ents.get(key, 0.0) + c
                continue
            line = line_of[t]
            hi, period = tails[line]
            for key in zip(range(t.out_offset, hi + period, t.out_stride),
                           count(t.in_offset, t.in_stride)):
                ents[key] = ents.get(key, 0.0) + c
            for key in beyond.get(line, ()):
                if (key[0] - t.out_offset) % t.out_stride == 0:
                    ents[key] = ents.get(key, 0.0) + c
        return ents

    ea, eb = entries(a.terms), entries(b.terms)
    dev, pos = 0.0, None
    for key in ea.keys() | eb.keys():
        d = abs(ea.get(key, 0.0) - eb.get(key, 0.0))
        if d > dev or (d == dev and pos is not None and key < pos):
            dev, pos = d, key
    return dev, pos


def equals(a: StructuredOperator, b: StructuredOperator) -> bool:
    dev, _ = max_deviation(a, b)
    return dev <= current().tolerance


# -- structural predicates -------------------------------------------------


def _inputs_keyed(terms: Sequence[Term]) -> tuple[dict[int, dict[int, list[int]]],
                                                  dict[int, list[int]]]:
    """Positions in ``terms`` keyed by input: progressions by stride, then
    residue; points by index."""
    progs: dict[int, dict[int, list[int]]] = {}
    points_at: dict[int, list[int]] = {}
    for idx, t in enumerate(terms):
        if t.length is None:
            progs.setdefault(t.in_stride, {}).setdefault(t.in_offset % t.in_stride, []).append(idx)
        else:
            points_at.setdefault(t.in_offset, []).append(idx)
    return progs, points_at


def is_monomial(op: StructuredOperator) -> bool:
    """True when no basis column carries two entries at different rows.

    Decided exactly: any clash between two terms lives on the intersection
    of their input progressions, which is itself a progression.  Only pairs
    whose inputs can meet are solved: progressions are keyed by input
    stride and residue and points by input index, the way ``compose`` keys
    ``b``.
    """
    terms = op.terms
    progs, points_at = _inputs_keyed(terms)
    for idx, t1 in enumerate(terms):
        i = t1.in_offset
        if t1.length is None:
            partners = [k for k in _meeting(progs, t1.in_stride, i) if k > idx]
        else:
            partners = [k for s, group in progs.items() for k in group.get(i % s, ())]
            partners += [k for k in points_at[i] if k > idx]
        for k in partners:
            t2 = terms[k]
            m = _match_progressions(t1.in_stride, i, t1.length,
                                    t2.in_stride, t2.in_offset, t2.length)
            if m is None:
                continue
            k0, j0, kstep, jstep, n = m
            r1 = t1.out_stride * k0 + t1.out_offset
            r2 = t2.out_stride * j0 + t2.out_offset
            if r1 != r2 or (n is None and t1.out_stride * kstep != t2.out_stride * jstep):
                return False
    return True


def _diagonal_run(t: Term) -> tuple[int, int, int | None] | None:
    """``(first, stride, length)`` of the diagonal entries of ``t``, or None."""
    den, num = t.out_stride - t.in_stride, t.in_offset - t.out_offset
    if den == 0:  # points have den == 0
        return (t.in_offset, t.in_stride, t.length) if num == 0 else None
    if num % den == 0 and num // den >= 0:
        return t.in_stride * (num // den) + t.in_offset, 1, 1
    return None


def diagonal_part(op: StructuredOperator) -> StructuredOperator:
    """Terms restricted to the main diagonal (exact for the structured class)."""
    terms: list[Term] = []
    for t in op.terms:
        if (run := _diagonal_run(t)) is not None:
            first, stride, length = run
            terms.append(Term(t.coeff, stride, first, stride, first, length))
    return StructuredOperator(terms)


def is_diagonal(op: StructuredOperator) -> bool:
    return equals(op, diagonal_part(op))


def projector(s: IndexSet) -> StructuredOperator:
    """Orthogonal projector onto the basis vectors indexed by ``s``."""
    terms: list[Term] = [Dyad(1.0, i, i) for i in sorted(s.transient)]
    for stride, offset in s.tail_progressions():
        terms.append(Family(1.0, stride, offset, stride, offset))
    return StructuredOperator(terms)


def operator_norm(op: StructuredOperator) -> tuple[float, str]:
    """Operator norm, decided exactly, tagged ``"exact"``.

    A monomial operator ``M`` has a diagonal Gram operator ``M M*``, whose
    largest entry is the square of the norm.  Otherwise, when no progression
    holds a row or column of a point and the progressions are monomial, the
    operator is the direct sum of the finite block of its points, on exactly
    their rows and columns, and its progressions; the norm is the larger of
    the block's largest singular value and the progressions' norm.  Any other
    operator raises UnsupportedForm naming the reason.
    """
    if is_monomial(op):
        return _monomial_norm(op), "exact"
    tail = StructuredOperator._canonical(op.families)
    if not is_monomial(tail):
        raise UnsupportedForm("operator norm undecided: the progressions are not monomial")
    rows, cols = tail.range_set(), tail.support_set()
    for t in op.dyads:
        for kind, i, held in (("row", t.out_offset, rows), ("column", t.in_offset, cols)):
            if held.member(i):
                raise UnsupportedForm(
                    f"operator norm undecided: {kind} {i} holds a point and a progression")
    _, _, block = _point_block(op.dyads)
    return max(float(np.linalg.norm(block, 2)), _monomial_norm(tail)), "exact"


def _monomial_norm(op: StructuredOperator) -> float:
    """Square root of the largest entry of the diagonal Gram operator ``M M*``.

    The terms are divided by the largest ``|coeff|`` first and the norm is
    multiplied back, so that ``compose``'s tolerance filter cannot drop the
    Gram entries of a small operator.
    """
    top = max((abs(t.coeff) for t in op.terms), default=1.0)
    unit = StructuredOperator(Term._trusted(t.coeff / top, t.out_stride, t.out_offset,
                                            t.in_stride, t.in_offset, t.length) for t in op.terms)
    gram, _ = max_deviation(compose(unit, adjoint(unit)), StructuredOperator.zero())
    return top * math.sqrt(gram)
