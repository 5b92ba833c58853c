"""Structured operators on l2 of the nonnegative integers.

An operator is a finite formal sum of terms of one type, :class:`Term`:
progressions ``c * sum_j |os*j+oo><is*j+io|`` that run for one step (a
point, the matrix unit ``c |oo><io|``) or for every ``j >= 0`` (a shift
family).  ``Dyad`` and ``Family`` are its two constructors, matching the
``dyad`` and ``family`` kinds of the instrument files.  The class is closed
under adjoint, sum, and composition, which makes completeness and
repeatability checks exact rather than truncation-limited.

Equality is decided on a finite window.  Entries of a difference operator
repeat along progression directions beyond all sporadic crossings of
non-parallel families; crossing coordinates are bounded by ``2*P^2*B`` for
``P`` the lcm of strides and ``B`` the largest offset, so agreement on
``[0, 2*P^2*(B+2) + B)^2`` forces agreement everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import PeriodCapExceeded
from .indexsets import IndexSet

TOLERANCE = 1e-12
WINDOW_CAP = 4 * 10**6
_setattr = object.__setattr__


def set_tolerance(value: float) -> None:
    """Set the global comparison tolerance (mostly for the CLI)."""
    global TOLERANCE
    if not value > 0:
        raise ValueError("tolerance must be positive")
    TOLERANCE = float(value)


def _tol(tol: float | None) -> float:
    return TOLERANCE if tol is None else tol


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

    # Written out rather than generated: compose builds a Term per product,
    # and the generated frozen __init__ costs about half as much again.
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

    def step_at(self, i: int) -> int | None:
        """The ``j`` whose input index is ``i``, or None when ``i`` is not an input."""
        j, rem = divmod(i - self.in_offset, self.in_stride)
        if rem or j < 0 or (self.length is not None and j >= self.length):
            return None
        return j

    def adjoint(self) -> "Term":
        return Term(self.coeff.conjugate(), self.in_stride, self.in_offset,
                    self.out_stride, self.out_offset, self.length)


def _check_coeff(c: complex) -> None:
    c = complex(c)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError("coefficients must be finite")


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

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Term] = (), tol: float | None = None):
        object.__setattr__(self, "terms", _canonicalize(terms, _tol(tol)))

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

    def is_zero(self, tol: float | None = None) -> bool:
        return equals(self, StructuredOperator.zero(), tol)

    def support_set(self) -> IndexSet:
        """Input indices touched by some term (columns carrying entries)."""
        return _index_set((t.in_stride, t.in_offset, t.length) for t in self.terms)

    def range_set(self) -> IndexSet:
        """Output indices touched by some term (rows carrying entries)."""
        return _index_set((t.out_stride, t.out_offset, t.length) for t in self.terms)

    # -- algebra ---------------------------------------------------------

    def adjoint(self) -> "StructuredOperator":
        return adjoint(self)

    def compose(self, other: "StructuredOperator") -> "StructuredOperator":
        return compose(self, other)

    def apply(self, psi: "StateVector") -> "StateVector":
        return apply(self, psi)

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
    out = IndexSet.empty()
    for stride, offset, length in progressions:
        out = out.union(IndexSet.from_indices([offset]) if length == 1
                        else IndexSet.from_progression(stride, offset))
    return out


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
    dyds = {k: c for k, c in dyds.items() if abs(c) > tol}
    fams = {k: c for k, c in fams.items() if abs(c) > tol}

    # Absorb dyads sitting exactly on a family boundary.  Each pass removes
    # one dyad, so the loop is bounded by the dyad count.
    changed = True
    while changed:
        changed = False
        for (o, i), c in sorted(dyds.items(), key=lambda kv: kv[0]):
            for sig in sorted(fams):
                os_, oo, is_, io = sig
                cf = fams[sig]
                if (o, i) == (oo, io) and abs(c + cf) <= tol:
                    # dyad cancels the family head; the family starts one step later
                    del dyds[(o, i)]
                    del fams[sig]
                    nsig = (os_, oo + os_, is_, io + is_)
                    cf = fams.get(nsig, 0.0) + cf
                    if abs(cf) > tol:
                        fams[nsig] = cf
                    elif nsig in fams:
                        del fams[nsig]
                    changed = True
                    break
                if (o, i) == (oo - os_, io - is_) and o >= 0 and i >= 0 and abs(c - cf) <= tol:
                    # dyad extends the family one step backward
                    del dyds[(o, i)]
                    del fams[sig]
                    nsig = (os_, oo - os_, is_, io - is_)
                    cf = fams.get(nsig, 0.0) + cf
                    if abs(cf) > tol:
                        fams[nsig] = cf
                    elif nsig in fams:
                        del fams[nsig]
                    changed = True
                    break
            if changed:
                break

    out = [Term(c, *sig) for sig, c in sorted(fams.items())]
    out.extend(Term(c, 1, o, 1, i, 1) for (o, i), c in sorted(dyds.items()))
    return tuple(out)


# -- state vectors -------------------------------------------------------


class StateVector:
    """Finitely supported vector, stored as an index -> amplitude map."""

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        amp: dict[int, complex] = {}
        for i, c in items:
            i = int(i)
            c = complex(c)
            _check_coeff(c)
            if i < 0:
                raise ValueError("basis indices must be nonnegative")
            if c != 0:
                amp[i] = amp.get(i, 0.0) + c
        object.__setattr__(self, "_amp", {i: amp[i] for i in sorted(amp) if amp[i] != 0})

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    @staticmethod
    def basis(i: int) -> "StateVector":
        return StateVector({i: 1.0})

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(self._amp.items())

    def support(self) -> tuple[int, ...]:
        return tuple(self._amp)

    def amplitude(self, i: int) -> complex:
        return self._amp.get(i, 0.0)

    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for c in self._amp.values())

    def is_normalized(self, tol: float | None = None) -> bool:
        return abs(self.norm_sq() - 1.0) <= _tol(tol)

    def normalized(self) -> "StateVector":
        n = math.sqrt(self.norm_sq())
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector({i: c / n for i, c in self._amp.items()})

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
    return StateVector({int(i): complex(a / n) for i, a in zip(idx, amps)})


# -- application and composition ----------------------------------------


def apply(op: StructuredOperator, psi: StateVector) -> StateVector:
    """Image of ``psi`` under ``op`` (not renormalized)."""
    out: dict[int, complex] = {}
    for i, c in psi.items():
        for t in op.terms:  # Term.step_at, inlined: this loop is the sampling hot path
            d = i - t.in_offset
            if d >= 0 and d % t.in_stride == 0:
                j = d // t.in_stride
                if t.length is None or j < t.length:
                    r = t.out_stride * j + t.out_offset
                    out[r] = out.get(r, 0.0) + t.coeff * c
    return StateVector(out)


def adjoint(op: StructuredOperator) -> StructuredOperator:
    return StructuredOperator([t.adjoint() for t in op.terms])


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


def _compose_terms(a: Term, b: Term) -> Term | None:
    m = _match_progressions(a.in_stride, a.in_offset, a.length,
                            b.out_stride, b.out_offset, b.length)
    if m is None:
        return None
    k0, j0, kstep, jstep, n = m
    return Term(a.coeff * b.coeff,
                a.out_stride * kstep, a.out_stride * k0 + a.out_offset,
                b.in_stride * jstep, b.in_stride * j0 + b.in_offset, n)


def compose(a: StructuredOperator, b: StructuredOperator) -> StructuredOperator:
    """Operator product ``a @ b`` (apply ``b`` first).

    A point of ``a`` meets only the progressions of ``b`` and the points of
    ``b`` whose output is its input, so those are looked up by index.
    Canonical form lists progressions before points, so the products come
    out in all-pairs order and their coefficient sums do not change.
    """
    progs = [t for t in b.terms if t.length is None]
    points: dict[int, list[Term]] = {}
    for t in b.terms[len(progs):]:
        points.setdefault(t.out_offset, []).append(t)
    terms = []
    for ta in a.terms:
        partners = b.terms if ta.length is None else progs + points.get(ta.in_offset, [])
        for tb in partners:
            t = _compose_terms(ta, tb)
            if t is not None:
                terms.append(t)
    return StructuredOperator(terms)


# -- equality on a sufficient window --------------------------------------


def _window_size(terms: tuple[Term, ...], period_cap: int | None = None) -> int:
    from . import indexsets

    cap = indexsets.PERIOD_CAP if period_cap is None else period_cap
    bound = max([t.out_offset for t in terms] + [t.in_offset for t in terms], default=0)
    period = math.lcm(*{t.out_stride for t in terms}, *{t.in_stride for t in terms})
    if period > cap:
        raise PeriodCapExceeded(f"stride lcm {period} exceeds cap {cap}")
    w = max(2 * period * period * (bound + 2) + bound, 8)
    if w > WINDOW_CAP:
        raise PeriodCapExceeded(f"comparison window {w} exceeds cap {WINDOW_CAP}")
    return w


def _entries(terms: Iterable[Term], window: int) -> dict[tuple[int, int], complex]:
    ents: dict[tuple[int, int], complex] = {}
    for t in terms:
        c = t.coeff
        for key in islice(zip(range(t.out_offset, window, t.out_stride),
                              range(t.in_offset, window, t.in_stride)), t.length):
            ents[key] = ents.get(key, 0.0) + c
    return ents


def _dense(op: StructuredOperator, dim: int) -> np.ndarray:
    """Entries of ``op`` on ``[0, dim)^2`` as a matrix."""
    mat = np.zeros((dim, dim), dtype=complex)
    ents = _entries(op.terms, dim)
    if ents:
        mat[tuple(zip(*ents))] = list(ents.values())
    return mat


def max_deviation(a: StructuredOperator, b: StructuredOperator):
    """Largest entrywise difference over the decision window.

    Returns ``(deviation, position)``; the window bound makes a zero
    deviation a proof of global equality.
    """
    window = _window_size(a.terms + b.terms)
    ea = _entries(a.terms, window)
    eb = _entries(b.terms, window)
    dev, pos = 0.0, None
    for key in ea.keys() | eb.keys():
        d = abs(ea.get(key, 0.0) - eb.get(key, 0.0))
        if d > dev:
            dev, pos = d, key
    return dev, pos


def equals(a: StructuredOperator, b: StructuredOperator, tol: float | None = None) -> bool:
    dev, _ = max_deviation(a, b)
    return dev <= _tol(tol)


# -- structural predicates -------------------------------------------------


def is_monomial(op: StructuredOperator) -> bool:
    """True when no basis column carries two entries at different rows.

    Decided exactly: any clash between two terms lives on the intersection
    of their input progressions, which is itself a progression.
    """
    terms = op.terms
    for idx, t1 in enumerate(terms):
        for t2 in terms[idx + 1:]:
            m = _match_progressions(t1.in_stride, t1.in_offset, t1.length,
                                    t2.in_stride, t2.in_offset, t2.length)
            if m is None:
                continue
            k0, j0, kstep, jstep, n = m
            r1 = t1.out_stride * k0 + t1.out_offset
            r2 = t2.out_stride * j0 + t2.out_offset
            if r1 != r2 or (n is None and t1.out_stride * kstep != t2.out_stride * jstep):
                return False
    return True


def diagonal_part(op: StructuredOperator) -> StructuredOperator:
    """Terms restricted to the main diagonal (exact for the structured class)."""
    terms: list[Term] = []
    for t in op.terms:
        den = t.out_stride - t.in_stride
        num = t.in_offset - t.out_offset
        if den == 0:
            if num == 0:
                terms.append(t)
        elif num % den == 0 and num // den >= 0:  # points have den == 0
            r = t.out_stride * (num // den) + t.out_offset
            terms.append(Dyad(t.coeff, r, r))
    return StructuredOperator(terms)


def is_diagonal(op: StructuredOperator, tol: float | None = None) -> bool:
    return equals(op, diagonal_part(op), tol)


def projector(s: IndexSet) -> StructuredOperator:
    """Orthogonal projector onto the basis vectors indexed by ``s``."""
    terms: list[Term] = [Dyad(1.0, i, i) for i in sorted(s.transient)]
    for stride, offset in s.tail_progressions():
        terms.append(Family(1.0, stride, offset, stride, offset))
    return StructuredOperator(terms)


def operator_norm(op: StructuredOperator) -> tuple[float, str]:
    """Operator norm, exact for monomial operators.

    For a monomial operator ``M`` the Gram operator ``M M*`` is diagonal,
    and the supremum of its entries over the decision window is the global
    supremum, so the returned value is exact.  Otherwise the largest
    singular value of a dense window realization is reported, tagged
    ``"window-estimate"``.
    """
    if not op.terms:
        return 0.0, "exact"
    if is_monomial(op):
        gram = compose(op, adjoint(op))
        window = _window_size(gram.terms)
        ents = _entries(gram.terms, window)
        top = max((abs(v) for v in ents.values()), default=0.0)
        return math.sqrt(top), "exact"
    return float(np.linalg.norm(_dense(op, _estimate_dim(op)), 2)), "window-estimate"


def _estimate_dim(op: StructuredOperator) -> int:
    bound = max([t.out_offset for t in op.terms] + [t.in_offset for t in op.terms])
    stride = max([t.out_stride for t in op.terms] + [t.in_stride for t in op.terms])
    return min(max(bound + 4 * stride + 8, 16), 512)
