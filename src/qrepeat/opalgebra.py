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

Which terms hold an index or meet a progression, by input or by output, is
answered exactly by one term index (``_term_index``).  ``compose``, ``is_monomial``,
:mod:`qrepeat.wold` and ``_followers`` read it; the last maps the terms to their
operators, so :mod:`qrepeat.certify` composes only the outcome pairs whose terms meet.

Dense point blocks stay arrays.  ``compose``'s numpy kernel reads an
operator's progressions and its points' counts per row and column
(``_parts``).  Only a block operator (``_BlockOperator``) holds them, with a
point block, from the start, and builds its point terms only when read: a
kernel product, an operator summed from a dense table (``_from_sums``,
which the instrument parser calls) and the adjoint of either.  Any other
operator keeps only its terms.  ``max_deviation`` compares blocks where an
operand holds one, and ``is_monomial``, ``_followers`` and
``operator_norm`` read a block operator's counts, not its points.
``adjoint`` keeps the adjoint it builds on the operator.  Each bit rule of
the arrays has one helper: ``_moduli``, ``_plus_zero`` and ``_squares``.
None of this changes a bit of any result.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
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

    # Written out rather than generated: projector and the build_* functions
    # call Dyad and Family once per term, and a generated frozen __init__ plus
    # a __post_init__ takes 30-40 % longer per Dyad and 10-25 % per Family.
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

    # _tol: the tolerance the terms are canonical under.  _adj: the adjoint,
    # kept by adjoint under that tolerance, unset until then and read with a
    # plain getattr.  Only a block operator holds more (_parts).
    __slots__ = ("terms", "_tol", "_adj")

    def __init__(self, terms: Iterable[Term] = ()):
        object.__setattr__(self, "_tol", current().tolerance)
        object.__setattr__(self, "terms", _canonicalize(terms, self._tol))

    @classmethod
    def _canonical(cls, terms: tuple[Term, ...]) -> "StructuredOperator":
        """Wrap terms, canonical under the active tolerance, as given.  Every
        operator is in canonical order: progressions sorted by signature, then
        points sorted by ``(row, col)``, each position once.  The dense paths
        of ``compose`` and ``max_deviation`` rely on it without checking it."""
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
        return _parts(self)[0]

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
            dyds: dict[tuple[int, int], complex], tol: float,
            lost: list | None = None) -> tuple[Term, ...]:
    """Canonical terms from summed coefficients.

    ``fams`` maps progression signatures ``(os, oo, is, io)`` and ``dyds``
    point positions ``(out, in)`` to their coefficient sums.  A sum that is
    not finite, before the tolerance filter (which would drop a nan) or in a
    merge, raises ValueError, and so does a finite sum whose modulus
    overflows.  Sums within ``tol`` of zero are dropped.  The
    least point that cancels a family head or extends a family one step
    backward is absorbed, against its families in sorted order, until none
    is left.  Only the points at a family head or one step before it are
    indexed, once; an absorption re-indexes and re-queues only the family it
    moved.  The progressions, then the points, are listed in sorted order.
    With a ``lost`` list, every entry the result misses or changes is
    appended as ``(position, |change|)``: a dropped point at its position, an
    absorbed point's ``|c + cf|`` (cancelled head) or ``|c - cf|`` (backward
    step) at the point, and a dropped progression with position None.
    The progressions of a product from ``compose``'s dense kernel always
    come here, its point table only when ``_finish_block`` cannot keep it
    as arrays.
    """
    try:
        return _absorb(fams, dyds, tol, lost)
    except OverflowError:  # abs() of a finite coefficient past the largest float
        raise ValueError("coefficient moduli must be finite") from None


def _absorb(fams: dict[tuple[int, int, int, int], complex],
            dyds: dict[tuple[int, int], complex], tol: float,
            lost: list | None) -> tuple[Term, ...]:
    for c in chain(fams.values(), dyds.values()):
        if not cmath.isfinite(c):
            raise ValueError("coefficients must be finite")
    if lost is not None:
        lost.extend((k, abs(c)) for k, c in dyds.items() if abs(c) <= tol)
        lost.extend((None, abs(c)) for c in fams.values() if abs(c) <= tol)
    dyds = {k: c for k, c in dyds.items() if abs(c) > tol}
    fams = {k: c for k, c in fams.items() if abs(c) > tol}
    if dyds:
        near: dict[tuple[int, int], set[tuple[int, int, int, int]]] = {}
        for sig in fams:
            os_, oo, is_, io = sig
            for p in ((oo, io), (oo - os_, io - is_)):
                if p in dyds:
                    near.setdefault(p, set()).add(sig)
        queue = sorted(near)  # a sorted list is a heap
        while queue:
            pos = heappop(queue)
            c = dyds.get(pos)  # None once absorbed through an earlier copy
            # near keeps the families that moved or cancelled; fams has the live ones
            for sig in sorted(fams.keys() & near[pos]) if c is not None else ():
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
                if lost is not None:
                    lost.append((pos, abs(c + step * cf)))
                nsig = (os_, oo + step * os_, is_, io + step * is_)
                cf = fams.get(nsig, 0.0) + cf
                if not cmath.isfinite(cf):
                    raise ValueError("coefficients must be finite")
                if lost is not None and abs(cf) <= tol:
                    lost.append((None, abs(cf)))
                if abs(cf) > tol:
                    fams[nsig] = cf
                    p = (pos[0] + step * os_, pos[1] + step * is_)  # nsig's end other than pos
                    if p in dyds:
                        near.setdefault(p, set()).add(nsig)
                        heappush(queue, p)
                elif nsig in fams:
                    del fams[nsig]
                break
    out = [Term._trusted(c, *sig, None) for sig, c in sorted(fams.items())]
    out.extend(Term._trusted(c, 1, o, 1, i, 1) for (o, i), c in sorted(dyds.items()))
    return tuple(out)


def _schur(every: float,
           parts: Iterable[tuple[Mapping[int, float], Mapping[int, float]]]) -> float:
    """Schur-test bound on a norm: ``every``, the weight of parts with at
    most one entry per row and column, plus the largest row or column sum
    of ``parts``, each given as its weights per row and per column, as
    ``_parts`` gives an operator's point counts.  The sums run in the given
    order."""
    rows, cols = Counter(), Counter()
    for per_row, per_col in parts:
        for i, weight in per_row.items():
            rows[i] += weight
        for i, weight in per_col.items():
            cols[i] += weight
    return every + max(chain(rows.values(), cols.values()), default=0.0)


# -- state vectors -------------------------------------------------------


class StateVector:
    """Finitely supported vector, stored as an index -> amplitude map.

    The public constructor coerces and validates every entry, sums the
    entries of each index and finishes the sums through ``_finished``,
    which rejects non-finite amplitudes, drops zeros, sorts the indices and
    stores ``0.0 + c``.  ``apply`` and ``normalized`` build their results
    through :meth:`_trusted`, which only finishes, as their indices and
    amplitudes come from a valid state.  Every norm is taken by
    ``_norm_sq``.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = amplitudes.items() if isinstance(amplitudes, Mapping) else amplitudes
        amp: dict[int, complex] = {}
        for i, c in items:
            i = int(i)
            c = complex(c)  # _finished refuses a non-finite one: no sum makes it finite
            if i < 0:
                raise ValueError("basis indices must be nonnegative")
            if c != 0:
                amp[i] = amp.get(i, 0.0) + c
        _setattr(self, "_amp", _finished(amp))

    @classmethod
    def _trusted(cls, amplitudes: dict[int, complex]) -> "StateVector":
        """State from a dict of nonnegative int indices to complex amplitudes,
        equal to the public constructor's result on such input.  Each
        amplitude is stored as ``0.0 + c``."""
        vec = object.__new__(cls)
        _setattr(vec, "_amp", _finished(amplitudes))
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
        """Sum of the squared moduli; ValueError when it passes the largest float."""
        return _norm_sq(self._amp.values())

    def is_normalized(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= current().tolerance

    def normalized(self) -> "StateVector":
        """This state divided by its norm.  At a norm of exactly 1.0 the state
        itself: ``c / 1.0`` keeps the bits of every stored amplitude, as no
        stored part is ``-0.0`` up to CPython 3.13 and 3.14 divides each
        part of a complex by a float on its own."""
        n = math.sqrt(self.norm_sq())
        if n == 1.0:
            return self
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector._trusted({i: c / n for i, c in self._amp.items()})

    def __len__(self) -> int:
        return len(self._amp)

    def __repr__(self) -> str:
        inner = ", ".join(f"{i}: {c:.6g}" for i, c in self._amp.items())
        return f"StateVector({{{inner}}})"


def _finished(sums: dict[int, complex]) -> dict[int, complex]:
    """A state's amplitudes from summed ones: by ascending index, each stored
    as ``0.0 + c``, zeros dropped; ValueError on a non-finite sum."""
    amp: dict[int, complex] = {}
    for i in sorted(sums):
        c = 0.0 + sums[i]
        if c:
            if not cmath.isfinite(c):
                raise ValueError("coefficients must be finite")
            amp[i] = c
    return amp


def _norm_sq(amplitudes: Iterable[complex]) -> float:
    """Sum of the squared moduli, in the order given, from ``0.0``, so that
    no amplitudes give the float ``0.0``; ValueError when it passes the
    largest float.  ``sum`` is compensated from Python 3.12, so its bits
    depend on the Python; every norm of a state is taken here, so that
    every path has the same bits on each."""
    total = sum(_squares(amplitudes), 0.0)
    if total == math.inf:
        raise ValueError("state norm is too large to represent")
    return total


def _squares(values: Iterable[complex]) -> list[float]:
    """``abs(v) ** 2`` of each value, by Python's float power, and ``inf``
    where that overflows.  When one overflows, ``values`` is read a second
    time, so it is a list or a dict view."""
    try:
        return [abs(v) ** 2 for v in values]
    except OverflowError:  # a square past the largest float
        out = []
        for v in values:
            try:
                out.append(abs(v) ** 2)
            except OverflowError:
                out.append(math.inf)
        return out


def _moduli(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``abs`` of each ``re + i*im`` with its bits, ``np.hypot`` of the parts
    (numpy's complex ``abs`` differs in the last bit); ``inf`` where it
    overflows, without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.hypot(re, im)


def random_state(rng: np.random.Generator, max_index: int, max_support: int = 8) -> StateVector:
    """Normalized state with small uniform support and Gaussian amplitudes.
    Raises ValueError, before any draw, when no index or no support is allowed."""
    if max_index < 1:
        raise ValueError(f"max_index must be at least 1, got {max_index}")
    if max_support < 1:
        raise ValueError(f"max_support must be at least 1, got {max_support}")
    size = min(int(rng.integers(1, max_support + 1)), max_index)
    idx = rng.choice(max_index, size=size, replace=False)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    n = np.linalg.norm(amps)
    while n < 1e-9:  # absurdly unlikely, but keep the draw well defined
        amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        n = np.linalg.norm(amps)
    return StateVector._trusted(dict(zip(idx.tolist(), (amps / n).tolist())))


# -- application and composition ----------------------------------------


def apply(op: StructuredOperator, psi: StateVector) -> StateVector:
    """Image of ``psi`` under ``op`` (not renormalized).

    Each amplitude goes where ``_column`` sends it, summed in the order of
    ``psi``, then of the terms.  The image is built with the trusted
    ``StateVector._trusted``, which
    keeps the finiteness check, the zero drop, the sorted indices and the
    ``0.0 + c`` rule of the public constructor.
    """
    out: dict[int, complex] = {}
    terms = op.terms
    for i, c in psi._amp.items():
        for r, coeff in _column(terms, i):
            out[r] = out.get(r, 0.0) + coeff * c
    return StateVector._trusted(out)


def _column(terms: Sequence[Term], i: int) -> list[tuple[int, complex]]:
    """``(row, coeff)`` of each term of ``terms`` that holds column ``i``, in
    term order: where the term sends ``|i>``, and with what coefficient."""
    out = []
    for t in terms:
        d = i - t.in_offset
        if d >= 0 and d % t.in_stride == 0:
            j = d // t.in_stride
            if t.length is None or j < t.length:
                out.append((t.out_stride * j + t.out_offset, t.coeff))
    return out


def adjoint(op: StructuredOperator) -> StructuredOperator:
    """Adjoint of ``op``, canonicalized afresh unless ``op`` is canonical under
    the active tolerance.  Then the swap keeps signatures distinct and ``|c|``
    above the tolerance, and takes a family head (the step before one) to a
    head (the step before), so nothing merges, drops or is absorbed: the terms
    are only sorted back, each stored as ``0.0 + c`` as canonicalization does.
    That adjoint is built once and kept on ``op``; the one canonicalized
    afresh, under another tolerance, is not.  When ``op`` holds a point
    block, its adjoint holds the conjugate transpose (``_adjoint_block``)
    and builds its point terms only when they are read."""
    if op._tol != current().tolerance:
        return StructuredOperator([t.adjoint() for t in op.terms])
    adj = getattr(op, "_adj", None)
    if adj is not None:
        return adj
    held = type(op) is _BlockOperator
    flipped = sorted(
        (Term._trusted(0.0 + t.coeff.conjugate(), t.in_stride, t.in_offset, t.out_stride,
                       t.out_offset, t.length) for t in (op._progs if held else op.terms)),
        key=lambda t: (t.length == 1, t.out_stride, t.out_offset, t.in_stride, t.in_offset))
    if held:
        rows, cols, block = op._block
        per_row, per_col = op._counts
        adj = _block_operator(op._tol, tuple(flipped), (per_col, per_row),
                              (cols, rows, _adjoint_block(block)))
    else:
        adj = StructuredOperator._canonical(tuple(flipped))
    _setattr(op, "_adj", adj)
    return adj


# CPython 3.14 adds a float to a complex part by part, so 0.0 + z keeps the
# sign of a zero imaginary part; earlier versions add complex(0.0, 0.0)
_ADD_KEEPS_IMAG = math.copysign(1.0, (0.0 + complex(1.0, -0.0)).imag) < 0


def _plus_zero(re: np.ndarray, im: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The parts of ``0.0 + z`` for each ``z = re + i*im`` on this Python,
    which from CPython 3.14 keeps the imaginary part as it is."""
    return re + 0.0, im if _ADD_KEEPS_IMAG else im + 0.0


def _adjoint_block(block: np.ndarray) -> np.ndarray:
    """The conjugate transpose of ``block``, each entry ``0.0 + conj(c)`` as
    ``adjoint`` stores a flipped term's coefficient on this Python."""
    out = np.empty(block.shape[::-1], dtype=complex)
    out.real, out.imag = _plus_zero(block.real.T, np.negative(block.imag.T))
    return out


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


def _term_index(terms: Sequence[Term], outputs: bool = False):
    """Positions in ``terms`` keyed by input (by output with ``outputs``):
    progressions by stride, then residue, with their offsets; points by index."""
    # stride -> residue -> positions; index -> positions; progression position -> offset
    progs, points, starts = {}, {}, {}
    for idx, t in enumerate(terms):
        offset = t.out_offset if outputs else t.in_offset
        if t.length is None:
            stride = t.out_stride if outputs else t.in_stride
            progs.setdefault(stride, {}).setdefault(offset % stride, []).append(idx)
            starts[idx] = offset
        else:
            points.setdefault(offset, []).append(idx)
    return progs, points, starts


def _holding(index, i: int) -> list[int]:
    """Ascending positions of the terms that hold ``i``: the points at ``i``
    and the progressions of ``i``'s residue that start at or below it."""
    progs, points, starts = index
    return sorted(points.get(i, []) + [n for s, g in progs.items() for n in g.get(i % s, ())
                                       if starts[n] <= i])


def _meeting(index, stride: int, offset: int) -> list[int]:
    """Positions of the progressions that meet ``{stride*j + offset}``: those
    whose residue agrees with ``offset`` modulo the gcd of the two strides."""
    hits = []
    for s, group in index[0].items():
        g = math.gcd(stride, s)
        r0 = offset % g
        if len(group) < s // g:
            hits.extend(idx for r, idxs in group.items() if r % g == r0 for idx in idxs)
        else:
            hits.extend(idx for r in range(r0, s, g) for idx in group.get(r, ()))
    return hits


def _followers(firsts: Sequence[StructuredOperator],
               seconds: Sequence[StructuredOperator]) -> list[set[int]]:
    """For each operator ``a`` in ``firsts``, the positions ``k`` in ``seconds``
    of the operators with an input term that an output term of ``a`` meets.
    For any other ``k``, ``compose(seconds[k], a)`` has no term.

    The input progressions of ``seconds`` are keyed once in the term index
    (``owner[n]`` is progression ``n``'s operator), and the columns of its
    points, read from the point counts, by owner.  A row of a point of ``a``
    meets the points there and the progressions ``_holding`` it; an output
    progression, those ``_meeting`` lists and the points on it.  Each
    answer is exact, so ``k`` is listed exactly when two terms meet.
    """
    progs: list[Term] = []
    owner: list[int] = []
    owners: dict[int, set[int]] = {}
    for k, op in enumerate(seconds):
        own, (_, per_col) = _parts(op)
        progs.extend(own)
        owner.extend([k] * len(own))
        for i in per_col:
            owners.setdefault(i, set()).add(k)
    index = _term_index(progs)
    follows = []
    for op in firsts:
        hits: set[int] = set()
        own, (per_row, _) = _parts(op)
        for i in per_row:
            hits.update(owners.get(i, ()))
            hits.update(owner[n] for n in _holding(index, i))
        for s, o in {(t.out_stride, t.out_offset) for t in own}:
            hits.update(k for i, ks in owners.items() if i >= o and (i - o) % s == 0 for k in ks)
            hits.update(owner[n] for n in _meeting(index, s, o))
        follows.append(hits)
    return follows


def _table(out: list[int], in_: list[int],
           coeffs: list[complex]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct rows and columns of points at distinct positions
    ``(out[k], in_[k])``, and the dense complex block holding each
    coefficient at its row and column, zero elsewhere."""
    out, in_ = _indices(out), _indices(in_)
    rows, cols = np.unique(out), np.unique(in_)
    block = np.zeros((len(rows), len(cols)), dtype=complex)
    block[np.searchsorted(rows, out), np.searchsorted(cols, in_)] = coeffs
    return rows, cols, block


def _indices(values: list[int]) -> np.ndarray:
    """``values`` as int64, or as Python ints when one passes int64: numpy
    would hold indices on both sides of 2**63 as float64, which rounds them."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _point_block(op: StructuredOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``op``'s point table: a block operator's own block, else ``_table`` of
    its points, read from its terms and not kept."""
    if type(op) is _BlockOperator:
        return op._block
    points = [t for t in op.terms if t.length == 1]
    return _table([t.out_offset for t in points], [t.in_offset for t in points],
                  [t.coeff for t in points])


def _on_progression(indices: Iterable[int], progressions: list[tuple[int, int]]) -> bool:
    """True when some index lies on some ``{stride*j + offset : j >= 0}``."""
    return any(i >= o and (i - o) % s == 0 for s, o in progressions for i in indices)


def _parts(op: StructuredOperator) -> tuple[tuple[Term, ...], tuple[dict, dict]]:
    """``op``'s progressions and its point counts ``(per_row, per_col)``,
    how many points sit in each row and in each column: a block operator's
    own, else from one walk of its terms, kept nowhere."""
    if type(op) is _BlockOperator:
        return op._progs, op._counts
    progs: list[Term] = []
    per_row: dict[int, int] = {}
    per_col: dict[int, int] = {}
    for t in op.terms:
        if t.length is None:
            progs.append(t)
        else:
            per_row[t.out_offset] = per_row.get(t.out_offset, 0) + 1
            per_col[t.in_offset] = per_col.get(t.in_offset, 0) + 1
    return tuple(progs), (per_row, per_col)


class _BlockOperator(StructuredOperator):
    """An operator made holding its progressions, point counts and point
    block (``_block_operator``), which builds its terms when they are first
    read: the progressions, then a point per nonzero entry of the block, in
    row-major order, which is canonical order.  The hook lives here alone
    because a class with ``__getattr__`` reads every attribute, slots
    included, more slowly."""

    __slots__ = ("_progs", "_counts", "_block")

    def __getattr__(self, name):
        # reached only when normal lookup fails: unbuilt terms, or no such name
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, cols, block = self._block
        r, c = np.nonzero(block)
        trusted = Term._trusted
        terms = self._progs + tuple([trusted(v, 1, o, 1, i, 1) for o, i, v in zip(
            rows[r].tolist(), cols[c].tolist(), block[r, c].tolist())])
        _setattr(self, "terms", terms)
        return terms


def _block_operator(tol: float, progs: tuple[Term, ...], counts: tuple,
                    block: tuple[np.ndarray, np.ndarray, np.ndarray]) -> _BlockOperator:
    """The operator canonical under ``tol`` with progressions ``progs`` (in
    canonical order) and a point at each nonzero entry of ``block``, given
    as ``(rows, cols, entries)`` with ascending rows and columns, and
    ``counts`` its points per row and per column."""
    op = object.__new__(_BlockOperator)
    for name, value in (("_tol", tol), ("_progs", progs), ("_counts", counts),
                        ("_block", block)):
        _setattr(op, name, value)
    return op


def _term_count(op: StructuredOperator) -> int:
    """``len(op.terms)``, without building a block operator's point terms."""
    held = type(op) is _BlockOperator  # its point count is in _counts, built or not
    return len(op._progs) + sum(op._counts[0].values()) if held else len(op.terms)


# The dense kernel pays only on dense point blocks.  It costs rows * inner
# * cols products however sparse the blocks are, where the join costs one
# multiply per matching pair: the sum over inner k of (a's points in
# column k) * (b's points in row k).  It runs when the matching pairs
# number at least _KERNEL_MIN_PAIRS and fill at least 1/_KERNEL_FILL of
# rows * inner * cols; _kernel_pays gives the timings behind both.  The
# counts it reads (_parts) and a factor's block (_point_block) are built
# from its terms unless it holds them.  The product holds its own
# block, and its point terms are built only when read (_finish_block), so a
# chain of kernel products and the max_deviation that decides it stay
# arrays.  An operator parsed from a table as dense holds its block from
# the start (_from_sums).
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


def _kernel_pays(a_counts: tuple, b_counts: tuple) -> bool:
    """True when the point x point products of ``a @ b`` are dense enough
    for the kernel: at least ``_KERNEL_MIN_PAIRS`` matching pairs, filling
    at least ``1/_KERNEL_FILL`` of the kernel's rows * inner * cols.  Each
    factor is given by its point counts (``_parts``).

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
    a_rows, per_col = a_counts
    per_row, b_cols = b_counts
    inner = per_col.keys() & per_row.keys()
    pairs = sum(per_col[k] * per_row[k] for k in inner)
    return pairs >= _KERNEL_MIN_PAIRS and \
        pairs * _KERNEL_FILL >= len(a_rows) * len(inner) * len(b_cols)


def _point_product(a: StructuredOperator, b: StructuredOperator):
    """The point table of ``a @ b`` from the dense kernel: the sorted rows of
    ``a``'s points, the sorted columns of ``b``'s and the product block over
    them, with ``a``'s and ``b``'s progressions, as ``(table, a_progs,
    b_progs)``; None when the dict join must build the table.

    The kernel applies when only point x point products reach the table:
    no column of a point of ``a`` lies on an output progression of ``b``
    and no row of a point of ``b`` on an input progression of ``a``.
    ``a``'s points are distinct and ascending by ``(row, col)``, as in every
    operator, so the join, too, sums each entry in ascending inner index.
    The factors' blocks are read (``_point_block``) only then.
    """
    if _term_count(a) * _term_count(b) < _KERNEL_MIN_PAIRS:  # bounds the matching pairs
        return None
    (a_progs, a_counts), (b_progs, b_counts) = _parts(a), _parts(b)
    if not _kernel_pays(a_counts, b_counts):
        return None
    b_outputs = [(t.out_stride, t.out_offset) for t in b_progs]
    a_inputs = [(t.in_stride, t.in_offset) for t in a_progs]
    if _on_progression(a_counts[1], b_outputs) or _on_progression(b_counts[0], a_inputs):
        return None
    rows, a_cols, a_block = _point_block(a)
    b_rows, cols, b_block = _point_block(b)
    _, ia, ib = np.intersect1d(a_cols, b_rows, assume_unique=True, return_indices=True)
    return (rows, cols, _block_product(a_block[:, ia], b_block[ib])), a_progs, b_progs


def _finish_block(fams: dict[tuple[int, int, int, int], complex], rows: np.ndarray,
                  cols: np.ndarray, prod: np.ndarray, tol: float,
                  lost: list | None) -> StructuredOperator:
    """``StructuredOperator._canonical(_finish(fams, dyds, tol, lost))``,
    the point sums ``dyds`` given as a table (a kernel product's, or a
    parsed operator's), with the bits of its terms, its ``lost`` list and
    the error it raises.  The result is the canonical block operator,
    holding its progressions and its point block, whose point terms are
    built on first read.  Where the arrays cannot finish the table, on a
    point sum that is not finite or whose modulus overflows, or a point
    that a family absorbs, the table's nonzero entries go through
    ``_finish`` as points instead, before anything is appended to
    ``lost``; a nan is nonzero, so a sum that is not finite gets there.
    Otherwise the progressions alone go through ``_finish``, which raises
    as it would on the whole table once the points are finite.

    Short of those, ``_finish`` only filters and sorts, and the arrays do
    the same with its bits, each modulus taken by ``_moduli``.  A kernel
    product's nonzero entries, in row-major order, are the join's points in
    its dict order, which ``lost`` follows, and the kept ones end up sorted
    by ``(row, col)``.  A zero entry is no point: ``_finish``
    drops a zero sum.  Only
    a point at a family's head or one step before it can be absorbed, and
    only under ``_absorb``'s conditions ``|c + cf| <= tol`` (head) and
    ``|c - cf| <= tol`` (the step before); when no point meets them
    against the families as filtered, no absorption happens at all.
    """
    def as_points():
        r, c = np.nonzero(prod)
        dyds = dict(zip(zip(rows[r].tolist(), cols[c].tolist()), prod[r, c].tolist()))
        return StructuredOperator._canonical(_finish(fams, dyds, tol, lost))

    mod = _moduli(prod.real, prod.imag)
    if not np.isfinite(mod).all():
        return as_points()
    fam_lost: list = []
    out = _finish(fams, {}, tol, fam_lost)
    keep = mod > tol
    if out:
        at_row = dict(zip(rows.tolist(), count()))
        at_col = dict(zip(cols.tolist(), count()))
        try:
            for t in out:
                os_, oo, is_, io = t.out_stride, t.out_offset, t.in_stride, t.in_offset
                for r, k, head in ((oo, io, True), (oo - os_, io - is_, False)):
                    i, j = at_row.get(r), at_col.get(k)
                    if i is None or j is None or not keep[i, j]:
                        continue
                    c = prod[i, j].item()
                    if abs(c + t.coeff if head else c - t.coeff) <= tol:
                        return as_points()
        except OverflowError:
            return as_points()
    if lost is not None:
        r, c = np.nonzero(~keep & (prod != 0))
        lost.extend(zip(zip(rows[r].tolist(), cols[c].tolist()), mod[r, c].tolist()))
        lost.extend(fam_lost)
    if not keep.any():
        return StructuredOperator._canonical(out)
    block = np.where(keep, prod, 0)
    live_rows, live_cols = keep.any(axis=1), keep.any(axis=0)
    if not (live_rows.all() and live_cols.all()):  # a block spans only its points
        live = np.ix_(live_rows, live_cols)
        rows, cols, block, keep = rows[live_rows], cols[live_cols], block[live], keep[live]
    counts = (dict(zip(rows.tolist(), keep.sum(axis=1).tolist())),
              dict(zip(cols.tolist(), keep.sum(axis=0).tolist())))
    return _block_operator(tol, out, counts, (rows, cols, block))


def _from_sums(fams: dict[tuple[int, int, int, int], complex],
               dyds: dict[tuple[int, int], complex], tol: float) -> StructuredOperator:
    """``StructuredOperator._canonical(_finish(fams, dyds, tol))``, with the
    bits of its terms and the error it raises.  When the points are dense
    enough that composing the operator's adjoint with it pays for the
    kernel (``_kernel_pays``, on the counts of every summed point), they
    are put in a table and finished by ``_finish_block``: the operator
    holds its block and builds its point terms only when read."""
    if len(dyds) ** 2 >= _KERNEL_MIN_PAIRS:  # bounds the matching pairs
        per_row, per_col = Counter(o for o, _ in dyds), Counter(i for _, i in dyds)
        if _kernel_pays((per_col, per_row), (per_row, per_col)):
            rows, cols, table = _table([o for o, _ in dyds], [i for _, i in dyds],
                                       list(dyds.values()))
            return _finish_block(fams, rows, cols, table, tol, None)
    return StructuredOperator._canonical(_finish(fams, dyds, tol))


def compose(a: StructuredOperator, b: StructuredOperator,
            lost: list | None = None) -> StructuredOperator:
    """Operator product ``a @ b`` (apply ``b`` first), summed straight into
    canonical form.

    ``b``'s terms are keyed by output in the term index.  A point of ``a``
    meets the terms ``_holding`` its input: the points there and the
    progressions of its residue that start at or below it.  A progression
    of ``a`` meets the progressions whose output residue agrees with its
    input offset modulo the gcd of the two strides (``_meeting``; solutions
    then exist), and the points on its input progression.  For each term of
    ``a`` the partners are taken in ``b``'s term order, so every coefficient
    is summed in the order of the all-pairs product and keeps its bits.

    When only point x point products reach the point table (no point of
    ``a`` has its column on a progression of ``b``, no point of ``b`` its
    row on an input progression of ``a``) and the point blocks are dense
    (``_kernel_pays``: at least ``_KERNEL_MIN_PAIRS`` matching pairs,
    filling at least half of rows * inner * cols), that table comes from
    a numpy kernel over the two blocks instead (``_point_product``).  It
    keeps the join's bits: ``a``'s points are in canonical order, as every
    operator's are, so the join sums each entry in ascending inner index,
    and the kernel adds its products in that order too, one index at a
    time from ``0j``, each formed by CPython's complex multiply in real
    arithmetic.  The absent pairs add
    only signed zeros, which leave a nonzero sum as it is, and a sum that
    starts at ``+0.0`` never turns into ``-0.0`` (an exact zero sum is
    ``+0.0``).  Then only ``a``'s progressions go through the join, and
    they meet ``b``'s progressions alone.  ``_finish_block`` finishes the
    kernel's table: the product keeps its point block and builds its point
    terms only when they are read.  The join's table goes through
    ``_finish``, which filters, absorbs and orders.  Either appends to
    ``lost``, when given, the entries its tolerance filter and absorptions
    leave out of the product.
    """
    tol = current().tolerance
    kernel = _point_product(a, b)
    table, a_terms, b_terms = kernel if kernel else (None, a.terms, b.terms)
    # canonical: progressions first
    points = () if kernel else b_terms[sum(1 for t in b_terms if t.length is None):]
    index = _term_index(b_terms, outputs=True)
    fams: dict[tuple[int, int, int, int], complex] = {}
    dyds: dict[tuple[int, int], complex] = {}
    for ta in a_terms:
        ca, ai, ao = ta.coeff, ta.in_offset, ta.out_offset
        if ta.length == 1:
            for idx in _holding(index, ai):  # a point of b has strides 1
                tb = b_terms[idx]
                key = (ao, tb.in_stride * ((ai - tb.out_offset) // tb.out_stride) + tb.in_offset)
                dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
            continue
        s1, os_ = ta.in_stride, ta.out_stride
        for idx in sorted(_meeting(index, s1, ai)):
            p = _compose_terms(ta, b_terms[idx])
            sig = p[1:5]
            fams[sig] = fams.get(sig, 0.0) + p[0]
        for tb in points:
            d = tb.out_offset - ai
            if d >= 0 and d % s1 == 0:
                key = (os_ * (d // s1) + ao, tb.in_offset)
                dyds[key] = dyds.get(key, 0j) + ca * tb.coeff
    if kernel:
        return _finish_block(fams, *table, tol, lost)
    return StructuredOperator._canonical(_finish(fams, dyds, tol, lost))


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
    its residue that is neither.  Each entry is summed in term order
    (``_term_deviation``, which takes any term lists).  When either operand
    holds a point block and the other holds one too or no points, the
    points are compared as arrays with the same bits (``_sum_deviation``),
    which relies on both operands' canonical order.
    """
    if type(a) is not _BlockOperator and type(b) is not _BlockOperator:
        return _term_deviation(a.terms, b.terms)
    return _sum_deviation([a], [b])


def _sum_deviation(firsts: Sequence[StructuredOperator], seconds: Sequence[StructuredOperator]):
    """``_term_deviation`` of the terms of ``firsts`` against those of
    ``seconds``, the operators of each summed in the given order, with the
    points compared as arrays unless the terms must decide it: when an
    operator with points holds no block, no operator holds one, or a
    modulus on the grid is not finite (where ``abs`` may raise).

    The grid is the union of the blocks' rows and columns, and it holds
    every point.  Each side is summed on it as the terms sum it, operator
    by operator: the entries the operator's progressions hold on the grid,
    then its block.  The terms add only where a term holds the position,
    the arrays add zeros too, and a zero changes only the sign of a zero
    sum, which no modulus reads.  Off the grid only progressions hold
    entries, so what remains is the progressions' own deviation with the
    grid positions they hold skipped.  A modulus is taken by ``_moduli``,
    and the first largest in row-major order is at the least position; on
    a tie with the progressions' own, the least position wins.
    """
    ops = (*firsts, *seconds)
    held = [op._block for op in ops if type(op) is _BlockOperator]
    parts = [_parts(op) for op in ops] if held else []
    if held and all(type(op) is _BlockOperator or not counts[0]
                    for op, (_, counts) in zip(ops, parts)):
        rows, cols = _union([r for r, _, _ in held]), _union([c for _, c, _ in held])
        row_list, at_col = rows.tolist(), dict(zip(cols.tolist(), count()))
        skip: set[tuple[int, int]] = set()
        first, second = slice(len(firsts)), slice(len(firsts), None)

        def total(side):
            grid = np.zeros((len(rows), len(cols)), dtype=complex)
            for op, (progs, _) in zip(ops[side], parts[side]):
                for t in progs:
                    os_, oo, is_, io = t.out_stride, t.out_offset, t.in_stride, t.in_offset
                    for i, r in enumerate(row_list):
                        if r >= oo and (r - oo) % os_ == 0:
                            c = (r - oo) // os_ * is_ + io
                            j = at_col.get(c)
                            if j is not None:
                                grid[i, j] += t.coeff
                                skip.add((r, c))
                if type(op) is _BlockOperator:
                    r, c, block = op._block
                    if block.shape == grid.shape:  # its rows and columns are the grid's
                        grid += block
                    else:
                        grid[np.ix_(np.searchsorted(rows, r), np.searchsorted(cols, c))] += block
            return grid

        with np.errstate(over="ignore", invalid="ignore"):
            diff = total(first) - total(second)
        grid = _moduli(diff.real, diff.imag)
        if np.isfinite(grid).all():
            found = [_term_deviation(tuple(t for progs, _ in parts[first] for t in progs),
                                     tuple(t for progs, _ in parts[second] for t in progs), skip)]
            if grid.size:
                i, j = divmod(int(grid.argmax()), grid.shape[1])
                found.append((float(grid[i, j]), (int(rows[i]), int(cols[j]))))
            return _worst(found)
    return _term_deviation(tuple(chain.from_iterable(op.terms for op in firsts)),
                           tuple(chain.from_iterable(op.terms for op in seconds)))


def _union(indices: list[np.ndarray]) -> np.ndarray:
    """The sorted union of sorted distinct index arrays: the first, when
    they are all equal, as the blocks of one instrument's products are."""
    first = indices[0]
    if all(a.shape == first.shape and (a == first).all() for a in indices[1:]):
        return first
    return np.unique(np.concatenate(indices))


def _worst(pairs: Iterable[tuple[float, tuple[int, int] | None]]):
    """The largest of ``(deviation, position)`` pairs, at the least position
    attaining it; ``(0.0, None)`` when none exceeds 0."""
    dev, pos = 0.0, None
    for d, key in pairs:
        if d > dev or (d == dev and pos is not None and key < pos):
            dev, pos = d, key
    return dev, pos


def _term_deviation(a_terms: tuple[Term, ...], b_terms: tuple[Term, ...],
                    skip: frozenset | set = frozenset()):
    """``max_deviation`` of two term lists in any order, decided on the
    terms, over the positions not in ``skip``.  A position skipped counts as
    fixed, as a point's does, so every line still evaluates the first later
    row of its residue that is neither fixed nor skipped."""
    terms = a_terms + b_terms
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
    fixed |= skip
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

    ea, eb = entries(a_terms), entries(b_terms)
    keys = ea.keys() | eb.keys()
    if skip:
        keys -= skip
    return _worst((abs(ea.get(key, 0.0) - eb.get(key, 0.0)), key) for key in keys)


def equals(a: StructuredOperator, b: StructuredOperator) -> bool:
    dev, _ = max_deviation(a, b)
    return dev <= current().tolerance


# -- structural predicates -------------------------------------------------


def _meeting_pairs(terms: Sequence[Term], outputs: bool = False):
    """``(n, first, agree)`` for each pair of terms the term index lists as meeting
    on their inputs (outputs, with ``outputs``): ``n`` the later position, ``first``
    the least shared index, ``agree`` whether both send each shared one alike."""
    index = _term_index(terms, outputs)
    ins = operator.attrgetter("in_stride", "in_offset")
    outs = operator.attrgetter("out_stride", "out_offset")
    side, far = (outs, ins) if outputs else (ins, outs)
    for n, t in enumerate(terms):
        stride, offset = side(t)
        if t.length is None:
            partners = [k for k in _meeting(index, stride, offset) if k > n]
        else:  # a point meets its progressions here, not from their side
            partners = [k for k in _holding(index, offset) if k > n or terms[k].length is None]
        for k in partners:
            u = terms[k]
            k0, j0, kstep, jstep, length = _match_progressions(stride, offset, t.length,
                                                               *side(u), u.length)
            (f1, g1), (f2, g2) = far(t), far(u)
            yield (max(n, k), stride * k0 + offset,
                   f1 * k0 + g1 == f2 * j0 + g2 and (length == 1 or f1 * kstep == f2 * jstep))


def is_monomial(op: StructuredOperator) -> bool:
    """True when no basis column carries two entries at different rows.

    Decided exactly: any clash between two terms lives on the intersection
    of their input progressions, which is itself a progression, and only
    the pairs that the term index lists as meeting there are solved.  A
    column that a block operator's counts give two points answers first:
    points sit at distinct positions, so two in one column are at different rows.
    """
    if type(op) is _BlockOperator and any(n > 1 for n in op._counts[1].values()):
        return False
    return all(agree for _, _, agree in _meeting_pairs(op.terms))


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
    """Whether ``op`` equals its diagonal part, decided by ``equals``."""
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
    the block's largest singular value and the progressions' norm.  The split
    is decided on the progressions and the points' counts per row and
    column (``_parts``), at a cost that follows them, not the largest index.
    Any other operator raises UnsupportedForm naming the reason.
    """
    if is_monomial(op):
        return _monomial_norm(op), "exact"
    fams, (per_row, per_col) = _parts(op)
    tail = StructuredOperator._canonical(fams)
    if not is_monomial(tail):
        raise UnsupportedForm("operator norm undecided: the progressions are not monomial")
    outputs = [(t.out_stride, t.out_offset) for t in tail.terms]
    inputs = [(t.in_stride, t.in_offset) for t in tail.terms]
    if _on_progression(per_row, outputs) or _on_progression(per_col, inputs):
        for t in op.dyads:  # name the first point, in canonical order, on one
            for kind, i, progs in (("row", t.out_offset, outputs),
                                   ("column", t.in_offset, inputs)):
                if _on_progression((i,), progs):
                    raise UnsupportedForm(
                        f"operator norm undecided: {kind} {i} holds a point and a progression")
    _, _, block = _point_block(op)
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
