"""Measurement instruments and their effect operators.

An instrument is a finite, labeled family of structured contractions whose
squared moduli resolve the identity.  Builders cover the worked families
used throughout the tests: a one-parameter-per-outcome repeatable family,
its non-repeatable sibling with the same effects, a two-outcome example
with two-dimensional deposit blocks, projective instruments over index-set
partitions, and reassembly from shift/deposit parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from . import opalgebra as oa
from .config import Settings, current
from .errors import (BadProbabilityVector, CompletenessViolation,
                     ContractionViolation, CoverageViolation, PartsViolation,
                     PeriodCapExceeded, UnsupportedForm)
from .indexsets import IndexSet
from .opalgebra import Dyad, Family, StructuredOperator

Outcome = int | str


def _sort_key(label: Outcome):
    return (0, label, "") if isinstance(label, int) else (1, 0, label)


@dataclass(frozen=True)
class _Labeled:
    """Operators keyed by outcome label, in label order."""

    entries: tuple[tuple[Outcome, StructuredOperator], ...]

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(label for label, _ in self.entries)

    def _lookup(self, label: Outcome) -> StructuredOperator:
        for lab, op in self.entries:
            if lab == label:
                return op
        raise KeyError(label)

    def items(self):
        return iter(self.entries)


@dataclass(frozen=True)
class Instrument(_Labeled):
    """Labeled measurement operators, ordered by outcome label."""

    # (tolerance, Povm): the effects composed under that tolerance, kept
    _povm: tuple[float, "Povm"] | None = field(default=None, init=False, repr=False,
                                               compare=False)

    operator = _Labeled._lookup

    def povm(self) -> "Povm":
        """The effects ``M_e* M_e``, composed once per active tolerance and
        kept, as :class:`StructuredOperator` keeps the tolerance its terms are
        canonical under; under another tolerance they are composed afresh."""
        tol = current().tolerance
        kept = self._povm
        if kept is None or kept[0] != tol:
            kept = (tol, povm(self))
            object.__setattr__(self, "_povm", kept)
        return kept[1]


@dataclass(frozen=True)
class Povm(_Labeled):
    """Effect operators ``P_e = M_e* M_e``, in outcome label order."""

    # (Settings, result): the deviation decided under those settings, kept
    _deviation: tuple[Settings, tuple] | None = field(default=None, init=False, repr=False,
                                                      compare=False)
    # Schur bound on the norm of what composing the effects left out (see
    # povm); None for effects given as they are
    _lost: float | None = field(default=None, init=False, repr=False, compare=False)

    effect = _Labeled._lookup

    def identity_deviation(self) -> tuple[float, tuple[int, int] | None]:
        """``max_deviation`` of ``sum_e P_e`` from the identity: the largest
        entry of ``sum_e P_e - I`` and its least position, every entry summed
        over the effects' terms in label order.  Effects that hold point
        blocks are summed as arrays (``opalgebra._sum_deviation``), with the
        same bits.  Decided once per active settings and kept (the period cap
        bounds the decision); a decision that raises is not kept."""
        active = current()
        kept = self._deviation
        if kept is None or kept[0] != active:
            kept = (active, oa._sum_deviation([p for _, p in self.entries],
                                              [StructuredOperator.identity()]))
            object.__setattr__(self, "_deviation", kept)
        return kept[1]


def _contractive_by_completeness(inst: Instrument, tol: float) -> bool:
    """True when the effects resolve the identity closely enough that every
    outcome is a contraction.

    With ``D = sum_e M_e* M_e - I``, ``M_e* M_e <= I + D``, so
    ``||M_e||^2 <= 1 + ||D||``.  The effects as composed differ from the
    ``M_e* M_e`` by what ``compose``'s tolerance filter and absorptions left
    out, ``E``; the Schur test bounds ``||E||`` by its largest row or column
    sum (``Povm._lost``).  Every term of the composed ``sum_e P_e - I`` (each
    effect's, and the identity) holds at most one entry per row and per
    column, and every entry is at most ``dev``, so a row or column holds at
    most ``K = 1 + (progressions) + (most points in one row or column)``
    entries, one more than ``opalgebra._schur`` counts from the effects'
    progressions and point counts (``_parts``), and ``||D|| <= K dev + ||E||``.
    ``K dev + ||E|| <= tol`` makes every norm at most ``sqrt(1 + tol) <=
    1 + tol / 2``, leaving ``tol / 2`` for the rounding of the sums.  An
    instrument whose POVM or deviation cannot be built (a non-finite sum, a
    period over the cap) reads False, as does one holding a non-operator or
    an operator canonical under another tolerance, whose adjoint is
    canonicalized afresh.
    """
    if not all(isinstance(op, StructuredOperator) and op._tol == tol for _, op in inst.entries):
        return False
    try:
        pv = inst.povm()
        dev, _ = pv.identity_deviation()
    except (ValueError, PeriodCapExceeded):
        return False
    parts = [oa._parts(p) for _, p in pv.entries]
    K = 1 + oa._schur(sum(len(progs) for progs, _ in parts), [counts for _, counts in parts])
    return K * dev + pv._lost <= tol


def make_instrument(entries: Mapping[Outcome, StructuredOperator],
                    check_completeness: bool = True) -> Instrument:
    """Validate and freeze a labeled operator family.

    Each operator must be a contraction.  The POVM is composed first and kept
    on the instrument (see :meth:`Instrument.povm`); when it resolves the
    identity within the Schur bound, counting what composing it dropped
    (see ``_contractive_by_completeness``), every outcome is a contraction
    by completeness, and no norm is taken.  Otherwise each operator's exact norm
    (see :func:`qrepeat.opalgebra.operator_norm`, which raises UnsupportedForm
    when it cannot be decided) must be at most ``1 + tol``, outcome by
    outcome.  When ``check_completeness`` is set the squared moduli must sum
    to the identity, decided exactly on the terms (see
    :meth:`Povm.identity_deviation`).
    """
    if not entries:
        raise ValueError("an instrument needs at least one outcome")
    ordered = tuple(sorted(entries.items(), key=lambda kv: _sort_key(kv[0])))
    tol = current().tolerance
    inst = Instrument(ordered)
    if not _contractive_by_completeness(inst, tol):
        for label, op in ordered:
            if not isinstance(op, StructuredOperator):
                raise TypeError(f"outcome {label!r} is not a StructuredOperator")
            try:
                norm, _ = oa.operator_norm(op)
            except UnsupportedForm as exc:
                raise UnsupportedForm(f"operator for outcome {label!r}: {exc}") from exc
            if norm > 1.0 + tol:
                raise ContractionViolation(
                    f"operator for outcome {label!r} has norm {norm:.6g} > 1",
                    outcome=label, norm=norm)
    if check_completeness:
        dev, pos = inst.povm().identity_deviation()
        if dev > tol:
            raise CompletenessViolation(
                f"sum of squared moduli deviates from identity by {dev:.3g} at {pos}",
                position=pos, deviation=dev)
    return inst


def povm(inst: Instrument) -> Povm:
    """The effects ``M_e* M_e``, with the Schur bound (``opalgebra._schur``)
    of the entries their composition left out kept as ``_lost``."""
    lost: list = []
    pv = Povm(tuple((label, oa.compose(oa.adjoint(op), op, lost))
                    for label, op in inst.items()))
    object.__setattr__(pv, "_lost", oa._schur(
        sum([weight for pos, weight in lost if pos is None]),
        [({pos[0]: weight}, {pos[1]: weight}) for pos, weight in lost if pos is not None]))
    return pv


# -- worked families -------------------------------------------------------


def _check_probability_vector(p: Iterable[float], n: int) -> tuple[float, ...]:
    if n < 1:
        raise BadProbabilityVector("n must be at least 1")
    p = tuple(float(x) for x in p)
    tol = current().tolerance
    if not all(-tol <= x <= 1.0 + tol for x in p):  # so nan fails
        raise BadProbabilityVector(f"entries must lie in [0, 1]: {p}")
    if not abs(sum(p) - 1.0) <= tol:
        raise BadProbabilityVector(f"entries must sum to 1: {p}")
    if len(p) != n:
        raise BadProbabilityVector(f"expected {n} probabilities, got {len(p)}")
    return tuple(min(max(x, 0.0), 1.0) for x in p)


def build_example_family(n: int, p: Iterable[float]) -> Instrument:
    """Repeatable instrument with outcomes ``1..n``.

    Outcome ``l`` maps |0> to |l> with amplitude ``sqrt(p_l)`` and shifts
    the residue class ``l mod n`` upward by ``n``.  The effects are
    ``p_l |0><0| + sum_j |nj+l><nj+l|``, so for ``0 < p_l < 1`` no outcome
    is projective, yet every repetition reproduces the first result.
    """
    p = _check_probability_vector(p, n)
    entries = {}
    for l in range(1, n + 1):
        terms = [Family(1.0, n, n + l, n, l)]
        amp = math.sqrt(p[l - 1])
        if amp > 0:
            terms.append(Dyad(amp, l, 0))
        entries[l] = StructuredOperator(terms)
    return make_instrument(entries)


def build_nonrepeatable_sibling(n: int, p: Iterable[float]) -> Instrument:
    """Instrument with the same effects as :func:`build_example_family`.

    Outcome ``l`` keeps |0> in place instead of shifting it out of the way,
    which destroys repeatability while leaving every outcome probability
    unchanged.
    """
    p = _check_probability_vector(p, n)
    entries = {}
    for l in range(1, n + 1):
        terms = [Family(1.0, n, l, n, l)]
        amp = math.sqrt(p[l - 1])
        if amp > 0:
            terms.append(Dyad(amp, 0, 0))
        entries[l] = StructuredOperator(terms)
    return make_instrument(entries)


def build_binary_example(p1: float, p2: float) -> Instrument:
    """Two-outcome repeatable instrument with a two-dimensional deposit block.

    Outcome 1 carries |0> to |2> and |1> to |4> with amplitudes
    ``sqrt(p1), sqrt(p2)`` and shifts even indices >= 2 up by four; outcome 2
    mirrors this on odd indices with the complementary amplitudes.
    """
    for name, val in (("p1", p1), ("p2", p2)):
        if not 0.0 <= val <= 1.0:
            raise BadProbabilityVector(f"{name} must lie in [0, 1], got {val}")
    m1 = [Family(1.0, 2, 6, 2, 2)]
    if p1 > 0:
        m1.append(Dyad(math.sqrt(p1), 2, 0))
    if p2 > 0:
        m1.append(Dyad(math.sqrt(p2), 4, 1))
    m2 = [Family(1.0, 2, 7, 2, 3)]
    if p1 < 1:
        m2.append(Dyad(math.sqrt(1.0 - p1), 3, 0))
    if p2 < 1:
        m2.append(Dyad(math.sqrt(1.0 - p2), 5, 1))
    return make_instrument({1: StructuredOperator(m1), 2: StructuredOperator(m2)})


def build_orthogonal(index_sets: Mapping[Outcome, IndexSet]) -> Instrument:
    """Projective instrument from a partition of the basis into index sets, or
    CoverageViolation; the projectors then sum to ``I`` exactly, unchecked."""
    labels = sorted(index_sets, key=_sort_key)
    union = IndexSet.empty()
    for label in labels:
        s = index_sets[label]
        overlap = union.intersect(s)
        if not overlap.is_empty:
            raise CoverageViolation(
                f"index sets overlap at {overlap.first()} (outcome {label!r})")
        union = union.union(s)
    if union != IndexSet.full():
        missing = IndexSet.full().difference(union)
        raise CoverageViolation(f"basis index {missing.first()} is not covered")
    return make_instrument({label: oa.projector(index_sets[label]) for label in labels},
                           check_completeness=False)


def build_from_parts(
        parts: Mapping[Outcome, tuple[StructuredOperator, StructuredOperator]]) -> Instrument:
    """Assemble ``M_e = V_e + W_e`` from shift and deposit blocks.

    Verifies that each ``V_e`` is a partial isometry, that deposits feed
    into the matching shift range, that distinct outcomes have orthogonal
    blocks, and that the squared moduli resolve the identity; the result is
    then re-certified for repeatability rather than trusted.  As ``X* Y``
    is the adjoint of ``Y* X``, ``W_e* V_e = 0`` is checked in one order and
    outcome pairs unordered; it also makes the blocks' effects sum to
    ``sum_e M_e* M_e``, so completeness is not checked again on assembly.
    """
    from .certify import certify_repeatable

    tol = current().tolerance
    labels = sorted(parts, key=_sort_key)
    zero = StructuredOperator.zero()

    def check(cond: str, deviation: tuple[float, tuple[int, int] | None]):
        dev, pos = deviation
        if dev > tol:
            raise PartsViolation(f"{cond}: deviation {dev:.3g} at {pos}",
                                 condition=cond, position=pos, deviation=dev)

    adjoints = {label: (oa.adjoint(v), oa.adjoint(w)) for label, (v, w) in parts.items()}
    effects = []
    for label in labels:
        (v, w), (vd, wd) = parts[label], adjoints[label]
        gram, wgram = oa.compose(vd, v), oa.compose(wd, w)
        check(f"shift block {label!r} is a partial isometry",
              oa.max_deviation(oa.compose(gram, gram), gram))
        check(f"blocks of outcome {label!r} have orthogonal ranges",
              oa.max_deviation(oa.compose(wd, v), zero))
        # repeated application must act isometrically on whatever W emits
        check(f"deposit of outcome {label!r} lands in the shift support",
              oa.max_deviation(oa.compose(gram, w), w))
        check(f"deposit of outcome {label!r} composes to zero with itself",
              oa.max_deviation(oa.compose(w, w), zero))
        check(f"shift of outcome {label!r} avoids the deposit block",
              oa.max_deviation(oa.compose(wgram, v), zero))
        effects.append((label, gram + wgram))
    for k, la in enumerate(labels):
        for lb in labels[k + 1:]:
            check(f"shift ranges of {la!r} and {lb!r} are orthogonal",
                  oa.max_deviation(oa.compose(adjoints[la][0], parts[lb][0]), zero))
            check(f"deposits of {la!r} and {lb!r} are orthogonal",
                  oa.max_deviation(oa.compose(adjoints[la][1], parts[lb][1]), zero))
    check("blocks resolve the identity", Povm(tuple(effects)).identity_deviation())

    inst = make_instrument({label: parts[label][0] + parts[label][1] for label in labels},
                           check_completeness=False)
    report = certify_repeatable(inst)
    if not report.repeatable:
        first = report.witnesses[0] if report.witnesses else None
        raise PartsViolation(
            "assembled instrument failed repeatability certification"
            + (f" ({first.condition} at {first.position})" if first else ""),
            condition="repeatability",
            position=first.position if first else None,
            deviation=first.deviation if first else None)
    return inst
