"""Exact certification of perfect repeatability and POVM structure.

The structural test is the isometry-on-range identity
``M_e* M_e M_e = M_e`` combined with pairwise annihilation
``M_f M_e = 0``; both are decided exactly on the terms, at every
position.  POVM classification splits diagonal effects into projective
and degenerate parts, exactly as well.  Checks of these decisions by
other means (dense windows, sampled ratios) live in
:mod:`qrepeat.crosscheck`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from . import opalgebra as oa
from .config import current
from .errors import InvalidPovm, UnsupportedForm
from .indexsets import IndexSet, from_parts
from .instruments import Instrument, Outcome, Povm
from .opalgebra import Dyad, Family, StructuredOperator


@dataclass(frozen=True)
class Witness:
    condition: str
    position: tuple[int, int] | None
    deviation: float


@dataclass(frozen=True)
class OutcomeChecks:
    isometric_on_range: bool
    range_in_support: bool | None  # None when the operator is not monomial


@dataclass(frozen=True)
class PairChecks:
    product_vanishes: bool
    ranges_orthogonal: bool


@dataclass(frozen=True)
class CertificationReport:
    repeatable: bool
    orthogonal: bool
    complete: bool
    per_outcome: dict[Outcome, OutcomeChecks]
    per_pair: dict[tuple[Outcome, Outcome], PairChecks]
    witnesses: tuple[Witness, ...]


def certify_repeatable(inst: Instrument) -> CertificationReport:
    """Decide perfect repeatability structurally and collect diagnostics.

    The verdict is completeness plus, for every outcome, the
    isometry-on-range identity, plus annihilation of every ordered pair of
    distinct outcomes (``M_f M_e`` and ``M_e M_f`` are different operators).
    Range/support inclusion and pairwise range orthogonality are reported
    as diagnostics only; the latter is decided once per unordered pair, as
    ``M_e* M_f`` is the adjoint of ``M_f* M_e``, when every operator is
    canonical under the active tolerance.  Under another, each adjoint is
    canonicalized afresh and may drop a term its operator keeps, so each
    ordered pair is decided.  A pair whose terms cannot
    meet has a zero product, so it is decided without building it: one term
    index over all outcomes lists the pairs that meet, at a cost that
    follows the number of terms, not the largest index.
    """
    tol = current().tolerance
    witnesses: list[Witness] = []

    pv = inst.povm()
    dev, pos = pv.identity_deviation()
    complete = dev <= tol
    if not complete:
        witnesses.append(Witness("completeness", pos, dev))

    adjoints = {label: oa.adjoint(op) for label, op in inst.items()}
    exact = all(op._tol == tol for _, op in inst.items())  # every adjoint only re-sorted
    per_outcome: dict[Outcome, OutcomeChecks] = {}
    for label, op in inst.items():
        triple = oa.compose(adjoints[label], oa.compose(op, op))
        dev, pos = oa.max_deviation(triple, op)
        iso = dev <= tol
        if not iso:
            witnesses.append(Witness(f"isometry on range ({label!r})", pos, dev))
        if oa.is_monomial(op):
            ris = op.range_set().is_subset(op.support_set())
        else:
            ris = None
        per_outcome[label] = OutcomeChecks(iso, ris)

    zero = StructuredOperator.zero()
    ops = [op for _, op in inst.items()]
    # a pair missing here has no meeting terms: its product is 0, decided unbuilt
    follows = oa._followers(ops, ops)
    overlaps = oa._followers(ops, list(adjoints.values()))  # M_f* takes M_f's outputs
    per_pair: dict[tuple[Outcome, Outcome], PairChecks] = {}
    for a, (e, op_e) in enumerate(inst.items()):
        for b, (f, op_f) in enumerate(inst.items()):
            if a == b:
                continue
            dev, pos = oa.max_deviation(oa.compose(op_f, op_e), zero) \
                if b in follows[a] else (0.0, None)
            vanish = dev <= tol
            if not vanish:
                witnesses.append(Witness(f"annihilation ({f!r} after {e!r})", pos, dev))
            ranges = per_pair[(f, e)].ranges_orthogonal if exact and (f, e) in per_pair \
                else b not in overlaps[a] \
                or oa.max_deviation(oa.compose(adjoints[f], op_e), zero)[0] <= tol
            per_pair[(e, f)] = PairChecks(vanish, ranges)

    repeatable = complete and all(c.isometric_on_range for c in per_outcome.values()) \
        and all(c.product_vanishes for c in per_pair.values())
    orthogonal = check_orthogonal(pv)
    return CertificationReport(repeatable, orthogonal, complete,
                               per_outcome, per_pair, tuple(witnesses))


def check_orthogonal(pv: Povm) -> bool:
    """True when the effects are mutually orthogonal projections.  ``P_e P_f
    = 0`` is decided for e before f only: ``P_f P_e`` is its adjoint."""
    for k, (_, pe) in enumerate(pv.entries):
        if not oa.equals(oa.compose(pe, pe), pe):
            return False
        for _, pf in pv.entries[k + 1:]:
            if not oa.equals(oa.compose(pe, pf), StructuredOperator.zero()):
                return False
    return True


# -- POVM classification ---------------------------------------------------


@dataclass(frozen=True)
class PovmClassification:
    """Split of diagonal effects into projective and degenerate parts.

    Every effect decomposes as ``P_e = Z_e + T_e`` with orthogonal
    projectors ``Z_e``, a residual projector ``z_omega`` absorbing the
    degenerate indices, and positive ``T_e`` supported inside ``z_omega``
    with ``sum_e T_e = z_omega``.
    """

    admits_repeatable_form: bool
    z: dict[Outcome, StructuredOperator]
    t: dict[Outcome, StructuredOperator]
    z_omega: StructuredOperator
    z_sets: dict[Outcome, IndexSet]
    omega_set: IndexSet


def _diagonal(op: StructuredOperator, n: int) -> list[float]:
    """Real parts of the diagonal entries ``0 .. n-1`` of ``op``, each summed
    over the terms in term order, in one walk of the terms."""
    vals = [0.0 + 0.0j] * n
    for t in op.terms:
        run = oa._diagonal_run(t)
        if run is None:
            continue
        first, stride, length = run
        for i in range(first, n if length is None else min(n, first + 1), stride):
            vals[i] += t.coeff
    return [v.real for v in vals]


def classify_povm(pv: Povm) -> PovmClassification:
    """Classify a basis-diagonal POVM into its repeatable normal form.

    Indices whose effect-value vector is a 0/1 indicator join the
    projective part ``Z_e`` of the unique outcome carrying the 1; all other
    indices join the shared degenerate block.  A repeatable instrument
    exists exactly when each outcome has ``T_e = 0`` or an infinite ``Z_e``,
    as a repeatable ``M_e`` maps into ``Z_e`` with rank ``|Z_e| + |supp T_e|``.
    Each index joins one part, so ``Z_e T_e = 0`` and ``Z_omega + sum_e Z_e = I``
    by construction; ``P_e = Z_e + T_e`` and ``sum_e T_e = Z_omega`` are checked.
    """
    tol = current().tolerance
    for label, p in pv.items():
        if not oa.is_diagonal(p):
            raise UnsupportedForm(f"effect {label!r} is not diagonal in the canonical basis")
    dev, pos = pv.identity_deviation()
    if dev > tol:
        raise InvalidPovm(f"effects deviate from a resolution of identity by {dev:.3g} at {pos}")

    bound = 1
    period = 1
    for _, p in pv.items():
        for t in p.terms:
            bound = max(bound, t.out_offset + 1, t.in_offset + 1)
            period = math.lcm(period, t.in_stride)

    labels = pv.outcomes
    # every index from the bound on shares its diagonal entries with its
    # representative in [bound, bound + period)
    diag = {label: _diagonal(pv.effect(label), bound + period) for label in labels}

    # one walk over the points below the bound, then one representative per
    # residue; ``None`` keys the degenerate block omega
    parts: dict[Outcome | None, tuple[list, list]] = {who: ([], []) for who in (*labels, None)}
    t_terms: dict[Outcome, list] = {label: [] for label in labels}
    for i in chain(range(bound), (bound + (r - bound) % period for r in range(period))):
        vals = {label: diag[label][i] for label in labels}
        if any(v < -tol for v in vals.values()):
            raise InvalidPovm(f"effect diagonal is negative at index {i}")
        ones = [label for label, v in vals.items() if abs(v - 1.0) <= tol]
        zeros = [label for label, v in vals.items() if abs(v) <= tol]
        who = ones[0] if len(ones) == 1 and len(zeros) == len(labels) - 1 else None
        points, progressions = parts[who]
        if i < bound:
            points.append(i)
        else:
            progressions.append((period, i))
        if who is None:
            for label, v in vals.items():
                if abs(v) > tol:
                    t_terms[label].append(Dyad(v, i, i) if i < bound
                                          else Family(v, period, i, period, i))

    z_sets = {label: from_parts(*parts[label]) for label in labels}
    omega_set = from_parts(*parts[None])
    z_ops = {label: oa.projector(z_sets[label]) for label in labels}
    z_omega = oa.projector(omega_set)
    t_ops = {label: StructuredOperator(terms) for label, terms in t_terms.items()}

    ok = True
    recombined = StructuredOperator.zero()
    for label in labels:
        ok &= not t_ops[label].terms or not z_sets[label].is_finite
        ok &= oa.equals(pv.effect(label), z_ops[label] + t_ops[label])
        recombined = recombined + t_ops[label]
    ok &= oa.equals(recombined, z_omega)

    return PovmClassification(bool(ok), z_ops, t_ops, z_omega, z_sets, omega_set)
