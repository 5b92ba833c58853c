"""Exact certification of perfect repeatability and POVM structure.

The structural test is the isometry-on-range identity
``M_e* M_e M_e = M_e`` combined with pairwise annihilation
``M_f M_e = 0``; both are decided exactly on the comparison window.  The
numerical cross-check instead samples states and inspects conditional
outcome ratios, and a dense truncation suite exercises the
finite-dimensional equivalence of repeatability and orthogonality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opalgebra as oa
from .errors import InvalidPovm, UnsupportedForm
from .indexsets import IndexSet
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


def certify_repeatable(inst: Instrument, tol: float | None = None) -> CertificationReport:
    """Decide perfect repeatability structurally and collect diagnostics.

    The verdict is completeness plus, for every outcome, the
    isometry-on-range identity, plus annihilation of every ordered pair of
    distinct outcomes.  Range/support inclusion and pairwise range
    orthogonality are reported as diagnostics only.
    """
    tol_ = oa.TOLERANCE if tol is None else tol
    witnesses: list[Witness] = []

    total = StructuredOperator.zero()
    for _, op in inst.items():
        total = total + oa.compose(oa.adjoint(op), op)
    dev, pos = oa.max_deviation(total, StructuredOperator.identity())
    complete = dev <= tol_
    if not complete:
        witnesses.append(Witness("completeness", pos, dev))

    per_outcome: dict[Outcome, OutcomeChecks] = {}
    for label, op in inst.items():
        triple = oa.compose(oa.adjoint(op), oa.compose(op, op))
        dev, pos = oa.max_deviation(triple, op)
        iso = dev <= tol_
        if not iso:
            witnesses.append(Witness(f"isometry on range ({label!r})", pos, dev))
        if oa.is_monomial(op):
            ris = op.range_set().is_subset(op.support_set())
        else:
            ris = None
        per_outcome[label] = OutcomeChecks(iso, ris)

    zero = StructuredOperator.zero()
    per_pair: dict[tuple[Outcome, Outcome], PairChecks] = {}
    for e, op_e in inst.items():
        for f, op_f in inst.items():
            if e == f:
                continue
            dev, pos = oa.max_deviation(oa.compose(op_f, op_e), zero)
            vanish = dev <= tol_
            if not vanish:
                witnesses.append(Witness(f"annihilation ({f!r} after {e!r})", pos, dev))
            rdev, _ = oa.max_deviation(oa.compose(oa.adjoint(op_f), op_e), zero)
            per_pair[(e, f)] = PairChecks(vanish, rdev <= tol_)

    repeatable = complete and all(c.isometric_on_range for c in per_outcome.values()) \
        and all(c.product_vanishes for c in per_pair.values())
    orthogonal = check_orthogonal(inst.povm(), tol=tol_)
    return CertificationReport(repeatable, orthogonal, complete,
                               per_outcome, per_pair, tuple(witnesses))


def check_orthogonal(pv: Povm, tol: float | None = None) -> bool:
    """True when the effects are mutually orthogonal projections."""
    tol_ = oa.TOLERANCE if tol is None else tol
    for e, pe in pv.items():
        for f, pf in pv.items():
            expected = pf if e == f else StructuredOperator.zero()
            if not oa.equals(oa.compose(pe, pf), expected, tol_):
                return False
    return True


def check_repeatability_numerical(inst: Instrument, trials: int = 100,
                                  max_index: int = 32, seed: int = 0,
                                  tol: float | None = None) -> dict[tuple[Outcome, Outcome], float]:
    """Largest observed deviation of conditional ratios from the Kronecker delta.

    Each trial draws an independent state from the generator seeded with
    ``[seed, trial]`` and accumulates, per ordered outcome pair, the
    deviation of ``|M_f M_e psi|^2 / |M_e psi|^2`` from ``delta_ef``.
    """
    tol_ = oa.TOLERANCE if tol is None else tol
    devs: dict[tuple[Outcome, Outcome], float] = {
        (e, f): 0.0 for e in inst.outcomes for f in inst.outcomes}
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        psi = oa.random_state(rng, max_index)
        for e, op_e in inst.items():
            phi = oa.apply(op_e, psi)
            ne = phi.norm_sq()
            if ne <= tol_:
                continue
            for f, op_f in inst.items():
                ratio = oa.apply(op_f, phi).norm_sq() / ne
                dev = abs(ratio - (1.0 if e == f else 0.0))
                if dev > devs[(e, f)]:
                    devs[(e, f)] = dev
    return devs


# -- dense finite-dimensional suite ----------------------------------------


def _dense_max_pair_norm(ops: list[np.ndarray]) -> float:
    worst = 0.0
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j:
                worst = max(worst, float(np.linalg.norm(b @ a, 2)))
    return worst


def _dense_repeatable(ops: list[np.ndarray], tol: float) -> bool:
    for m in ops:
        if np.linalg.norm(m.conj().T @ m @ m - m, 2) > tol:
            return False
    return _dense_max_pair_norm(ops) <= tol


def _dense_orthogonal(effects: list[np.ndarray], tol: float) -> bool:
    for i, p in enumerate(effects):
        for j, q in enumerate(effects):
            target = q if i == j else np.zeros_like(q)
            if np.linalg.norm(p @ q - target, 2) > tol:
                return False
    return True


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_povm(rng: np.random.Generator, dim: int, n: int) -> list[np.ndarray]:
    while True:
        blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                  for _ in range(n)]
        gram = [b.conj().T @ b for b in blocks]
        total = sum(gram)
        vals, vecs = np.linalg.eigh(total)
        if vals.min() < 1e-6:
            continue
        root = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
        effects = [root @ g @ root for g in gram]
        # require the draw to be visibly non-projective
        worst = max(np.linalg.norm(p @ p - p, 2) for p in effects)
        if worst > 1e-3:
            return effects


def _random_partition(rng: np.random.Generator, dim: int) -> list[list[int]]:
    n = int(rng.integers(2, min(dim, 4) + 1))
    labels = rng.integers(0, n, size=dim)
    labels[rng.permutation(dim)[:n]] = np.arange(n)  # keep every block nonempty
    return [[i for i in range(dim) if labels[i] == k] for k in range(n)]


def finite_dim_corollary_suite(dim: int, seed: int, tol: float = 1e-10) -> bool:
    """Check that in dimension ``dim`` repeatability and orthogonality coincide.

    Three randomized draws are exercised: a projective instrument run
    through the exact certifier (padded with a tail projector so it is
    complete on the whole basis), the square-root instrument of a random
    non-projective POVM (must fail repeatability), and a unitary rotation
    of a projective instrument (orthogonal effects, yet not repeatable).
    The implication repeatable => orthogonal is asserted across all draws.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rng = np.random.default_rng([seed, dim])
    ok = True

    # (a) projective partition, certified by the exact engine
    blocks = _random_partition(rng, dim)
    sets = {k + 1: IndexSet.from_indices(block) for k, block in enumerate(blocks)}
    sets[len(blocks) + 1] = IndexSet.from_progression(1, dim)  # tail, completes the basis
    from .instruments import build_orthogonal
    inst = build_orthogonal(sets)
    report = certify_repeatable(inst)
    ok &= report.repeatable and report.orthogonal

    # (b) square-root instrument of a non-projective POVM
    effects = _random_povm(rng, dim, int(rng.integers(2, 4)))
    roots = [_psd_sqrt(p) for p in effects]
    rep_b = _dense_repeatable(roots, tol)
    ok &= not rep_b
    deviation = _dense_eq4_deviation(roots, rng, trials=20)
    ok &= deviation > 1e-6
    if rep_b:  # implication guard, never expected to trigger
        ok &= _dense_orthogonal(effects, tol)

    # (c) rotated projective instrument: orthogonal POVM, not repeatable
    proj = [np.diag([1.0 + 0j if i in block else 0.0 for i in range(dim)])
            for block in blocks]
    u = _random_unitary(rng, dim)
    rotated = [u @ p for p in proj]
    ok &= _dense_orthogonal([m.conj().T @ m for m in rotated], tol)
    rep_c = _dense_repeatable(rotated, tol)
    if rep_c:
        ok &= _dense_orthogonal([m.conj().T @ m for m in rotated], tol)
    else:
        ok &= _dense_eq4_deviation(rotated, rng, trials=20) > 1e-8
    return bool(ok)


def _dense_eq4_deviation(ops: list[np.ndarray], rng: np.random.Generator,
                         trials: int) -> float:
    dim = ops[0].shape[0]
    worst = 0.0
    for _ in range(trials):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        for i, a in enumerate(ops):
            phi = a @ psi
            ne = float(np.vdot(phi, phi).real)
            if ne < 1e-12:
                continue
            for j, b in enumerate(ops):
                ratio = float(np.vdot(b @ phi, b @ phi).real) / ne
                worst = max(worst, abs(ratio - (1.0 if i == j else 0.0)))
    return worst


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


def _diag_value(op: StructuredOperator, i: int) -> float:
    val = 0.0 + 0.0j
    for t in op.terms:
        j = t.step_at(i)
        if j is not None and t.out_stride * j + t.out_offset == i:
            val += t.coeff
    return val.real


def classify_povm(pv: Povm, tol: float | None = None) -> PovmClassification:
    """Classify a basis-diagonal POVM into its repeatable normal form.

    Indices whose effect-value vector is a 0/1 indicator join the
    projective part ``Z_e`` of the unique outcome carrying the 1; all other
    indices join the shared degenerate block.
    """
    tol_ = oa.TOLERANCE if tol is None else tol
    for label, p in pv.items():
        if not oa.is_diagonal(p, tol_):
            raise UnsupportedForm(f"effect {label!r} is not diagonal in the canonical basis")

    total = StructuredOperator.zero()
    for _, p in pv.items():
        total = total + p
    dev, pos = oa.max_deviation(total, StructuredOperator.identity())
    if dev > tol_:
        raise InvalidPovm(f"effects deviate from a resolution of identity by {dev:.3g} at {pos}")

    bound = 1
    period = 1
    for _, p in pv.items():
        for t in p.terms:
            bound = max(bound, t.out_offset + 1, t.in_offset + 1)
            period = math.lcm(period, t.in_stride)

    labels = pv.outcomes

    def classify_index(i: int) -> Outcome | None:
        vals = {label: _diag_value(pv.effect(label), i) for label in labels}
        if any(v < -tol_ for v in vals.values()):
            raise InvalidPovm(f"effect diagonal is negative at index {i}")
        ones = [label for label, v in vals.items() if abs(v - 1.0) <= tol_]
        zeros = [label for label, v in vals.items() if abs(v) <= tol_]
        if len(ones) == 1 and len(zeros) == len(labels) - 1:
            return ones[0]
        return None

    z_members: dict[Outcome, list[int]] = {label: [] for label in labels}
    omega_members: list[int] = []
    for i in range(bound):
        who = classify_index(i)
        (omega_members if who is None else z_members[who]).append(i)
    z_res: dict[Outcome, list[int]] = {label: [] for label in labels}
    omega_res: list[int] = []
    for r in range(period):
        rep = bound + ((r - bound) % period)
        who = classify_index(rep)
        (omega_res if who is None else z_res[who]).append(r)

    def assemble(members: list[int], residues: list[int]) -> IndexSet:
        s = IndexSet.from_indices(members)
        for r in residues:
            off = bound + ((r - bound) % period)
            s = s.union(IndexSet.from_progression(period, off))
        return s

    z_sets = {label: assemble(z_members[label], z_res[label]) for label in labels}
    omega_set = assemble(omega_members, omega_res)

    z_ops = {label: oa.projector(z_sets[label]) for label in labels}
    z_omega = oa.projector(omega_set)
    t_ops: dict[Outcome, StructuredOperator] = {}
    for label in labels:
        terms = []
        for i in omega_members:
            v = _diag_value(pv.effect(label), i)
            if abs(v) > tol_:
                terms.append(Dyad(v, i, i))
        for r in omega_res:
            off = bound + ((r - bound) % period)
            v = _diag_value(pv.effect(label), off)
            if abs(v) > tol_:
                terms.append(Family(v, period, off, period, off))
        t_ops[label] = StructuredOperator(terms)

    ok = True
    recombined = StructuredOperator.zero()
    for label in labels:
        ok &= oa.equals(pv.effect(label), z_ops[label] + t_ops[label], tol_)
        ok &= oa.equals(oa.compose(z_ops[label], t_ops[label]), StructuredOperator.zero(), tol_)
        recombined = recombined + t_ops[label]
        for other in labels:
            expected = z_ops[label] if label == other else StructuredOperator.zero()
            ok &= oa.equals(oa.compose(z_ops[label], z_ops[other]), expected, tol_)
    ok &= oa.equals(recombined, z_omega, tol_)
    cover = z_omega
    for label in labels:
        cover = cover + z_ops[label]
    ok &= oa.equals(cover, StructuredOperator.identity(), tol_)

    return PovmClassification(bool(ok), z_ops, t_ops, z_omega, z_sets, omega_set)
