"""Checks of the exact engine by other means: dense windows and sampling.

The dense oracle realizes a structured operator as a finite matrix.  A
truncation window is only trusted after checking, from the term structure
alone, that every input below ``valid_input_dim`` maps inside the window,
so dense results on that span are exact rather than approximate.

The numerical check samples states and inspects conditional outcome
ratios.  The finite-dimensional suite draws dense instruments and asks
the exact certifier, which sees them as blocks of point terms, whether
repeatability and orthogonality coincide there, as the paper says they
must; sampled conditional ratios on the drawn matrices witness each
"not repeatable".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import opalgebra as oa
from .certify import certify_repeatable
from .config import current
from .errors import WindowInvalid
from .indexsets import IndexSet
from .instruments import Instrument, Outcome, build_orthogonal, make_instrument
from .opalgebra import Dyad, Family, StateVector, StructuredOperator


# -- dense oracle ------------------------------------------------------------


@dataclass(frozen=True)
class TruncationWindow:
    dim: int
    valid_input_dim: int

    def __post_init__(self):
        if self.valid_input_dim < 1 or self.dim < self.valid_input_dim:
            raise WindowInvalid(
                f"window ({self.dim}, {self.valid_input_dim}) is not ordered")


def _max_output_below(op: StructuredOperator, input_dim: int) -> int:
    """Largest output index reachable from inputs below ``input_dim``, or -1."""
    top = -1
    for t in op.terms:
        j = (input_dim - 1 - t.in_offset) // t.in_stride
        if t.length is not None:
            j = min(j, t.length - 1)
        if j >= 0:
            top = max(top, t.out_stride * j + t.out_offset)
    return top


def window_for(ops, valid_input_dim: int) -> TruncationWindow:
    """Smallest window that is valid for every given operator."""
    if isinstance(ops, StructuredOperator):
        ops = [ops]
    elif isinstance(ops, Instrument):
        ops = [op for _, op in ops.items()]
    dim = valid_input_dim
    for op in ops:
        dim = max(dim, _max_output_below(op, valid_input_dim) + 1)
    return TruncationWindow(dim, valid_input_dim)


def dense_oracle(op: StructuredOperator, window: TruncationWindow) -> np.ndarray:
    """Entrywise dense realization of ``op`` on the window.

    Raises WindowInvalid when some input below ``valid_input_dim`` would
    leave the window, since results could then silently lose amplitude.
    """
    top = _max_output_below(op, window.valid_input_dim)
    if top >= window.dim:
        raise WindowInvalid(
            f"operator maps the valid span up to index {top}, "
            f"outside the window of dimension {window.dim}")
    mat = np.zeros((window.dim, window.dim), dtype=complex)
    for t in op.terms:
        for key in islice(zip(range(t.out_offset, window.dim, t.out_stride),
                              range(t.in_offset, window.dim, t.in_stride)), t.length):
            mat[key] += t.coeff
    return mat


def dense_state(psi: StateVector, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    for i, amp in psi.items():
        if i >= dim:
            raise WindowInvalid(f"state occupies index {i} outside dimension {dim}")
        vec[i] = amp
    return vec


# -- sampled conditional ratios ----------------------------------------------


def check_repeatability_numerical(inst: Instrument, trials: int = 100, max_index: int = 32,
                                  seed: int = 0) -> dict[tuple[Outcome, Outcome], float]:
    """Largest observed deviation of conditional ratios from the Kronecker delta.

    Each trial draws an independent state from the generator seeded with
    ``[seed, trial]`` and accumulates, per ordered outcome pair, the
    deviation of ``|M_f M_e psi|^2 / |M_e psi|^2`` from ``delta_ef``.
    Raises ValueError, before any draw, when ``trials`` is below 1.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    tol = current().tolerance
    devs: dict[tuple[Outcome, Outcome], float] = {
        (e, f): 0.0 for e in inst.outcomes for f in inst.outcomes}
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        psi = oa.random_state(rng, max_index)
        for e, op_e in inst.items():
            phi = oa.apply(op_e, psi)
            ne = phi.norm_sq()
            if ne <= tol:
                continue
            for f, op_f in inst.items():
                ratio = oa.apply(op_f, phi).norm_sq() / ne
                dev = abs(ratio - (1.0 if e == f else 0.0))
                if dev > devs[(e, f)]:
                    devs[(e, f)] = dev
    return devs


# -- dense finite-dimensional suite ----------------------------------------


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


def _point_instrument(ops: list[np.ndarray]) -> Instrument:
    """Outcome ``k + 1`` holds a point term per nonzero entry of ``ops[k]``;
    outcome 1 also acts as the identity from index ``dim`` on, so that the
    instrument can be complete on the whole basis; the certifier decides it."""
    dim = ops[0].shape[0]
    entries = {k + 1: [Dyad(m[i, j], i, j) for i, j in zip(*np.nonzero(m))]
               for k, m in enumerate(ops)}
    entries[1].append(Family(1.0, 1, dim, 1, dim))
    return make_instrument({label: StructuredOperator(terms)
                            for label, terms in entries.items()}, check_completeness=False)


def finite_dim_corollary_suite(dim: int, seed: int) -> bool:
    """Check that in dimension ``dim`` repeatability and orthogonality coincide.

    Three randomized draws go through the exact certifier, each completed
    on the whole basis: a projective instrument (padded with a tail
    projector), the square-root instrument of a random non-projective POVM
    (must fail repeatability), and a unitary rotation of a projective
    instrument (orthogonal effects, yet not repeatable).  The implication
    repeatable => orthogonal is asserted across all draws, and the
    conditional ratios of the drawn matrices must show each failure.
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    rng = np.random.default_rng([seed, dim])
    ok = True

    # (a) projective partition
    blocks = _random_partition(rng, dim)
    sets = {k + 1: IndexSet.from_indices(block) for k, block in enumerate(blocks)}
    sets[len(blocks) + 1] = IndexSet.from_progression(1, dim)  # tail, completes the basis
    report = certify_repeatable(build_orthogonal(sets))
    ok &= report.repeatable and report.orthogonal

    # (b) square-root instrument of a non-projective POVM
    effects = _random_povm(rng, dim, int(rng.integers(2, 4)))
    roots = [_psd_sqrt(p) for p in effects]
    report = certify_repeatable(_point_instrument(roots))
    ok &= report.complete and not report.repeatable
    ok &= _dense_eq4_deviation(roots, rng, trials=20) > 1e-6

    # (c) rotated projective instrument: orthogonal POVM, not repeatable
    proj = [np.diag([1.0 + 0j if i in block else 0.0 for i in range(dim)])
            for block in blocks]
    u = _random_unitary(rng, dim)
    rotated = [u @ p for p in proj]
    report = certify_repeatable(_point_instrument(rotated))
    ok &= report.complete and report.orthogonal
    if not report.repeatable:
        ok &= _dense_eq4_deviation(rotated, rng, trials=20) > 1e-8
    return bool(ok)


def _dense_eq4_deviation(ops: list[np.ndarray], rng: np.random.Generator,
                         trials: int) -> float:
    """Largest deviation of ``|B A psi|^2 / |A psi|^2`` from the Kronecker
    delta over ``trials`` random states, skipping outcomes whose probability
    is below the tolerance."""
    tol = current().tolerance
    dim = ops[0].shape[0]
    worst = 0.0
    for _ in range(trials):
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        for i, a in enumerate(ops):
            phi = a @ psi
            ne = float(np.vdot(phi, phi).real)
            if ne < tol:
                continue
            for j, b in enumerate(ops):
                ratio = float(np.vdot(b @ phi, b @ phi).real) / ne
                worst = max(worst, abs(ratio - (1.0 if i == j else 0.0)))
    return worst
