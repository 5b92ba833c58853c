"""Born sampling, measurement trajectories, and the dense truncation oracle.

Sampling conventions, fixed so runs are bit-reproducible: randomness comes
from ``numpy.random.default_rng`` (PCG64); a single uniform drives each
measurement through inverse-CDF selection over the outcomes in instrument
order; trajectory ``k`` of a batch uses the generator seeded with
``[seed, k]``.

The dense oracle realizes a structured operator as a finite matrix.  A
truncation window is only trusted after checking, from the term structure
alone, that every input below ``valid_input_dim`` maps inside the window,
so dense results on that span are exact rather than approximate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import opalgebra as oa
from .errors import DegenerateState, WindowInvalid
from .instruments import Instrument, Outcome
from .opalgebra import StateVector, StructuredOperator
from .wold import MemoryReading, memory_map, read_memory


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
    return oa._dense(op, window.dim)


def dense_state(psi: StateVector, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    for i, amp in psi.items():
        if i >= dim:
            raise WindowInvalid(f"state occupies index {i} outside dimension {dim}")
        vec[i] = amp
    return vec


# -- Born sampling -----------------------------------------------------------


def born_probabilities(inst: Instrument, psi: StateVector) -> dict[Outcome, float]:
    return {label: oa.apply(op, psi).norm_sq() for label, op in inst.items()}


def _select(inst: Instrument, psi: StateVector, u: float,
            tol: float) -> tuple[Outcome, float, StateVector]:
    probs = born_probabilities(inst, psi)
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
    post = oa.apply(inst.operator(label), psi).normalized()
    return label, probs[label], post


def measure_once(inst: Instrument, psi: StateVector, seed: int,
                 tol: float | None = None) -> tuple[Outcome, float, StateVector]:
    """Sample one measurement: outcome, its Born probability, reduced state."""
    tol_ = oa.TOLERANCE if tol is None else tol
    u = float(np.random.default_rng(seed).random())
    return _select(inst, psi.normalized(), u, tol_)


# -- trajectories ------------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryStep:
    outcome: Outcome
    probability: float
    post_state: StateVector
    memory: MemoryReading | None


@dataclass(frozen=True)
class TrajectoryRecord:
    seed: int
    initial_state: StateVector
    steps: tuple[TrajectoryStep, ...]

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(s.outcome for s in self.steps)


def run_trajectory(inst: Instrument, psi: StateVector, steps: int, seed: int,
                   tol: float | None = None,
                   with_memory: bool = True) -> TrajectoryRecord:
    """Measure ``steps`` times in sequence, recording states and memory depths.

    One uniform is drawn per step from a generator seeded once, so the
    whole trajectory is a pure function of (instrument, state, seed).
    Memory readings are attached whenever the outcome operator admits the
    orbit decomposition.
    """
    if steps < 1:
        raise ValueError("a trajectory needs at least one step")
    tol_ = oa.TOLERANCE if tol is None else tol
    psi = psi.normalized()
    decomps = memory_map(inst, tol_) if with_memory else {}
    rng = np.random.default_rng(seed)
    state = psi
    record = []
    for _ in range(steps):
        label, prob, state = _select(inst, state, float(rng.random()), tol_)
        reading = None
        decomp = decomps.get(label)
        if decomp is not None:
            reading = read_memory(decomp, state, tol_)
            if reading is not None:
                reading = dataclasses.replace(reading, outcome=label)
        record.append(TrajectoryStep(label, prob, state, reading))
    return TrajectoryRecord(seed, psi, tuple(record))


# -- empirical statistics ----------------------------------------------------


@dataclass(frozen=True)
class ConditionalStats:
    """Second-outcome tallies conditioned on the first, with raw counts."""

    trajectories: int
    first_counts: dict[Outcome, int]
    counts: dict[tuple[Outcome, Outcome], int]

    def frequency(self, first: Outcome, second: Outcome) -> float:
        n = self.first_counts.get(first, 0)
        return self.counts.get((first, second), 0) / n if n else 0.0

    def frequencies(self) -> dict[tuple[Outcome, Outcome], float]:
        return {pair: self.frequency(*pair) for pair in self.counts}


def empirical_conditionals(inst: Instrument, state_sampler, trajectories: int,
                           seed: int, tol: float | None = None) -> ConditionalStats:
    """Tally p(second | first) over two-step trajectories.

    ``state_sampler`` maps a numpy Generator to an initial StateVector;
    trajectory ``k`` uses the generator seeded with ``[seed, k]`` for both
    the sample and its two measurement uniforms.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    tol_ = oa.TOLERANCE if tol is None else tol
    first_counts: dict[Outcome, int] = {}
    counts: dict[tuple[Outcome, Outcome], int] = {}
    for k in range(trajectories):
        rng = np.random.default_rng([seed, k])
        psi = state_sampler(rng).normalized()
        e, _, phi = _select(inst, psi, float(rng.random()), tol_)
        f, _, _ = _select(inst, phi, float(rng.random()), tol_)
        first_counts[e] = first_counts.get(e, 0) + 1
        counts[(e, f)] = counts.get((e, f), 0) + 1
    return ConditionalStats(trajectories, first_counts, counts)


def fixed_state_sampler(psi: StateVector):
    """Sampler that ignores the generator and always returns ``psi``."""
    return lambda rng: psi


def random_state_sampler(max_index: int = 32, max_support: int = 8):
    """Sampler drawing small random states below ``max_index``."""
    return lambda rng: oa.random_state(rng, max_index, max_support)
