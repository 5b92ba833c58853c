"""Born sampling, measurement trajectories, and the dense truncation oracle.

Sampling conventions, fixed so runs are bit-reproducible: randomness comes
from ``numpy.random.default_rng`` (PCG64); a single uniform drives each
measurement through inverse-CDF selection over the outcomes in instrument
order; trajectory ``k`` of a batch uses the generator seeded with
``[seed, k]``.

One selection applies each outcome operator once (:func:`born_probabilities`
keeps the images it computes) and normalizes the chosen image.  Within one
statistics run (:func:`empirical_conditionals`) the Born distribution of a
state and its normalized post-states are computed once per state object,
while the sampler keeps returning that object, and reused with identical
results.

The dense oracle realizes a structured operator as a finite matrix.  A
truncation window is only trusted after checking, from the term structure
alone, that every input below ``valid_input_dim`` maps inside the window,
so dense results on that span are exact rather than approximate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import opalgebra as oa
from .config import current
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


# -- Born sampling -----------------------------------------------------------


class BornDistribution(dict):
    """Born probability per outcome, in instrument order.  ``images`` maps
    each outcome to its image of the state, not renormalized, so that a
    selection normalizes the chosen image instead of applying its operator
    a second time."""

    __slots__ = ("images",)


def born_probabilities(inst: Instrument, psi: StateVector) -> BornDistribution:
    probs = BornDistribution()
    probs.images = {}
    for label, op in inst.items():
        image = probs.images[label] = oa.apply(op, psi)
        probs[label] = image.norm_sq()
    return probs


def _select(inst: Instrument, psi: StateVector, u: float, tol: float,
            memo: dict) -> tuple[Outcome, float, StateVector]:
    """Inverse-CDF selection of one outcome for the uniform ``u``.

    ``memo`` maps a state to ``(Born distribution, total, post-states)``,
    ``post-states`` holding each normalized image once computed.  A
    StateVector hashes by identity, so an entry keeps its state alive and a
    fresh state equal to it misses.
    """
    entry = memo.get(psi)
    if entry is None:
        probs = born_probabilities(inst, psi)
        entry = memo[psi] = (probs, sum(probs.values()), {})
    probs, total, posts = entry
    if total <= tol:
        raise DegenerateState("every outcome probability vanished")
    target = u * total
    acc = 0.0
    for label, prob in probs.items():
        acc += prob
        if target < acc:
            break
    post = posts.get(label)
    if post is None:
        post = posts[label] = probs.images[label].normalized()
    return label, prob, post


def measure_once(inst: Instrument, psi: StateVector,
                 seed: int) -> tuple[Outcome, float, StateVector]:
    """Sample one measurement: outcome, its Born probability, reduced state."""
    u = float(np.random.default_rng(seed).random())
    return _select(inst, psi.normalized(), u, current().tolerance, {})


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


def run_trajectory(inst: Instrument, psi: StateVector, steps: int,
                   seed: int) -> TrajectoryRecord:
    """Measure ``steps`` times in sequence, recording states and memory depths.

    One uniform is drawn per step from a generator seeded once, so the
    whole trajectory is a pure function of (instrument, state, seed).
    Memory readings are attached whenever the outcome operator admits the
    orbit decomposition.
    """
    if steps < 1:
        raise ValueError("a trajectory needs at least one step")
    tol = current().tolerance
    psi = psi.normalized()
    decomps = memory_map(inst)
    rng = np.random.default_rng(seed)
    state = psi
    record = []
    for _ in range(steps):
        label, prob, state = _select(inst, state, float(rng.random()), tol, {})
        reading = None
        decomp = decomps.get(label)
        if decomp is not None:
            reading = read_memory(decomp, state)
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
                           seed: int) -> ConditionalStats:
    """Tally p(second | first) over two-step trajectories.

    ``state_sampler`` maps a numpy Generator to an initial StateVector;
    trajectory ``k`` uses the generator seeded with ``[seed, k]`` for both
    the sample and its two measurement uniforms.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    tol = current().tolerance
    first_counts: dict[Outcome, int] = {}
    counts: dict[tuple[Outcome, Outcome], int] = {}
    memo: dict = {}  # Born distributions of the current sample and its post-states
    sample = object()  # no sampler returns this, so the first draw is new
    for k in range(trajectories):
        rng = np.random.default_rng([seed, k])
        drawn = state_sampler(rng)
        if drawn is not sample:
            sample, psi = drawn, drawn.normalized()
            memo.clear()
        e, _, phi = _select(inst, psi, float(rng.random()), tol, memo)
        f, _, _ = _select(inst, phi, float(rng.random()), tol, memo)
        first_counts[e] = first_counts.get(e, 0) + 1
        counts[(e, f)] = counts.get((e, f), 0) + 1
    return ConditionalStats(trajectories, first_counts, counts)


def fixed_state_sampler(psi: StateVector):
    """Sampler that ignores the generator and always returns ``psi``."""
    return lambda rng: psi


def random_state_sampler(max_index: int = 32, max_support: int = 8):
    """Sampler drawing small random states below ``max_index``."""
    return lambda rng: oa.random_state(rng, max_index, max_support)
