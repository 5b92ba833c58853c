"""Born sampling and measurement trajectories.

Sampling conventions, fixed so runs are bit-reproducible: randomness comes
from ``numpy.random.default_rng`` (PCG64); a single uniform drives each
measurement through inverse-CDF selection over the outcomes in instrument
order; trajectory ``k`` of a batch uses the generator seeded with
``[seed, k]``.  A statistics batch does not build those generators: it
computes their PCG64 states for a chunk of ``k`` in one vectorized pass of
numpy's SeedSequence mixing and loads each into one reused PCG64, so its
draws are those of ``default_rng([seed, k])`` bit for bit.

A trajectory step applies each outcome operator once
(:func:`born_probabilities` keeps the images it computes) and normalizes
the chosen image.  A statistics run (:func:`empirical_conditionals`)
applies no operator: it keeps a column table for the call, which lists,
for each basis index the batch reads, where every term of every outcome
sends that index (``opalgebra._column``).  Each outcome's image is summed
from the table in the order ``apply`` sums it, and its probability taken
by the rule ``StateVector.norm_sq`` uses, so the bits are ``apply``'s.  A
state is built only for the chosen image of each two-step trajectory's
first selection; the second selection yields an outcome and its
probability, no post-state.  Within one run the probabilities of a state
and its normalized post-states are computed once per state object, while
the sampler keeps returning that object, and reused with identical
results.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import opalgebra as oa
from .config import current
from .errors import DegenerateState
from .instruments import Instrument, Outcome
from .opalgebra import StateVector
from .wold import MemoryReading, memory_map, read_memory


# -- Born sampling -----------------------------------------------------------


class BornDistribution(dict):
    """Born probability per outcome, in instrument order.  ``images`` maps
    each outcome to its image of the state, not renormalized, so that a
    selection normalizes the chosen image instead of applying its operator
    a second time."""

    __slots__ = ("images",)


def born_probabilities(inst: Instrument, psi: StateVector) -> BornDistribution:
    """The Born distribution of ``psi``, one ``apply`` per outcome, each
    probability the image's ``norm_sq``.  Trajectory steps select through
    it; a statistics run reads the same bits from its column table."""
    probs = BornDistribution()
    probs.images = {}
    for label, op in inst.items():
        image = probs.images[label] = oa.apply(op, psi)
        probs[label] = image.norm_sq()
    return probs


def _pick(probs: dict[Outcome, float], total: float, u: float, tol: float) -> Outcome:
    """The outcome that inverse-CDF selection over ``probs``, in instrument
    order, gives the uniform ``u``: the first whose running sum passes ``u *
    total``.  ``total`` is ``sum(probs.values())``, which Python 3.12+
    compensates, so it can pass the last running sum and ``u`` fall
    through; then the last outcome of positive probability is picked."""
    if total <= tol:
        raise DegenerateState("every outcome probability vanished")
    target = u * total
    acc = 0.0
    for label, prob in probs.items():
        acc += prob
        if target < acc:
            return label
    return [label for label, prob in probs.items() if prob > 0][-1]


def _measure(inst: Instrument, psi: StateVector, u: float,
             tol: float) -> tuple[Outcome, float, StateVector]:
    """One measurement of ``psi`` for the uniform ``u``: the selected outcome,
    its Born probability and its normalized image."""
    dist = born_probabilities(inst, psi)
    label = _pick(dist, sum(dist.values()), u, tol)
    return label, dist[label], dist.images[label].normalized()


def measure_once(inst: Instrument, psi: StateVector,
                 seed: int) -> tuple[Outcome, float, StateVector]:
    """Sample one measurement: outcome, its Born probability, reduced state."""
    u = float(np.random.default_rng(seed).random())
    return _measure(inst, psi.normalized(), u, current().tolerance)


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
        label, prob, state = _measure(inst, state, float(rng.random()), tol)
        reading = None
        decomp = decomps.get(label)
        if decomp is not None:
            r = read_memory(decomp, state)
            if r is not None:
                reading = MemoryReading(label, r.orbit_id, r.depth, r.distribution)
        record.append(TrajectoryStep(label, prob, state, reading))
    return TrajectoryRecord(seed, psi, tuple(record))


# -- batched [seed, k] streams -----------------------------------------------

# numpy's SeedSequence (NEP 19 pins its output): hash and mix constants,
# xorshift and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1
# k seeded per pass; it divides 2**32, so every k of an aligned chunk has
# the same number of 32-bit words
_CHUNK = 1024


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n``, as SeedSequence reads an int."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _pcg64_states(seed_words: list[int], start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence(seed_words + words(k))``
    for ``k`` in ``[start, stop)``, an aligned chunk; one uint32 numpy pass.

    Every numpy operation mixes a uint32 array with a uint32 scalar, so
    it wraps the same way before and after NEP 50, without a warning.
    """
    n, low = stop - start, start & _MASK32
    low = np.arange(low, low + n, dtype=np.int64).astype(np.uint32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = ([np.full(n, w, np.uint32) for w in seed_words] + [low]
               + [np.full(n, w, np.uint32) for w in high])
    entropy += [np.zeros(n, np.uint32)] * (_POOL - len(entropy))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    # generate_state(4, uint64): eight uint32 words, read little-endian in pairs
    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append(value ^ (value >> _XSHIFT))
    w = np.stack(out, axis=1).astype("<u4").view("<u8").T.astype(object)
    # PCG64 seeding: inc = seq << 1 | 1; state = step(step(0) + initstate)
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    return list(zip(state.tolist(), inc.tolist()))


def _streams(seed: int, start: int, stop: int):
    """PCG64 ``(state, inc)`` of ``default_rng([seed, k])`` for each ``k`` in
    ``[start, stop)``, seeded ``_CHUNK`` at a time so memory stays flat."""
    seed_words = _words(seed)
    for chunk in range(start - start % _CHUNK, stop, _CHUNK):
        yield from _pcg64_states(seed_words, max(chunk, start), min(chunk + _CHUNK, stop))


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


class _Columns(dict):
    """An instrument's column table, kept for one statistics run: basis index
    ``i`` -> ``(outcome position, row, coeff)`` for every term of every
    outcome that holds column ``i``, in instrument order, then term order.
    Each index is filled when first read."""

    __slots__ = ("labels", "terms")

    def __init__(self, inst: Instrument):
        super().__init__()
        self.labels = inst.outcomes
        self.terms = [op.terms for _, op in inst.items()]

    def __missing__(self, i: int) -> list[tuple[int, int, complex]]:
        column = self[i] = [(k, r, coeff) for k, terms in enumerate(self.terms)
                            for r, coeff in oa._column(terms, i)]
        return column

    def born(self, psi: StateVector) -> tuple[dict[Outcome, float], dict[Outcome, dict]]:
        """The Born probability of ``psi`` and the sums of its image, per
        outcome in instrument order: ``apply``'s sums, in its order, and
        ``norm_sq``'s probabilities of the states they finish to."""
        sums = [{} for _ in self.terms]
        for i, c in psi.items():
            for k, r, coeff in self[i]:
                image = sums[k]
                image[r] = image.get(r, 0.0) + coeff * c
        # an outcome that holds no column of psi has the empty sum, 0
        probs = [oa._norm_sq(oa._finished(image).values()) if image else 0 for image in sums]
        return dict(zip(self.labels, probs)), dict(zip(self.labels, sums))


def _select(table: _Columns, psi: StateVector, u: float, tol: float,
            memo: dict, post: bool = True):
    """Inverse-CDF selection of one outcome for the uniform ``u``, read from
    ``table``: its label, Born probability and normalized image, or with
    ``post`` false only the label and probability, building no state.

    ``memo`` maps a state to ``(probabilities, total, image sums,
    post-states)``, ``post-states`` holding each normalized image once
    computed.  A StateVector hashes by identity, so an entry keeps its
    state alive and a fresh state equal to it misses.
    """
    entry = memo.get(psi)
    if entry is None:
        probs, sums = table.born(psi)
        entry = memo[psi] = (probs, sum(probs.values()), sums, {})
    probs, total, sums, posts = entry
    label = _pick(probs, total, u, tol)
    if not post:
        return label, probs[label]
    phi = posts.get(label)
    if phi is None:
        phi = posts[label] = StateVector._trusted(sums[label]).normalized()
    return label, probs[label], phi


def empirical_conditionals(inst: Instrument, state_sampler, trajectories: int,
                           seed: int) -> ConditionalStats:
    """Tally p(second | first) over two-step trajectories.

    ``state_sampler`` maps a numpy Generator to an initial StateVector;
    trajectory ``k`` draws the sample and its two measurement uniforms from
    the stream of ``default_rng([seed, k])``.  The Generator passed to the
    sampler is valid only during that call: one Generator serves the whole
    batch, and its state is replaced before each trajectory.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    tol = current().tolerance
    first_counts: dict[Outcome, int] = {}
    counts: dict[tuple[Outcome, Outcome], int] = {}
    table = _Columns(inst)
    memo: dict = {}  # Born distributions of the current sample and its post-states
    sample = object()  # no sampler returns this, so the first draw is new
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    # a fresh PCG64 has no buffered 32-bit half, so neither may the reused one
    fresh = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for state, inc in _streams(seed, 0, trajectories):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = fresh
        drawn = state_sampler(rng)
        if drawn is not sample:
            sample, psi = drawn, drawn.normalized()
            memo.clear()
        e, _, phi = _select(table, psi, rng.random(), tol, memo)
        f, _ = _select(table, phi, rng.random(), tol, memo, False)
        first_counts[e] = first_counts.get(e, 0) + 1
        counts[(e, f)] = counts.get((e, f), 0) + 1
    return ConditionalStats(trajectories, first_counts, counts)


def fixed_state_sampler(psi: StateVector):
    """Sampler that ignores the generator and always returns ``psi``."""
    return lambda rng: psi


def random_state_sampler(max_index: int = 32, max_support: int = 8):
    """Sampler drawing small random states below ``max_index``."""
    return lambda rng: oa.random_state(rng, max_index, max_support)
