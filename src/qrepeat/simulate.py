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
applies no operator and builds no state besides those its sampler draws.
One loop selects a chunk of trajectories at a time: it seeds and draws
each trajectory's state and two uniforms, as a trajectory-by-trajectory
run would, then runs one selection stage twice, with arrays over the
distinct drawn states, then over the distinct post-states
``(state, first outcome)``.  The stage lists, for each basis index
it reads, where every term of every outcome sends that index
(``opalgebra._column``), sums each image from that list in the order
``apply`` sums it and takes each probability by ``norm_sq``'s rule, so
every bit is ``apply``'s, and the batch raises the error that the
earliest failing trajectory would.  Consecutive draws of one state
object share its selections.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

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
    it; a statistics run computes the same bits as arrays."""
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


def _hasher(init: int, mult: int):
    """SeedSequence's hash round on uint32 arrays: its constant starts at
    ``init`` and is multiplied by ``mult`` at each call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _pcg64_states(seed_words: list[int], start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence(seed_words + words(k))``
    for ``k`` in ``[start, stop)``, crossing no multiple of 2**32; one uint32 pass.

    Every numpy operation mixes a uint32 array with a uint32 scalar, so
    it wraps the same way before and after NEP 50, without a warning.
    """
    n, low = stop - start, start & _MASK32
    low = np.arange(low, low + n, dtype=np.int64).astype(np.uint32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = ([np.full(n, w, np.uint32) for w in seed_words] + [low]
               + [np.full(n, w, np.uint32) for w in high])
    entropy += [np.zeros(n, np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)

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
    generate = _hasher(_INIT_B, _MULT_B)
    out = [generate(pool[i % _POOL]) for i in range(8)]
    w = np.stack(out, axis=1).astype("<u4").view("<u8").T.astype(object)
    # PCG64 seeding: inc = seq << 1 | 1; state = step(step(0) + initstate)
    inc = (w[2] << 65 | w[3] << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    return list(zip(state.tolist(), inc.tolist()))


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


def _columns(terms, read: list[int]) -> tuple[np.ndarray, ...]:
    """The column table of the distinct basis indices ``read``, where
    ``terms`` holds each outcome's terms in instrument order: ``bounds``,
    and the outcome position, row and real and imaginary coefficient parts
    of each row.  Index ``read[s]`` holds rows ``bounds[s]`` to ``bounds[s
    + 1]``, one for every term of every outcome that holds that column
    (``opalgebra._column``), in instrument order, then term order."""
    bounds, found = [0], []
    for i in read:
        found += [(k, r, coeff) for k, ts in enumerate(terms) for r, coeff in oa._column(ts, i)]
        bounds.append(len(found))
    k, r, coeff = zip(*found) if found else ((), (), ())
    coeff = np.array(coeff, dtype=complex)
    return (np.array(bounds), np.array(k, dtype=np.intp), oa._indices(r),
            coeff.real.copy(), coeff.imag.copy())


# A batch holds a set of states as flat entries: ``owner`` (the state of each
# entry), ``idx`` and the real and imaginary parts of the amplitude, each
# state's entries together, by ascending index, and the states in order.


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The positions ``lo[j]`` to ``lo[j] + n[j]``, for each ``j`` in turn."""
    return np.arange(n.sum()) + np.repeat(lo - (np.cumsum(n) - n), n)


def _norms(moduli: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Per run of ``sizes[j]`` consecutive moduli, the ``sum`` of their
    squares (``opalgebra._squares``, where ``abs`` of a modulus is the
    modulus): ``_norm_sq``'s sum, in its order, on this Python (compensated
    from 3.12).  An empty run gives ``0.0``; on a nonempty one, ``sum``
    from ``0`` and from ``0.0`` agree."""
    squares = iter(oa._squares(moduli.tolist()))
    return [sum(islice(squares, n)) if n else 0.0 for n in sizes.tolist()]


def _normalized(owner, idx, re, im, norms):
    """The states, each divided by the square root of its ``norms`` entry as
    ``StateVector.normalized`` divides a state, then finished as
    ``_finished`` finishes it: ``0.0 +`` each amplitude
    (``opalgebra._plus_zero``), zeros dropped.  A state of norm exactly 1.0
    keeps its bits, as ``normalized`` keeps it: ``x / 1.0`` is ``x``, and
    the finish leaves finished amplitudes as they are."""
    n = np.sqrt(norms)[owner]
    with np.errstate(divide="ignore", invalid="ignore"):  # a norm of 0 is flagged
        re, im = oa._plus_zero(re / n, im / n)
    kept = (re != 0) | (im != 0)
    return owner[kept], idx[kept], re[kept], im[kept]


class _Born(NamedTuple):
    """The Born distributions of a set of states.  ``probs[s, k]`` is the
    probability of outcome position ``k`` on state ``s``, ``totals[s]`` the
    ``sum`` of its row and ``bad[s]`` whether selecting on ``s`` raises.  The
    finished image of ``s`` under ``k`` is ``sizes[s * outcomes + k]``
    consecutive entries of ``rows``, ``re`` and ``im``, by ascending row."""

    probs: np.ndarray
    totals: np.ndarray
    bad: np.ndarray
    sizes: np.ndarray
    rows: np.ndarray
    re: np.ndarray
    im: np.ndarray


def _sums(terms, owner, idx, re, im):
    """The summed images of a set of states: ``(group, row, re, im)`` per
    image entry, where the group of state ``s`` under outcome position
    ``k`` is ``s * outcomes + k``, ordered by group, then row.  Each product
    of an amplitude and a coefficient of the column table of the indices
    the states hold (``_columns``) is formed in real arithmetic,
    as CPython forms a complex product, and added to its entry in
    ``apply``'s order (state, then outcome, then term) by ``np.add.at``,
    which adds one at a time.  A sum starts at ``0.0`` in its real part;
    its imaginary part follows ``0.0 + z``, which keeps the sign of a zero
    there from CPython 3.14, so it starts at the additive identity ``-0.0``
    on 3.14 and at ``0.0`` before."""
    read, inverse = np.unique(idx, return_inverse=True)
    bounds, out_k, out_row, cre, cim = _columns(terms, read.tolist())
    lo, n = bounds[inverse], np.diff(bounds)[inverse]
    entry = np.repeat(np.arange(len(idx)), n)
    at = _ranges(lo, n)
    ar, ai, br, bi = re[entry], im[entry], cre[at], cim[at]
    rows, rank = np.unique(out_row[at], return_inverse=True)
    span = max(len(rows), 1)
    keys, cell = np.unique((owner[entry] * len(terms) + out_k[at]) * span + rank,
                           return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):  # _born flags them
        sum_re = np.zeros(len(keys))
        sum_im = np.full(len(keys), -0.0 if oa._ADD_KEEPS_IMAG else 0.0)
        np.add.at(sum_re, cell, br * ar - bi * ai)
        np.add.at(sum_im, cell, br * ai + bi * ar)
    return keys // span, rows[keys % span], sum_re, sum_im


def _born(terms, owner, idx, re, im, count: int, tol: float) -> _Born:
    """The Born distributions of ``count`` states, with ``born_probabilities``'
    bits: each image summed by ``_sums``, then finished as ``_finished``
    finishes it (``opalgebra._plus_zero``), and its probability taken by
    ``_norm_sq``'s rule, on moduli from ``opalgebra._moduli``.  A state
    is bad when an image entry is not finite, an image's norm overflows or
    the total is at most ``tol``: where ``born_probabilities`` or ``_pick``
    raises."""
    outcomes = len(terms)
    group, rows, sum_re, sum_im = _sums(terms, owner, idx, re, im)
    sum_re, sum_im = oa._plus_zero(sum_re, sum_im)
    kept = (sum_re != 0) | (sum_im != 0)
    group, rows, sum_re, sum_im = group[kept], rows[kept], sum_re[kept], sum_im[kept]
    moduli = oa._moduli(sum_re, sum_im)  # an overflowing modulus is flagged below
    sizes = np.bincount(group, minlength=count * outcomes)
    probs = _norms(moduli, sizes)
    totals = np.array([sum(probs[s * outcomes:(s + 1) * outcomes]) for s in range(count)])
    probs = np.array(probs).reshape(count, outcomes)
    bad = np.isinf(probs)
    bad.flat[group[~(np.isfinite(sum_re) & np.isfinite(sum_im))]] = True
    bad = bad.any(axis=1) | (totals <= tol)
    return _Born(probs, totals, bad, sizes, rows, sum_re, sum_im)


def _picks(born: _Born, state: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome position ``_pick`` selects on ``state[t]`` for the uniform
    ``u[t]``, for each ``t``.  ``np.cumsum`` along the outcomes is its
    running sum; a target past every running sum falls through to the last
    outcome of positive probability."""
    probs = born.probs[state]
    with np.errstate(invalid="ignore"):  # 0.0 * an overflowed total
        target = u * born.totals[state]
    hit = target[:, None] < np.cumsum(probs, axis=1)
    pos = hit.argmax(axis=1)
    fell = ~hit[np.arange(len(pos)), pos]
    if fell.any():
        pos[fell] = probs.shape[1] - 1 - (probs[fell, ::-1] > 0).argmax(axis=1)
    return pos


class _Stage(NamedTuple):
    """One selection, per trajectory of a chunk: the outcome position, its
    Born probability and the number of the state selected on in ``states``,
    the distinct normalized states as flat entries."""

    pos: np.ndarray
    prob: np.ndarray
    at: np.ndarray
    states: tuple[np.ndarray, ...]


def _replay(inst: Instrument, psi: StateVector, u1: float, u2: float, tol: float):
    """Select one trajectory's two outcomes through ``_measure``, to raise
    the error that its array selection found."""
    _, _, phi = _measure(inst, psi.normalized(), u1, tol)
    _measure(inst, phi, u2, tol)
    raise AssertionError("the array selection refused a trajectory that _measure accepts")


def _select_chunk(inst: Instrument, terms, drawn: list[StateVector],
                  state: list[int], u1: list[float], u2: list[float], tol: float) -> list[_Stage]:
    """Both selections of each trajectory of a chunk, where trajectory ``t``
    drew ``drawn[state[t]]`` and the uniforms ``u1[t]`` and ``u2[t]``.

    One stage runs as arrays over the drawn states, then over the distinct
    post-states ``(state, first outcome)``, built as no ``StateVector``.  Each
    selects only before the first trajectory refused so far, and the first
    trajectory refused is replayed through ``_replay``.
    """
    amp_idx: list[int] = []
    amps: list[complex] = []
    for psi in drawn:
        amp_idx += psi._amp
        amps += psi._amp.values()
    sizes = np.array([len(psi) for psi in drawn])
    amps = np.array(amps, dtype=complex)
    norms = np.array(_norms(oa._moduli(amps.real, amps.imag), sizes))  # an inf is flagged below
    entries = (np.repeat(np.arange(len(drawn)), sizes), oa._indices(amp_idx),
               amps.real, amps.imag)
    at = np.array(state, dtype=np.intp)
    stages: list[_Stage] = []
    for u in (u1, u2):
        if stages:  # the distinct post-states (state, first outcome)
            groups, at = np.unique(at * len(terms) + pos, return_inverse=True)
            n = born.sizes[groups]
            where = _ranges((np.cumsum(born.sizes) - born.sizes)[groups], n)
            entries = (np.repeat(np.arange(len(groups)), n), born.rows[where],
                       born.re[where], born.im[where])
            norms = born.probs.ravel()[groups]
        states = _normalized(*entries, norms)
        born = _born(terms, *states, len(norms), tol)
        bad = (born.bad | (norms == 0) | np.isinf(norms))[at]
        if bad.any():
            at = at[:int(bad.argmax())]
            if not len(at):
                break
        pos = _picks(born, at, np.array(u[:len(at)]))
        stages.append(_Stage(pos, born.probs[at, pos], at, states))
    stop = len(at)
    if stop < len(state):
        _replay(inst, drawn[state[stop]], u1[stop], u2[stop], tol)
    return stages


def _selections(inst: Instrument, state_sampler, trajectories: int, seed: int, tol: float):
    """The two ``_Stage`` records of each aligned ``_CHUNK`` of trajectories
    in turn, whose streams are seeded in one ``_pcg64_states`` pass.
    Trajectory ``k`` loads the stream of ``default_rng([seed, k])``, calls
    the sampler and draws its two uniforms; consecutive draws of one state
    object share its selections.  A sampler that raises at trajectory ``k``
    ends the batch after the chunk's earlier trajectories are selected, so
    an error of theirs is raised first, as a trajectory-by-trajectory run
    would."""
    terms = tuple(op.terms for _, op in inst.items())
    seed_words = _words(seed)
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    pcg = {"state": 0, "inc": 0}
    # a fresh PCG64 has no buffered 32-bit half, so neither may the reused one
    fresh = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start in range(0, trajectories, _CHUNK):
        drawn: list[StateVector] = []
        state: list[int] = []
        u1: list[float] = []
        u2: list[float] = []
        failure = None
        streams = _pcg64_states(seed_words, start, min(start + _CHUNK, trajectories))
        for pcg["state"], pcg["inc"] in streams:
            bit_generator.state = fresh
            try:
                psi = state_sampler(rng)
            except Exception as exc:
                failure = exc
                break
            if not drawn or psi is not drawn[-1]:
                drawn.append(psi)
            state.append(len(drawn) - 1)
            u1.append(rng.random())
            u2.append(rng.random())
        if state:
            yield _select_chunk(inst, terms, drawn, state, u1, u2, tol)
        if failure is not None:
            raise failure


def _tally(keys: np.ndarray):
    """``(key, count)`` of each distinct key, in order of first occurrence."""
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return zip(keys[order].tolist(), counts[order].tolist())


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
    labels = inst.outcomes
    first_counts: dict[Outcome, int] = {}
    counts: dict[tuple[Outcome, Outcome], int] = {}
    for first, second in _selections(inst, state_sampler, trajectories, seed, current().tolerance):
        for e, n in _tally(first.pos):
            first_counts[labels[e]] = first_counts.get(labels[e], 0) + n
        for key, n in _tally(first.pos * len(labels) + second.pos):
            pair = labels[key // len(labels)], labels[key % len(labels)]
            counts[pair] = counts.get(pair, 0) + n
    return ConditionalStats(trajectories, first_counts, counts)


def fixed_state_sampler(psi: StateVector):
    """Sampler that ignores the generator and always returns ``psi``."""
    return lambda rng: psi


def random_state_sampler(max_index: int = 32, max_support: int = 8):
    """Sampler drawing small random states below ``max_index``."""
    return lambda rng: oa.random_state(rng, max_index, max_support)
