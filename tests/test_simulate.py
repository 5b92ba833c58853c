"""Seeded trajectory sampling and the dense truncation oracle."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import qrepeat.opalgebra as oa
import qrepeat.simulate as sim
from helpers import (bits, crowded_operators, dense, dense_vec, reading_bits,
                     ref_conditionals, ref_normalized, ref_select,
                     ref_trajectory, signed_zero_operators, states)
from qrepeat import (DegenerateState, Dyad, Family, Instrument, StateVector,
                     StructuredOperator, TruncationWindow, WindowInvalid,
                     born_probabilities, build_binary_example,
                     build_example_family, build_nonrepeatable_sibling,
                     dense_oracle, dense_state, empirical_conditionals,
                     fixed_state_sampler, measure_once, random_state_sampler,
                     run_trajectory, window_for)
from qrepeat.cli import instrument_from_doc

EX = build_example_family(2, (0.3, 0.7))


def test_a_trajectory_from_a_state_whose_norm_overflows_raises_valueerror():
    with pytest.raises(ValueError, match="state norm is too large to represent"):
        run_trajectory(build_example_family(2, (0.5, 0.5)), StateVector({0: 1e200}), 2, 0)


def test_window_ordering_is_enforced():
    with pytest.raises(WindowInvalid):
        TruncationWindow(dim=2, valid_input_dim=5)
    with pytest.raises(WindowInvalid):
        TruncationWindow(dim=0, valid_input_dim=0)


def test_window_for_covers_all_reachable_outputs():
    w = window_for(EX, valid_input_dim=8)
    # inputs below 8 reach at most index 2*3+3 = 9 under either outcome
    assert w.valid_input_dim == 8 and w.dim == 10


def test_dense_oracle_matches_independent_renderer():
    w = window_for(EX, valid_input_dim=8)
    for _, op in EX.items():
        got = dense_oracle(op, w)
        assert got.shape == (w.dim, w.dim)
        assert np.array_equal(got[:, :8], dense(op, w.dim)[:, :8])


def test_dense_oracle_rejects_leaky_window():
    op = EX.operator(1)
    with pytest.raises(WindowInvalid):
        dense_oracle(op, TruncationWindow(dim=8, valid_input_dim=8))


def test_dense_state_and_probabilities():
    psi = StateVector({0: 0.6, 1: 0.8})
    assert np.allclose(dense_state(psi, 4), [0.6, 0.8, 0, 0])
    with pytest.raises(WindowInvalid, match="index 4 outside dimension 4"):
        dense_state(StateVector.basis(4), 4)
    probs = born_probabilities(EX, StateVector.basis(0))
    assert probs[1] == pytest.approx(0.3) and probs[2] == pytest.approx(0.7)
    assert sum(probs.values()) == pytest.approx(1.0)


def test_born_probabilities_agree_with_dense_oracle():
    psi = StateVector({0: 0.5, 1: 0.5, 3: np.sqrt(0.5)})
    w = window_for(EX, valid_input_dim=4)
    v = dense_state(psi, w.dim)
    for label, p in born_probabilities(EX, psi).items():
        m = dense_oracle(EX.operator(label), w)
        assert p == pytest.approx(np.linalg.norm(m @ v) ** 2, abs=1e-12)


def test_born_probabilities_keep_each_outcomes_image():
    psi = StateVector({0: 0.6, 1: 0.8j, 5: -0.1})
    probs = born_probabilities(EX, psi)
    assert list(probs) == list(EX.outcomes) == list(probs.images)
    for label, op in EX.items():
        want = oa.apply(op, psi)
        assert bits(label, probs[label], probs.images[label]) == bits(label, want.norm_sq(), want)


def test_measure_once_is_seed_deterministic():
    a_out, a_prob, a_post = measure_once(EX, StateVector.basis(0), seed=11)
    b_out, b_prob, b_post = measure_once(EX, StateVector.basis(0), seed=11)
    assert a_out == b_out and a_prob == b_prob
    assert dict(a_post.items()) == dict(b_post.items())


def test_measure_once_normalizes_the_post_state():
    outcome, _, post = measure_once(EX, StateVector.basis(0), seed=1)
    assert post.norm_sq() == pytest.approx(1.0)
    assert outcome in (1, 2)


def test_measurement_rejects_annihilated_state():
    # outcome 2 lives on the even ladder; an instrument missing that part
    # leaves nothing to normalize
    from qrepeat import make_instrument
    partial = make_instrument({1: EX.operator(1)}, check_completeness=False)
    with pytest.raises(DegenerateState):
        measure_once(partial, StateVector.basis(2), seed=0)


def test_trajectory_replays_under_the_same_seed():
    a = run_trajectory(EX, StateVector.basis(0), steps=8, seed=5)
    b = run_trajectory(EX, StateVector.basis(0), steps=8, seed=5)
    assert a.outcomes == b.outcomes
    assert a.seed == 5 and len(a.steps) == 8


def test_trajectory_from_ground_state_repeats_first_outcome():
    record = run_trajectory(EX, StateVector.basis(0), steps=6, seed=2)
    first = record.outcomes[0]
    assert all(o == first for o in record.outcomes)
    assert record.steps[0].probability == pytest.approx(
        0.3 if first == 1 else 0.7)
    for later in record.steps[1:]:
        assert later.probability == pytest.approx(1.0)


def test_trajectory_memory_depth_counts_repetitions():
    record = run_trajectory(EX, StateVector.basis(0), steps=6, seed=2)
    for k, step in enumerate(record.steps):
        assert step.memory is not None
        assert step.memory.depth == k


def test_zero_probability_outcomes_are_unreachable():
    sure = build_binary_example(1.0, 1.0)  # outcome 2 never fires from |0>
    for seed in range(50):
        assert measure_once(sure, StateVector.basis(0), seed=seed)[0] == 1


def test_empirical_conditionals_on_the_example():
    stats = empirical_conditionals(EX, fixed_state_sampler(StateVector.basis(0)),
                                   trajectories=4000, seed=0)
    assert stats.trajectories == 4000
    assert sum(stats.first_counts.values()) == 4000
    # repeatability: the second outcome always matches the first
    assert stats.frequency(1, 1) == 1.0 and stats.frequency(2, 2) == 1.0
    assert stats.frequency(1, 2) == 0.0 and stats.frequency(2, 1) == 0.0
    # first-outcome rate near p1 = 0.3 (4 sigma)
    rate = stats.first_counts[1] / 4000
    assert abs(rate - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 4000)


def test_empirical_conditionals_reproducible():
    sampler = random_state_sampler(max_index=16)
    a = empirical_conditionals(EX, sampler, trajectories=200, seed=9)
    b = empirical_conditionals(EX, sampler, trajectories=200, seed=9)
    assert a.counts == b.counts and a.first_counts == b.first_counts


def test_random_state_sampler_refuses_an_empty_index_range():
    # max_index 0 left random_state drawing forever
    with pytest.raises(ValueError, match="max_index"):
        empirical_conditionals(EX, random_state_sampler(0), trajectories=1, seed=0)


def test_empirical_conditionals_requires_work():
    with pytest.raises(ValueError):
        empirical_conditionals(EX, fixed_state_sampler(StateVector.basis(0)),
                               trajectories=0, seed=0)


# -- the array selection against the reference sampler ------------------------

GOLDEN = Path(__file__).parent / "golden"
SAMPLED = {
    "ex1-2": EX,
    "ex1-3": build_example_family(3, (0.2, 0.3, 0.5)),
    "ex1-8": build_example_family(8, [0.125] * 8),
    "binary": build_binary_example(0.3, 0.7),
    "sibling": build_nonrepeatable_sibling(2, (0.3, 0.7)),
    "mod12": instrument_from_doc(
        json.loads((GOLDEN / "mod12.instrument.json").read_text())),
}
SAMPLERS = {
    "basis0": lambda: fixed_state_sampler(StateVector.basis(0)),
    "random": lambda: random_state_sampler(32, 8),
}


def _chunk_bits(inst, chunk):
    """Each trajectory's selections in a chunk: ``bits`` of the first, with
    its post-state, and the outcome and probability bits of the second."""
    labels = inst.outcomes
    first, second = chunk
    owner, idx, re, im = (a.tolist() for a in second.states)
    posts = {}
    for p, i, r, m in zip(owner, idx, re, im):
        posts.setdefault(p, []).append((i, r.hex(), m.hex()))
    out = []
    for e, pe, p, f, pf in zip(first.pos.tolist(), first.prob.tolist(),
                               second.at.tolist(), second.pos.tolist(),
                               second.prob.tolist()):
        out.append(((labels[e], pe.hex(), tuple(posts.get(p, ()))), (labels[f], pf.hex())))
    return out


def _recorded_conditionals(inst, sampler, trajectories, seed):
    """Run empirical_conditionals, also returning the selections of each
    trajectory, from the batch's own record of each chunk."""
    chunks = []
    selections = sim._selections

    def recording(*args):
        for chunk in selections(*args):
            chunks.append(chunk)
            yield chunk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_selections", recording)
        stats = empirical_conditionals(inst, sampler, trajectories, seed)
    return stats, [s for chunk in chunks for s in _chunk_bits(inst, chunk)]


def _assert_matches_reference(inst, sampler, trajectories=300, seed=5):
    stats, got = _recorded_conditionals(inst, sampler, trajectories, seed)
    first_counts, counts, want = ref_conditionals(inst, sampler, trajectories, seed)
    assert stats.first_counts == first_counts and stats.counts == counts
    # the second selection of a trajectory builds no post-state: its outcome
    # and probability bits are compared
    assert got == [(bits(*first), (f, pf.hex()))
                   for first, (f, pf, _) in zip(want[::2], want[1::2])]


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("name", SAMPLED)
def test_conditionals_match_the_reference_sampler_bit_for_bit(name, sampler):
    _assert_matches_reference(SAMPLED[name], SAMPLERS[sampler]())


@pytest.mark.parametrize("name", SAMPLED)
def test_trajectories_match_the_reference_sampler_bit_for_bit(name):
    inst = SAMPLED[name]
    for psi in (StateVector.basis(0), StateVector({0: 0.6, 1: 0.8j, 5: -0.1})):
        for seed in range(3):
            got = run_trajectory(inst, psi, steps=12, seed=seed).steps
            want = ref_trajectory(inst, psi, steps=12, seed=seed)
            assert ([(bits(s.outcome, s.probability, s.post_state), reading_bits(s.memory))
                     for s in got]
                    == [(bits(o, p, post), reading_bits(m)) for o, p, post, m in want])
            outcome, prob, post = measure_once(inst, psi, seed)
            u = float(np.random.default_rng(seed).random())
            assert bits(outcome, prob, post) == bits(
                *ref_select(inst, ref_normalized(psi), u, 1e-12))


# Consecutive draws of one state object share its selections; a fresh state
# equal to the last one is a new draw.
def test_memo_is_not_fooled_by_a_fresh_equal_state():
    _assert_matches_reference(EX, lambda rng: StateVector({0: 0.6, 1: 0.8}))


# Indices past 2**63 stay Python ints, as numpy would round them as float64.
def test_a_batch_keeps_indices_past_two_to_the_63_exact():
    far = 2**64 + 1
    _assert_matches_reference(EX, fixed_state_sampler(StateVector({0: 0.6, far: 0.8})), 50)
    _assert_matches_reference(EX, fixed_state_sampler(StateVector({far - 2: 0.6, far: 0.8})), 50)


# Runs of one, two and three draws of each of two states.
@pytest.mark.parametrize("run", [1, 2, 3])
def test_memo_follows_a_sampler_that_alternates_two_states(run):
    states = (StateVector({0: 0.6, 1: 0.8}), StateVector({0: 0.8, 3: -0.6j}))
    calls = []

    def alternating(rng):
        calls.append(None)
        return states[len(calls) // run % 2]

    _assert_matches_reference(EX, alternating)


# Counted, not timed: a batch computes the Born distribution of each distinct
# state once, here |0> and the post-state of each of the two outcomes, where
# a trajectory-by-trajectory run computes 2,000 for 1,000 trajectories.
def test_conditionals_on_a_fixed_state_compute_each_transition_once(monkeypatch):
    born = sim._born
    per_call = []

    def counted_born(terms, owner, idx, re, im, count, tol):
        per_call.append(count)
        return born(terms, owner, idx, re, im, count, tol)

    monkeypatch.setattr(sim, "_born", counted_born)
    empirical_conditionals(EX, fixed_state_sampler(StateVector.basis(0)),
                           trajectories=1000, seed=0)
    # |0>, then the post-states of its two outcomes
    assert per_call == [1, 2]


def _table_instruments(unread=st.booleans()):
    """Instruments of one to three crowded or signed-zero outcomes, and, when
    ``unread`` draws true, an outcome on a column no drawn state reaches, so
    its image is empty."""
    ops = st.lists(crowded_operators() | signed_zero_operators(), min_size=1, max_size=3)
    never = StructuredOperator((Dyad(1.0, 0, 50),))
    return st.builds(lambda ops, extra: Instrument(tuple(enumerate(ops + [never] * extra, 1))),
                     ops, unread)


def _terms(inst):
    """The term tuple of each outcome, as a batch reads the instrument."""
    return tuple(op.terms for _, op in inst.items())


def _born_of(inst, psi):
    """The array Born distribution of ``psi`` alone."""
    amps = np.array([c for _, c in psi.items()], dtype=complex)
    return sim._born(_terms(inst), np.zeros(len(psi), dtype=np.intp),
                     np.array(psi.support(), dtype=np.int64), amps.real.copy(),
                     amps.imag.copy(), 1, 1e-12)


def _born_bits(inst, psi):
    """``bits`` of each outcome's probability and finished image, from the
    array path and from ``apply``, in instrument order."""
    born = _born_of(inst, psi)
    rows, re, im = born.rows.tolist(), born.re.tolist(), born.im.tolist()
    got, want, at = [], [], 0
    for k, (label, op) in enumerate(inst.items()):
        n = int(born.sizes[k])
        got.append((label, float(born.probs[0, k]).hex(),
                    tuple((i, r.hex(), m.hex())
                          for i, r, m in zip(rows[at:at + n], re[at:at + n], im[at:at + n]))))
        at += n
        image = oa.apply(op, psi)
        assert type(image.norm_sq()) is float
        want.append(bits(label, image.norm_sq(), image))
    return got, want


# The array path sums each image in apply's order and takes each probability
# by norm_sq's rule, so every bit, signed zeros included, is apply's.
@given(_table_instruments(), states())
@settings(deadline=None, max_examples=300)
def test_the_column_table_sums_each_image_as_apply_does(inst, psi):
    got, want = _born_bits(inst, psi)
    assert got == want


def test_the_column_table_refuses_a_sum_that_is_not_finite():
    inst = Instrument(((1, StructuredOperator((Dyad(1.7e308, 0, 0), Dyad(1.7e308, 0, 1)))),))
    psi = StateVector({0: 1.0, 1: 1.0}).normalized()
    with pytest.raises(ValueError, match="coefficients must be finite"):
        oa.apply(inst.operator(1), psi)
    assert _born_of(inst, psi).bad.tolist() == [True]
    with pytest.raises(ValueError, match="coefficients must be finite"):
        empirical_conditionals(inst, fixed_state_sampler(psi), 3, 0)


# Each bit hazard of the array path, against apply and norm_sq: a case
# where the hazard changes a bit, so that each would fail on its own.
R = 1 / math.sqrt(2)
HAZARDS = {
    # three products in one entry, whose sum depends on its order, the
    # state's: (1 + 1e-16) + 1e-16 is 1.0, 1 + (1e-16 + 1e-16) is not
    "order": (Instrument(((1, StructuredOperator((Dyad(1.0, 0, 0), Dyad(1e-16, 0, 1),
                                                  Dyad(1e-16, 0, 2)))),)),
              StateVector({0: 1.0, 1: 1.0, 2: 1.0})),
    # (-2+0j) * (-3+0j) is 6-0j: the imaginary sum keeps -0.0 on CPython 3.14
    "signed zero": (Instrument(((1, StructuredOperator((Dyad(-2.0, 0, 0),))),)),
                    StateVector({0: -3.0})),
    # a complex product formed in real arithmetic, with cancellation
    "product": (Instrument(((1, StructuredOperator((Dyad(complex(R, 1 / 3), 0, 0),))),)),
                StateVector({0: complex(1 / 3, -R)})),
    # a modulus whose ** 2, libm's pow, differs from its x * x (np.square's)
    # in the last bit, at least with glibc's pow
    "square": (Instrument(((1, StructuredOperator((Dyad(1.0, 0, 0),))),)),
               StateVector({0: 0.633541589146366})),
    # squared moduli whose sum is compensated from Python 3.12
    "sum": (Instrument(((1, StructuredOperator((Dyad(1.0, 0, 0), Dyad(1e-8, 1, 1),
                                                Dyad(1e-8, 2, 2)))),)),
            StateVector({0: 1.0, 1: 1.0, 2: 1.0})),
    # a square that overflows: the norm is too large
    "overflow": (Instrument(((1, StructuredOperator((Dyad(1e200, 0, 0),))),)),
                 StateVector({0: 1.0})),
}


@pytest.mark.parametrize("name", HAZARDS)
def test_each_bit_hazard_of_the_array_path_keeps_applys_bits(name):
    inst, psi = HAZARDS[name]
    if name == "overflow":
        with pytest.raises(ValueError, match="too large"):
            oa.apply(inst.operator(1), psi).norm_sq()
        assert _born_of(inst, psi).bad.tolist() == [True]
        return
    got, want = _born_bits(inst, psi)
    assert got == want


# normalized() divides each part by the norm, stores 0.0 + c, drops what
# underflows to zero and keeps a state of norm exactly 1.0 as it is.
NORMALIZED = [StateVector({0: 0.6, 1: -0.8j}), StateVector({0: 1e150, 1: 5e-324}),
              StateVector({0: 3.0, 2: complex(4.0, -1e-310)}), StateVector({3: -1.0}),
              StateVector({0: complex(0.0, -R), 1: complex(-R, 0.0)}),
              StateVector({0: complex(1.0, -0.0)})]


@pytest.mark.parametrize("psi", NORMALIZED, ids=range(len(NORMALIZED)))
def test_the_array_normalization_is_normalizeds(psi):
    amps = np.array([c for _, c in psi.items()], dtype=complex)
    moduli = np.hypot(amps.real, amps.imag)
    norms = sim._norms(moduli, np.array([len(psi)]))
    assert norms[0].hex() == psi.norm_sq().hex()
    owner, idx, re, im = sim._normalized(np.zeros(len(psi), dtype=np.intp),
                                         np.array(psi.support()), amps.real, amps.imag, norms)
    want = psi.normalized()
    assert (tuple(zip(idx.tolist(), map(float.hex, re.tolist()), map(float.hex, im.tolist())))
            == bits(None, 0.0, want)[2])


def test_empty_images_have_probability_zero_as_a_float():
    probs = born_probabilities(EX, StateVector.basis(1))
    assert [(label, p.hex()) for label, p in probs.items()] == [(1, "0x1.0000000000000p+0"),
                                                                (2, "0x0.0p+0")]
    assert type(StateVector({}).norm_sq()) is float
    got, want = _born_bits(EX, StateVector.basis(1))
    assert got == want


# From |0>, the probabilities are [1.0, 1e-16, 1e-16, 0].  Their sum() is
# 1.0000000000000002 from Python 3.12, where sum() is compensated, while the
# running sum ends at 1.0, so a uniform this close to 1 passes every running
# sum.  math.fsum stands in for the compensated sum() on earlier Pythons.
FALL_THROUGH = Instrument(((1, StructuredOperator((Dyad(1.0, 0, 0),))),
                           (2, StructuredOperator((Dyad(1e-8, 1, 0),))),
                           (3, StructuredOperator((Dyad(1e-8, 2, 0),))),
                           (4, StructuredOperator((Family(1.0, 1, 3, 1, 1),)))))


@pytest.mark.parametrize("total", [sum, math.fsum])
@pytest.mark.parametrize("u", [0.9999999999999999, 0.9999999999999998])
def test_a_uniform_past_every_running_sum_picks_an_outcome_that_can_occur(
        monkeypatch, u, total):
    monkeypatch.setattr(sim, "sum", total, raising=False)
    monkeypatch.setattr(helpers, "sum", total, raising=False)
    psi = StateVector.basis(0)
    want = ref_select(FALL_THROUGH, psi, u, 1e-12)
    assert want[0] in ((1, 3) if total is sum else (3,))
    chunk = sim._select_chunk(FALL_THROUGH, _terms(FALL_THROUGH), [psi], [0], [u], [u], 1e-12)
    assert _chunk_bits(FALL_THROUGH, chunk)[0][0] == bits(*want)
    assert bits(*sim._measure(FALL_THROUGH, psi, u, 1e-12)) == bits(*want)


# A batch draws a chunk's states before it selects any, yet raises what a
# trajectory-by-trajectory run raises first: the error of the earliest
# trajectory, and within one the first selection's before the second's.
# Outcome 1 sends |0> to |5>, on which nothing acts (the second selection
# finds no probability), and |1> to 1e200|7>, whose norm overflows (the
# first selection fails); outcome 2 keeps |2>.
ERRORS = Instrument(((1, StructuredOperator((Dyad(1.0, 5, 0), Dyad(1e200, 7, 1)))),
                     (2, StructuredOperator((Dyad(1.0, 2, 2),)))))


class SamplerFailed(Exception):
    pass


def _scripted(script):
    """A sampler returning the states of ``script`` in turn, raising where
    it holds None."""
    calls = []

    def sampler(rng):
        calls.append(None)
        psi = script[len(calls) - 1]
        if psi is None:
            raise SamplerFailed(len(calls) - 1)
        return psi
    return sampler


KEPT, LOST, HUGE = StateVector.basis(2), StateVector.basis(0), StateVector.basis(1)


@pytest.mark.parametrize("script, error, match", [
    ([KEPT] * 3 + [LOST, KEPT, None], DegenerateState, "vanished"),
    ([KEPT, HUGE, LOST, None], ValueError, "too large"),
    ([KEPT, LOST, HUGE, None], DegenerateState, "vanished"),
    ([KEPT] * 4 + [None], SamplerFailed, "4"),
])
def test_a_batch_raises_the_error_of_its_earliest_failing_trajectory(script, error, match):
    n = len(script)
    with pytest.raises(error, match=match) as want:
        ref_conditionals(ERRORS, _scripted(script), n, 0)
    with pytest.raises(error, match=match) as got:
        empirical_conditionals(ERRORS, _scripted(script), n, 0)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# A drawn empty state is refused by its normalization, before that
# trajectory's selections.
def test_a_batch_refuses_a_drawn_zero_vector_as_normalized_does():
    script = [KEPT, StateVector({}), LOST, None]
    with pytest.raises(ValueError) as want:
        StateVector({}).normalized()
    with pytest.raises(ValueError) as ref:
        ref_conditionals(ERRORS, _scripted(script), 4, 0)
    with pytest.raises(ValueError) as got:
        empirical_conditionals(ERRORS, _scripted(script), 4, 0)
    assert type(got.value) is type(ref.value) is ValueError
    assert str(got.value) == str(ref.value) == str(want.value)


def test_a_batch_on_an_instrument_without_outcomes_raises_as_a_trajectory_does():
    with pytest.raises(DegenerateState) as want:
        measure_once(Instrument(()), StateVector.basis(0), 0)
    with pytest.raises(DegenerateState) as got:
        empirical_conditionals(Instrument(()), fixed_state_sampler(StateVector.basis(0)), 3, 0)
    assert str(got.value) == str(want.value)


def _samplers(draw):
    """A maker of new samplers: random, fixed, alternating two objects, or
    returning a fresh state equal to the last."""
    kind = draw(st.sampled_from(["random", "fixed", "alternating", "fresh"]))
    if kind == "random":
        sampler = random_state_sampler(draw(st.integers(1, 12)), draw(st.integers(1, 6)))
        return lambda: sampler
    a, b = draw(states()), draw(states())
    if kind == "fixed":
        return lambda: fixed_state_sampler(a)
    if kind == "fresh":
        return lambda: lambda rng: StateVector(dict(a.items()))
    run = draw(st.integers(1, 3))

    def alternating():
        calls = []

        def sampler(rng):
            calls.append(None)
            return (a, b)[len(calls) // run % 2]
        return sampler
    return alternating


# The batch against the reference sampler on drawn instruments and samplers:
# both selections' outcome and probability bits, the first post-state's
# amplitudes with signed zeros, and the error, when one is raised.
@given(_table_instruments(), st.data(), st.integers(1, 40), st.integers(0, 3))
@settings(deadline=None, max_examples=150)
def test_a_batch_matches_the_reference_sampler_on_drawn_instruments(inst, data, n, seed):
    sampler = _samplers(data.draw)
    try:
        first_counts, counts, want = ref_conditionals(inst, sampler(), n, seed)
    except (ValueError, DegenerateState) as exc:
        with pytest.raises(type(exc)) as got:
            empirical_conditionals(inst, sampler(), n, seed)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    stats, got = _recorded_conditionals(inst, sampler(), n, seed)
    assert stats.first_counts == first_counts and stats.counts == counts
    assert got == [(bits(*first), (f, pf.hex()))
                   for first, (f, pf, _) in zip(want[::2], want[1::2])]


# -- batched [seed, k] streams -------------------------------------------------

# 2**96 + 7 has four words, so with k the entropy overflows the 4-word pool
# and reaches SeedSequence's trailing mix loop.
STREAM_SEEDS = [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 7]


def _numpy_states(seed, ks):
    return [tuple(np.random.default_rng([seed, k]).bit_generator.state["state"].values())
            for k in ks]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_streams_match_numpys_seeding(seed):
    seed_words = sim._words(seed)
    assert sim._pcg64_states(seed_words, 0, 5001) == _numpy_states(seed, range(5001))
    # a range across a chunk boundary, and k on both sides of the first two-word k
    for start, stop in ((sim._CHUNK - 3, sim._CHUNK + 3), (2**32 - 3, 2**32), (2**32, 2**32 + 3)):
        assert (sim._pcg64_states(seed_words, start, stop)
                == _numpy_states(seed, range(start, stop)))


def test_streams_reject_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError) as want:
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError) as got:
        sim._words(-1)
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match=str(want.value)):
        empirical_conditionals(EX, fixed_state_sampler(StateVector.basis(0)), 1, -1)


# The reused Generator must start every trajectory like a fresh one: a 32-bit
# draw leaves half of a 64-bit output buffered, which must not leak into the
# next trajectory.
def test_a_sampler_that_buffers_32_bits_matches_the_reference():
    def buffered(rng):
        rng.integers(0, 7, dtype=np.int32)
        return oa.random_state(rng, 32, 8)

    _assert_matches_reference(SAMPLED["binary"], buffered)


# Counted: a batch normalizes each drawn state and its first post-state, not
# the second post-state, which nothing reads (3,000 calls before).
def test_a_batch_normalizes_no_second_post_state(monkeypatch):
    calls = []
    normalized = StateVector.normalized

    def counted(psi):
        calls.append(None)
        return normalized(psi)

    monkeypatch.setattr(StateVector, "normalized", counted)
    empirical_conditionals(SAMPLED["binary"], random_state_sampler(32, 8),
                           trajectories=1000, seed=3)
    assert len(calls) <= 2 * 1000


def test_a_batch_builds_no_generator_per_trajectory(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(None)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    empirical_conditionals(EX, random_state_sampler(32, 8), trajectories=1000, seed=3)
    assert calls == []
