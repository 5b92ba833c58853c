"""End-to-end acceptance sweep.

One test per criterion, each printing a single verdict line (visible under
``pytest -s``; the ``-v`` test names carry the same record).  Structural
verdicts are exact; numerical cross-checks run on dense truncations or
sampled states and must agree with them everywhere.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import qrepeat.cli as cli
import qrepeat.opalgebra as oa
from helpers import dense
from qrepeat import (Dyad, Family, IndexSet, StateVector, StructuredOperator, UnsupportedForm,
                     build_binary_example, build_example_family,
                     build_from_parts, build_nonrepeatable_sibling,
                     build_orthogonal, certify_repeatable,
                     check_repeatability_numerical, empirical_conditionals,
                     finite_dim_corollary_suite, fixed_state_sampler,
                     make_instrument, run_trajectory, split, window_for,
                     wold_decompose)

NUMERICAL_GATE = 1e-6


@contextmanager
def verdict(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def op(*terms):
    return StructuredOperator(terms)


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_example_family_certifies_with_stated_effects():
    rng = np.random.default_rng(101)
    with verdict("criterion 1 (example family: repeatable, stated effects, <1s)"):
        for n in (1, 2, 3, 5):
            x = rng.uniform(0.1, 1.0, n)
            p = tuple(x / x.sum())
            started = time.perf_counter()
            inst = build_example_family(n, p)
            rep = certify_repeatable(inst)
            assert rep.repeatable and rep.complete
            interior = all(0.0 < pl < 1.0 for pl in p)
            assert rep.orthogonal == (not interior)
            pv = inst.povm()
            for l in range(1, n + 1):
                expected = op(Dyad(p[l - 1], 0, 0), Family(1.0, n, l, n, l))
                assert oa.equals(pv.effect(l), expected)
            assert time.perf_counter() - started < 1.0


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_sibling_same_povm_without_repeatability():
    with verdict("criterion 2 (sibling: same POVM, not repeatable, p(2|1)=1/2)"):
        example = build_example_family(2, (0.5, 0.5))
        sibling = build_nonrepeatable_sibling(2, (0.5, 0.5))
        for l in (1, 2):
            assert oa.equals(example.povm().effect(l), sibling.povm().effect(l))
        assert not certify_repeatable(sibling).repeatable
        post = oa.apply(sibling.operator(1), StateVector.basis(0)).normalized()
        p_2_given_1 = oa.apply(sibling.operator(2), post).norm_sq()
        assert abs(p_2_given_1 - 0.5) <= 1e-12


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_binary_deposit_identities():
    rng = np.random.default_rng(303)
    with verdict("criterion 3 (binary family: deposit Gram identities exact)"):
        for _ in range(20):
            p1, p2 = rng.uniform(0.05, 0.95, 2)
            inst = build_binary_example(p1, p2)
            w = {l: split(m).w for l, m in inst.items()}
            v = {l: split(m).v for l, m in inst.items()}
            assert oa.equals(oa.compose(oa.adjoint(w[1]), w[1]),
                             op(Dyad(p1, 0, 0), Dyad(p2, 1, 1)))
            assert oa.equals(oa.compose(oa.adjoint(w[2]), w[2]),
                             op(Dyad(1 - p1, 0, 0), Dyad(1 - p2, 1, 1)))
            gram_sum = StructuredOperator.zero()
            for l in (1, 2):
                gram_sum = gram_sum + oa.compose(oa.adjoint(w[l]), w[l])
            assert oa.equals(gram_sum,
                             oa.projector(IndexSet.from_indices([0, 1])))
            total = gram_sum
            for l in (1, 2):
                total = total + oa.compose(oa.adjoint(v[l]), v[l])
            assert oa.equals(total, StructuredOperator.identity())


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_finite_dimensional_corollary_suite():
    with verdict("criterion 4 (dense suite dims 2..16, 200 draws, <30s)"):
        started = time.perf_counter()
        for seed in range(200):
            dim = 2 + seed % 15
            assert finite_dim_corollary_suite(dim, seed)
        assert time.perf_counter() - started < 30.0


# -- criterion 5 ---------------------------------------------------------------


def _random_parts_instrument(rng):
    """Random repeatable instrument assembled from shift and deposit blocks.

    One residue class keeps its least element free as the deposit source;
    every other class is shifted within itself.  Deposits carry a random
    unit amplitude vector split across the outcomes, one generator each.
    """
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, 2 * n + 1))
    owners = [l % n + 1 for l in range(m)]
    rng.shuffle(owners)
    source_class = int(rng.integers(0, m))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps = amps / np.linalg.norm(amps)
    parts = {}
    for l in range(1, n + 1):
        classes = [r for r in range(m) if owners[r] == l]
        fams = []
        gens = []
        for r in classes:
            start = r + m if r == source_class else r
            fams.append(Family(1.0, m, start + m, m, start))
            gens.append(start)
        target = gens[int(rng.integers(0, len(gens)))]
        w = op(Dyad(complex(amps[l - 1]), target, source_class))
        parts[l] = (op(*fams), w)
    return build_from_parts(parts)


def _mutated_corpus():
    """Instruments broken in one structural way each; never repeatable."""
    ladder1 = Family(1.0, 2, 3, 2, 1)
    ladder2 = Family(1.0, 2, 4, 2, 2)
    r = math.sqrt(0.5)
    broken = [
        # weakened shift weight
        {1: op(Family(0.999, 2, 3, 2, 1), Dyad(r, 1, 0)),
         2: op(ladder2, Dyad(r, 2, 0))},
        # weakened deposit
        {1: op(ladder1, Dyad(0.9 * r, 1, 0)), 2: op(ladder2, Dyad(r, 2, 0))},
        # dropped deposit
        {1: op(ladder1), 2: op(ladder2, Dyad(r, 2, 0))},
        # dropped shift block
        {1: op(ladder1, Dyad(r, 1, 0)), 2: op(Dyad(r, 2, 0))},
        # deposit aimed into the other outcome's shift range
        {1: op(ladder1, Dyad(r, 4, 0)), 2: op(ladder2, Dyad(r, 2, 0))},
        # deposits swapped between the outcomes
        {1: op(ladder1, Dyad(r, 2, 0)), 2: op(ladder2, Dyad(r, 1, 0))},
        # duplicated ladder
        {1: op(ladder1, Dyad(r, 1, 0)), 2: op(ladder1, Dyad(r, 2, 0))},
        # ladder landing on the wrong parity
        {1: op(Family(1.0, 2, 4, 2, 1), Dyad(r, 1, 0)),
         2: op(ladder2, Dyad(r, 2, 0))},
        # both deposits onto one generator
        {1: op(ladder1, Dyad(r, 1, 0)), 2: op(ladder2, Dyad(r, 1, 0))},
        # non-unimodular single outcome
        {1: op(Family(0.5, 1, 1, 1, 0))},
        # overcomplete pair
        {1: oa.projector(IndexSet.from_progression(2, 0)),
         2: op(Family(r, 1, 0, 1, 0))},
        # deposit drawn from another outcome's support
        {1: op(ladder1, Dyad(r, 1, 2)), 2: op(ladder2, Dyad(r, 2, 0))},
        # entangled deposit columns
        {1: op(ladder1, Dyad(r, 1, 0)),
         2: op(ladder2, Dyad(r, 2, 0), Dyad(r, 2, 1))},
        # truncated ladder
        {1: op(Family(1.0, 2, 5, 2, 3), Dyad(r, 1, 0)),
         2: op(ladder2, Dyad(r, 2, 0))},
        # sibling family at two sizes
        dict(build_nonrepeatable_sibling(2, (0.4, 0.6)).items()),
        dict(build_nonrepeatable_sibling(5, (0.2,) * 5).items()),
        # binary with crossed deposit rows
        {1: op(Family(1.0, 2, 6, 2, 2), Dyad(r, 3, 0), Dyad(r, 4, 1)),
         2: op(Family(1.0, 2, 7, 2, 3), Dyad(r, 2, 0), Dyad(r, 5, 1))},
        # binary with half-weight shift
        {1: op(Family(0.5, 2, 6, 2, 2), Dyad(r, 2, 0), Dyad(r, 4, 1)),
         2: op(Family(1.0, 2, 7, 2, 3), Dyad(r, 3, 0), Dyad(r, 5, 1))},
        # scaled projective pair
        {1: op(Family(0.9, 2, 0, 2, 0)), 2: oa.projector(IndexSet.from_progression(2, 1))},
        # deposit with no completion partner
        {1: op(ladder1, Dyad(1.0, 1, 0)), 2: op(ladder2, Dyad(r, 2, 0))},
    ]
    return [make_instrument(entries, check_completeness=False)
            for entries in broken]


def _valid_corpus(rng):
    insts = [
        build_example_family(1, (1.0,)),
        build_example_family(2, (0.5, 0.5)),
        build_example_family(2, (0.3, 0.7)),
        build_example_family(3, (0.2, 0.3, 0.5)),
        build_example_family(5, (0.2,) * 5),
        build_example_family(2, (1.0, 0.0)),
        build_binary_example(0.3, 0.7),
        build_binary_example(0.5, 0.5),
        build_binary_example(1.0, 1.0),
        build_binary_example(0.2, 0.9),
        build_orthogonal({0: IndexSet.from_progression(2, 0),
                          1: IndexSet.from_progression(2, 1)}),
        build_orthogonal({l: IndexSet.from_progression(3, l) for l in range(3)}),
        build_orthogonal({0: IndexSet.from_indices([0, 1]),
                          1: IndexSet.from_indices([0, 1]).complement()}),
        build_orthogonal({0: IndexSet.from_indices([0]),
                          1: IndexSet.from_indices([0]).complement()}),
        # unitary evolutions repeat trivially
        make_instrument({1: op(Dyad(1.0, 0, 1), Dyad(1.0, 1, 0),
                               Family(1.0, 1, 2, 1, 2))}),
        make_instrument({1: op(Family(1.0, 2, 0, 2, 2), Dyad(1.0, 1, 0),
                               Family(1.0, 2, 3, 2, 1))}),
        # a rotation block followed by the identity tail
        make_instrument({1: op(Dyad(np.cos(0.3), 0, 0), Dyad(np.sin(0.3), 0, 1),
                               Dyad(-np.sin(0.3), 1, 0), Dyad(np.cos(0.3), 1, 1),
                               Family(1.0, 1, 2, 1, 2))}),
        # stride-doubling ladder: repeatable though not translation-shaped
        make_instrument({1: op(Family(1.0, 4, 3, 2, 1), Dyad(math.sqrt(0.5), 1, 0)),
                         2: op(Family(1.0, 4, 4, 2, 2), Dyad(math.sqrt(0.5), 2, 0))}),
    ]
    insts += [_random_parts_instrument(rng) for _ in range(14)]
    return insts


def _numerically_repeatable(inst, trials=100, max_index=32, seed=0):
    devs = check_repeatability_numerical(inst, trials=trials,
                                         max_index=max_index, seed=seed)
    worst = max(devs.values(), default=0.0)
    completeness = 0.0
    for trial in range(trials):
        rng = np.random.default_rng([seed + 1, trial])
        psi = oa.random_state(rng, max_index)
        total = sum(oa.apply(m, psi).norm_sq() for _, m in inst.items())
        completeness = max(completeness, abs(total - 1.0))
    return worst <= NUMERICAL_GATE and completeness <= NUMERICAL_GATE


def test_criterion_5_structural_and_numerical_verdicts_agree():
    rng = np.random.default_rng(505)
    with verdict("criterion 5 (>=50 instruments: verdicts never disagree)"):
        valid = _valid_corpus(rng)
        broken = _mutated_corpus()
        assert len(valid) + len(broken) >= 50
        for inst in valid:
            rep = certify_repeatable(inst)
            assert rep.repeatable, f"valid instrument rejected: {inst.outcomes}"
            assert _numerically_repeatable(inst)
        for inst in broken:
            rep = certify_repeatable(inst)
            assert not rep.repeatable
            assert not _numerically_repeatable(inst)


def test_non_projective_outcomes_of_repeatable_instruments_carry_a_shift():
    # The paper's second claim: in a repeatable instrument an outcome whose
    # effect is not a projection acts on its 1-eigenspace as a non-unitary
    # isometry, so the Wold split of its shift block has a shift orbit.
    checked = 0
    for inst in _valid_corpus(np.random.default_rng(505)):
        pv = inst.povm()
        for label, m in inst.items():
            p = pv.effect(label)
            if oa.equals(oa.compose(p, p), p):
                continue
            try:
                dec = wold_decompose(split(m).v)
            except UnsupportedForm:
                continue
            assert dec.shift_orbits, f"outcome {label!r} of {inst.outcomes} has no shift orbit"
            checked += 1
    assert checked >= 60  # 64 of the corpus's non-projective outcomes decompose


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_trajectory_memory_depths():
    with verdict("criterion 6 (trajectories: constant outcome, depth counts steps)"):
        example = build_example_family(2, (0.5, 0.5))
        for seed in range(100):
            record = run_trajectory(example, StateVector.basis(0), steps=10,
                                    seed=seed)
            first = record.outcomes[0]
            assert all(o == first for o in record.outcomes)
            for k, step in enumerate(record.steps):
                assert step.memory is not None and step.memory.depth == k

        binary = build_binary_example(0.3, 0.7)
        for seed in range(50):
            for start in (0, 1):
                record = run_trajectory(binary, StateVector.basis(start),
                                        steps=10, seed=seed)
                first = record.outcomes[0]
                assert all(o == first for o in record.outcomes)
                orbit = record.steps[0].memory.orbit_id
                for k, step in enumerate(record.steps):
                    assert step.memory.orbit_id == orbit
                    assert step.memory.depth == k


# -- criterion 7 ---------------------------------------------------------------


def _random_chain_operator(rng):
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        if rng.random() < 0.5:
            terms.append(Dyad(coeff, int(rng.integers(0, 7)),
                              int(rng.integers(0, 7))))
        else:
            terms.append(Family(coeff, int(rng.integers(1, 3)),
                                int(rng.integers(0, 5)),
                                int(rng.integers(1, 3)),
                                int(rng.integers(0, 5))))
    result = StructuredOperator(tuple(terms))
    return oa.adjoint(result) if rng.random() < 0.3 else result


def test_criterion_7_symbolic_chains_match_dense():
    rng = np.random.default_rng(707)
    base = 6
    with verdict("criterion 7 (1000 random chains match dense within 1e-12)"):
        for _ in range(1000):
            ops = [_random_chain_operator(rng) for _ in range(int(rng.integers(2, 4)))]
            symbolic = ops[0]
            for nxt in ops[1:]:
                symbolic = oa.compose(nxt, symbolic)  # applied left of the chain
            dim = base
            for o in ops:
                dim = window_for(o, dim).dim
            product = np.eye(dim, dtype=complex)
            for o in ops:
                product = dense(o, dim) @ product
            got = dense(symbolic, dim)
            assert np.max(np.abs(got[:, :base] - product[:, :base])) <= 1e-12


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_sampling_statistics():
    inst = build_example_family(2, (0.3, 0.7))
    with verdict("criterion 8 (1e5 samples: 4-sigma head count, exact zeros)"):
        stats = empirical_conditionals(inst,
                                       fixed_state_sampler(StateVector.basis(0)),
                                       trajectories=100_000, seed=88)
        rate = stats.first_counts.get(1, 0) / stats.trajectories
        sigma = math.sqrt(0.3 * 0.7 / stats.trajectories)
        assert abs(rate - 0.3) <= 4 * sigma
        assert stats.counts.get((1, 2), 0) == 0
        assert stats.counts.get((2, 1), 0) == 0
        assert stats.frequency(1, 1) == 1.0 and stats.frequency(2, 2) == 1.0


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_cli_bundles_are_reproducible(tmp_path):
    runner = CliRunner()
    with verdict("criterion 9 (demo bundles byte-identical, round trip exact)"):
        bundles = {
            "ex1": (["demo", "ex1", "--n", "2", "--p", "0.5,0.5"],
                    build_example_family(2, (0.5, 0.5))),
            "binary": (["demo", "binary", "--p1", "0.3", "--p2", "0.7"],
                       build_binary_example(0.3, 0.7)),
        }
        for name, (args, reference) in bundles.items():
            out_a = tmp_path / name / "a"
            out_b = tmp_path / name / "b"
            for out in (out_a, out_b):
                result = runner.invoke(cli.main, args + ["--outdir", str(out)])
                assert result.exit_code == 0, result.output
            files = sorted(p.name for p in out_a.iterdir())
            assert files == sorted(p.name for p in out_b.iterdir())
            assert len(files) == 6
            for f in files:
                assert (out_a / f).read_bytes() == (out_b / f).read_bytes()
            doc = json.loads((out_a / f"{name}.instrument.json").read_text())
            parsed = cli.instrument_from_doc(doc)
            assert parsed.outcomes == reference.outcomes
            for label in reference.outcomes:
                assert parsed.operator(label) == reference.operator(label)
