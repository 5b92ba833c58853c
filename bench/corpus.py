"""Seeded instrument corpora and the op schedule of each workload.

Every expected result is fixed by construction, from how the instrument
was built, never by running the code under test:

* an instrument assembled from orthogonal shift and deposit blocks, a
  projective partition, or a dense block ``Q P Q*`` is repeatable; one
  with a weakened deposit, a deposit sent into another outcome's shift
  range, or a block rotated out of its own range is not;
* the POVM of a repeatable instrument admits a repeatable form;
* the shift block of an outcome has one unilateral shift orbit per residue
  class it moves, and no cycles; a projection has neither; a dense block
  is not monomial, so its decomposition is unsupported;
* two-step trajectories through a repeatable instrument never change
  outcome, and from ``|0>`` outcome 1 of ``ex1(0.3, 0.7)`` comes first with
  probability 0.3.

The seed draws the random items (residue sets, shift and deposit layouts,
unitaries, sampling seeds) but never their size class, so every seed gives
the same term counts and strides, and the same op mix.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verdict_periodic", "verdict_dense", "sampling")

TRAJECTORIES = 1000  # two-step trajectories per statistics batch
SIM_STEPS = 1000     # steps per ``simulate`` call
HEAD = (1, 0.3)      # ex1(0.3, 0.7) from |0>: outcome 1 first with p = 0.3


@dataclass(frozen=True)
class Op:
    """One unit of user-visible work and the result it must produce."""

    id: str
    item: str
    kind: str            # certify | classify | wold | simulate | batch
    size: str            # S | M | L: latency class the op is meant to sit in
    expect: dict
    defect: str | None = None  # known defect this op exposes, if any


@dataclass
class Corpus:
    workload: str
    seed: int
    files: dict[str, Path]                     # item -> instrument file
    shapes: dict[str, tuple]                   # item -> size signature
    ops: list[Op]                              # one round, in run order
    seeds: dict[str, int] = field(default_factory=dict)  # op id -> base seed
    digest: str = ""


# -- builders ------------------------------------------------------------------


def _random_parts(q, rng, n: int, m: int):
    """Criterion-5-style layout: ``m`` residue classes shared by ``n`` outcomes.

    One class keeps its least element free as the deposit source; every
    class is shifted within itself by ``m``.  Returns the shift families,
    the generator (first shifted index) of every class, and one deposit
    target per outcome with its amplitude.
    """
    Family = q["opalgebra"].Family
    owners = [l % n + 1 for l in range(m)]
    rng.shuffle(owners)
    source = int(rng.integers(0, m))
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps = amps / np.linalg.norm(amps)
    fams, gens, deposits = {}, {}, {}
    for l in range(1, n + 1):
        starts = [r + m if r == source else r for r in range(m) if owners[r] == l]
        fams[l] = [Family(1.0, m, s + m, m, s) for s in starts]
        gens[l] = starts
        deposits[l] = (complex(amps[l - 1]), starts[int(rng.integers(0, len(starts)))])
    return source, fams, gens, deposits


def _parts_ops(q, source, fams, deposits):
    oa = q["opalgebra"]
    return {l: (oa.StructuredOperator(fams[l]),
                oa.StructuredOperator([oa.Dyad(amp, target, source)]))
            for l, (amp, target) in deposits.items()}


def _residue_set(q, rng, period: int):
    """Half of the residues mod ``period``, drawn until the period is minimal."""
    IndexSet = q["indexsets"].IndexSet
    while True:
        res = rng.choice(period, size=period // 2, replace=False)
        s = IndexSet(period=period, residues=[int(r) for r in res])
        if s.period == period:
            return s


def _unitary(rng, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    qm, r = np.linalg.qr(z)
    return qm * (np.diag(r) / np.abs(np.diag(r)))


def _dense_ops(q, rng, d: int, perturbed: bool):
    """``M_e = Q P_e Q*`` on ``[0, d)`` for a half/half split, identity tail on outcome 1.

    The perturbed copy applies ``Q R Q*`` after outcome 1, with ``R``
    swapping ``|0>`` (inside outcome 1's block) and ``|d-1>`` (outside it):
    the squared moduli are unchanged, so the instrument stays complete,
    but outcome 1 now leaves its own range, so it is not repeatable.
    """
    oa = q["opalgebra"]
    qm = _unitary(rng, d)
    ops = {}
    for label, block in ((1, range(0, d // 2)), (2, range(d // 2, d))):
        p = np.zeros((d, d))
        p[list(block), list(block)] = 1.0
        if perturbed and label == 1:
            swap = np.eye(d)
            swap[[0, d - 1]] = swap[[d - 1, 0]]
            p = swap @ p
        mat = qm @ p @ qm.conj().T
        terms = [oa.Dyad(complex(mat[i, j]), i, j) for i in range(d) for j in range(d)]
        if label == 1:
            terms.append(oa.Family(1.0, 1, d, 1, d))
        ops[label] = oa.StructuredOperator(terms)
    return ops


# -- expectations --------------------------------------------------------------


def _certify(repeatable: bool) -> dict:
    return {"code": 0 if repeatable else 1, "repeatable": repeatable}


ADMITS = {"code": 0, "admits": True}


def _orbits(counts: dict) -> dict:
    """Expected ``wold`` result: shift-orbit count per outcome, None if unsupported."""
    return {"code": 0, "orbits": {str(k): v for k, v in counts.items()}}


# -- workloads -----------------------------------------------------------------


def _verdict_periodic(q, rng, add):
    """50 ops a round: 34 small (2-20 ms), 10 medium, 6 large (0.5-2 s).

    The small ops are the majority, so they set op_p50_ms; the large ones
    are more than a tenth, so op_p90_ms lands on them, among the three
    stride-30 certify calls, and a change that trades per-call overhead
    for large-period speed shows on both.
    """
    ins, ix, oa = q["instruments"], q["indexsets"], q["opalgebra"]
    ops = []

    def run(name, size, orbits, kinds=("certify", "classify", "wold"), defect=None):
        expect = {"certify": _certify(True), "classify": ADMITS, "wold": _orbits(orbits)}
        ops.extend(Op(f"{name}.{k}", name, k, size, expect[k], defect) for k in kinds)

    # ex1 from n = 2 to 24: one shift orbit per outcome.
    for n in (2, 3, 4, 5, 6, 8, 12, 16, 20, 24):
        name = f"ex{n}"
        add(name, ins.build_example_family(n, [1.0 / n] * n))
        orbits = {l: 1 for l in range(1, n + 1)}
        if n <= 8:
            run(name, "S", orbits)
        else:
            run(name, "M", orbits, ("certify",))
    add("binary", ins.build_binary_example(0.3, 0.7))
    run("binary", "S", {1: 2, 2: 2})

    # Random repeatable instruments from parts, and broken variants of two more.
    for k, (n, m) in enumerate(((2, 3), (3, 4), (3, 5))):
        source, fams, gens, deposits = _random_parts(q, rng, n, m)
        name = f"parts{k}"
        add(name, ins.build_from_parts(_parts_ops(q, source, fams, deposits)))
        run(name, "S", {l: len(gens[l]) for l in gens})
    for k, (n, m) in enumerate(((2, 4), (2, 5))):
        source, fams, gens, deposits = _random_parts(q, rng, n, m)
        amp, target = deposits[1]
        for kind, dep in (("weak", (0.9 * amp, target)),   # completeness fails
                          ("swap", (amp, gens[2][0]))):    # M_2 M_1 != 0
            parts = _parts_ops(q, source, fams, {**deposits, 1: dep})
            name = f"mutated{k}_{kind}"
            add(name, ins.make_instrument({l: v + w for l, (v, w) in parts.items()},
                                          check_completeness=False))
            ops.append(Op(f"{name}.certify", name, "certify", "S", _certify(False)))

    # Two-outcome projective partitions; the stride lcm sets the window.
    for name, period, size, kinds in (
            ("proj12", 12, "M", ("certify",)), ("proj20", 20, "M", ("certify",)),
            ("proj30a", 30, "L", ("certify", "classify", "wold")),
            ("proj30b", 30, "L", ("certify",)), ("proj30c", 30, "L", ("certify",)),
            ("proj40", 40, "L", ("certify",))):
        s = _residue_set(q, rng, period)
        add(name, ins.build_orthogonal({1: s, 2: s.complement()}))
        run(name, size, {1: 0, 2: 0}, kinds)

    # Known defects: repeatable but refused for its period (exit 2 today);
    # norm 0.8*sqrt(2) > 1 but accepted as a contraction (exit 1 today).
    s = ix.IndexSet.from_progression(210, 0)
    add("mod210", ins.Instrument(((1, oa.projector(s)), (2, oa.projector(s.complement())))))
    run("mod210", "M", {1: 0, 2: 0}, defect="PeriodCapExceeded on a repeatable instrument")
    add("norm_defect", ins.Instrument(((1, oa.StructuredOperator(
        [oa.Dyad(0.8, 1000, 1000), oa.Dyad(0.8, 1001, 1000)])),)))
    ops.append(Op("norm_defect.certify", "norm_defect", "certify", "M", {"code": 2},
                  "non-contraction accepted by the window norm estimate"))
    return ops


def _verdict_dense(q, rng, add):
    """30 ops a round: certify on d = 8 (16), 12 (2), 16 (4), 24 (1), wold on seven.

    op_p50_ms lands mid-way through the d = 8 certify block and op_p90_ms
    mid-way through the d = 16 block, each far from the blocks around it.
    """
    ins = q["instruments"]
    ops = []
    for d, copies, perturbed, wolds, size in ((8, 16, 5, 5, "S"), (12, 2, 1, 1, "M"),
                                              (16, 4, 1, 0, "L"), (24, 1, 0, 1, "L")):
        for k in range(copies):
            pert = k >= copies - perturbed
            name = f"dense{d}_{k}"
            add(name, ins.make_instrument(_dense_ops(q, rng, d, pert)))
            ops.append(Op(f"{name}.certify", name, "certify", size, _certify(not pert)))
            if k < wolds:
                ops.append(Op(f"{name}.wold", name, "wold", "S", _orbits({1: None, 2: None})))
    return ops


def _sampling(q, rng, add):
    """13 ops a round; op_p50_ms lands among the ex1 n = 2 batches, op_p90_ms
    among the binary batches."""
    ins = q["instruments"]
    add("ex2", ins.build_example_family(2, (0.3, 0.7)))
    add("ex8", ins.build_example_family(8, [0.125] * 8))
    add("binary", ins.build_binary_example(0.3, 0.7))
    ops = [Op("ex2.simulate", "ex2", "simulate", "S", {"code": 0}),
           Op("binary.simulate", "binary", "simulate", "S", {"code": 0})]
    ops += [Op(f"ex2.batch{k}", "ex2", "batch", "S",
               {"outcomes": [1, 2], "sampler": "basis0", "head": list(HEAD)})
            for k in range(5)]
    ops += [Op(f"binary.batch{k}", "binary", "batch", "L",
               {"outcomes": [1, 2], "sampler": "random"}) for k in range(5)]
    ops.append(Op("ex8.batch0", "ex8", "batch", "L",
                  {"outcomes": list(range(1, 9)), "sampler": "random"}))
    return ops


_BUILDERS = {"verdict_periodic": _verdict_periodic, "verdict_dense": _verdict_dense,
             "sampling": _sampling}


def instrument_json(q, inst) -> bytes:
    """Instrument file bytes, in the CLI's own layout."""
    doc = q["cli"].instrument_doc(inst)
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def build(q, workload: str, seed: int, workdir: Path, lap=None) -> Corpus:
    """Build the workload's instruments through the library and write them.

    The seed fixes every random draw, so the same seed gives byte-identical
    files and the same digest.  ``lap``, when given, is called after each
    instrument is written.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = Corpus(workload, seed, {}, {}, [])
    blobs = hashlib.sha256()

    def add(name, inst):
        data = instrument_json(q, inst)
        path = workdir / f"{name}.instrument.json"
        path.write_bytes(data)
        corpus.files[name] = path
        corpus.shapes[name] = tuple((label, len(op.terms)) for label, op in inst.items())
        blobs.update(name.encode() + b"\0" + data)
        if lap is not None:
            lap()

    ops = _BUILDERS[workload](q, rng, add)
    order = rng.permutation(len(ops))
    corpus.ops = [ops[i] for i in order]
    corpus.seeds = {op.id: int(rng.integers(0, 2**31 - 1))
                    for op in corpus.ops if op.kind in ("simulate", "batch")}
    blobs.update(json.dumps([[op.id, corpus.seeds.get(op.id)] for op in corpus.ops]).encode())
    corpus.digest = blobs.hexdigest()
    return corpus
