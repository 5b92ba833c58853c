"""One workload process: set up, run the timed closed loop, optionally trace.

Run by ``run.py``, one process at a time; prints one JSON object as its last
stdout line.  A single client runs ops back to back (a closed loop), so
nothing queues and there is no waiting time to report.

The timed phase runs whole rounds of the corpus schedule until at least
``--seconds`` have passed and at least ``MIN_OPS`` ops are done, so every
run has the same op mix whatever the machine speed.  With ``--trace 1``
the same rounds are then replayed under the tracer, after a traced rebuild
of the corpus; the difference between the two timed walls is the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import corpus as corpus_mod
import metrics
from tracer import Tracer, library_targets

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
MODULES = ("indexsets", "opalgebra", "instruments", "certify", "wold", "simulate", "cli")

# Per-layer metrics of a traced run: (span name, stat) pairs; stat is
# "calls", "self_s", "failed" or a counter recorded at the span.
PER_LAYER = [
    ("opalgebra.max_deviation", ("calls", "self_s", "terms_in", "failed")),
    ("opalgebra.equals", ("calls", "self_s")),
    ("opalgebra.compose", ("calls", "self_s", "pairs", "terms_out")),
    ("opalgebra.StructuredOperator", ("calls", "self_s", "terms_in")),
    ("opalgebra.adjoint", ("calls", "self_s")),
    ("opalgebra.is_monomial", ("calls", "self_s")),
    ("opalgebra.operator_norm", ("calls", "self_s", "estimates")),
    ("instruments.make_instrument", ("calls", "self_s", "failed")),
    ("instruments.build", ("calls", "self_s")),
    ("instruments.povm", ("calls", "self_s")),
    ("opalgebra.apply", ("calls", "self_s")),
    ("opalgebra.StateVector", ("calls", "self_s")),
    ("simulate.born_probabilities", ("calls", "self_s")),
    ("simulate.empirical_conditionals", ("calls", "self_s")),
    ("simulate.run_trajectory", ("calls", "self_s")),
    ("indexsets.IndexSet", ("calls", "self_s")),
    ("indexsets.combine", ("calls", "self_s", "failed")),
    ("wold.wold_decompose", ("calls", "self_s", "failed")),
    ("wold.split", ("calls", "self_s")),
    ("wold.memory_map", ("calls", "self_s")),
    ("wold.read_memory", ("calls", "self_s")),
    ("certify.certify_repeatable", ("calls", "self_s")),
    ("certify.classify_povm", ("calls", "self_s")),
    ("certify.check_orthogonal", ("calls", "self_s")),
    ("cli.parse", ("calls", "self_s")),
    ("cli.emit", ("calls", "self_s")),
    ("cli.command", ("calls", "self_s")),
    ("bench", ("self_s",)),
]
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{span}.{stat}", "s" if stat.endswith("_s") else "count")
           for span, stats in PER_LAYER for stat in stats]
    return out + list(TRACE_EXTRA)


def import_library():
    """Import ``qrepeat`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "qrepeat" / "__init__.py").is_file():
        raise SystemExit(f"no qrepeat sources under {src}")
    sys.path.insert(0, str(src))
    q = {name: importlib.import_module(f"qrepeat.{name}") for name in MODULES}
    origin = Path(q["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"qrepeat imported from {origin}, not from {src}")
    return q


# -- ops -----------------------------------------------------------------------


class Runner:
    """Runs and checks ops; spans go to ``tracer`` when one is given."""

    def __init__(self, q, corpus, outdir: Path):
        self.q = q
        self.corpus = corpus
        self.outdir = outdir
        self.tracer: Tracer | None = None
        self.parsed = {}  # item -> Instrument read back from its file
        for op in corpus.ops:
            if op.kind == "batch" and op.item not in self.parsed:
                doc = json.loads(corpus.files[op.item].read_text())
                self.parsed[op.item] = q["cli"].instrument_from_doc(doc)
        self.head_hits = 0
        self.head_total = 0

    def _out(self, op) -> Path:
        return self.outdir / (op.id + (".jsonl" if op.kind == "simulate" else ".json"))

    def _cli(self, args):
        out, err = io.StringIO(), io.StringIO()
        tr = self.tracer
        if tr is not None:
            tr.begin("cli.command")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    self.q["cli"].main(args, standalone_mode=False)
                    code = 0
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
        finally:
            if tr is not None:
                tr.end()
        return code, out.getvalue(), err.getvalue()

    def execute(self, op, rnd: int):
        """Run ``op`` for round ``rnd``; returns its raw result."""
        if op.kind == "batch":
            sim = self.q["simulate"]
            if op.expect["sampler"] == "basis0":
                sampler = sim.fixed_state_sampler(self.q["opalgebra"].StateVector.basis(0))
            else:
                sampler = sim.random_state_sampler(32, 8)
            return sim.empirical_conditionals(self.parsed[op.item], sampler,
                                              corpus_mod.TRAJECTORIES,
                                              self.corpus.seeds[op.id] + rnd)
        path = str(self.corpus.files[op.item])
        out = self._out(op)
        if op.kind == "simulate":
            return self._cli(["simulate", path, "--steps", str(corpus_mod.SIM_STEPS),
                              "--seed", str(self.corpus.seeds[op.id] + rnd),
                              "--initial", "0", "--log", str(out)])
        return self._cli([op.kind, path, "--out", str(out)])

    def check(self, op, result) -> str | None:
        """None when ``result`` is what ``op`` must produce, else the reason."""
        exp = op.expect
        if op.kind == "batch":
            return self._check_batch(op, result)
        code = result[0]
        if code != exp["code"]:
            return f"exit code {code}, expected {exp['code']}: {result[2].strip()[:200]}"
        if code == 2:
            return None
        out = self._out(op)
        text = out.read_text()
        out.unlink()  # so a later round cannot pass on a stale file
        if op.kind == "simulate":
            return _check_log(text)
        doc = json.loads(text)
        if op.kind == "certify" and doc["repeatable"] != exp["repeatable"]:
            return f"repeatable={doc['repeatable']}, expected {exp['repeatable']}"
        if op.kind == "classify" and doc["admitsRepeatableForm"] is not exp["admits"]:
            return "admitsRepeatableForm differs"
        if op.kind == "wold":
            got = {}
            for entry in doc["outcomes"]:
                got[str(entry["label"])] = None if "unsupported" in entry else (
                    len(entry["shiftOrbits"]) if not entry["cycles"] else "cycles")
            if got != exp["orbits"]:
                return f"shift orbits {got}, expected {exp['orbits']}"
        return None

    def _check_batch(self, op, stats) -> str | None:
        exp = op.expect
        if stats.trajectories != corpus_mod.TRAJECTORIES or \
                sum(stats.first_counts.values()) != stats.trajectories:
            return "trajectory count differs"
        if not set(stats.first_counts) <= set(exp["outcomes"]):
            return f"unknown outcome in {sorted(stats.first_counts)}"
        changed = {k: v for k, v in stats.counts.items() if k[0] != k[1] and v}
        if changed:
            return f"repeat changed outcome: {changed}"
        if "head" in exp:
            self.head_hits += stats.first_counts.get(exp["head"][0], 0)
            self.head_total += stats.trajectories
        return None

    def head_check(self) -> str | None:
        """Pooled head count of the fixed-state batches, within 4 sigma."""
        if not self.head_total:
            return None
        p = corpus_mod.HEAD[1]
        sigma = math.sqrt(p * (1 - p) / self.head_total)
        rate = self.head_hits / self.head_total
        if abs(rate - p) > 4 * sigma:
            return f"head rate {rate:.5f} is more than 4 sigma from {p}"
        return None


def _check_log(text: str) -> str | None:
    lines = text.splitlines()
    header = json.loads(lines[0])
    if header["steps"] != corpus_mod.SIM_STEPS or len(lines) != corpus_mod.SIM_STEPS + 1:
        return f"log has {len(lines) - 1} steps"
    first = None
    for k, line in enumerate(lines[1:]):
        rec = json.loads(line)
        first = rec["outcome"] if first is None else first
        if rec["outcome"] != first:
            return f"outcome changed at step {k}"
        if rec["memory"] is None or rec["memory"]["depth"] != k:
            return f"memory depth at step {k} is not {k}"
    return None


# -- phases --------------------------------------------------------------------


def run_rounds(runner: Runner, rounds: int | None, seconds: float):
    """Closed loop over whole rounds.

    Returns (latencies_s, calibration_s, failures, rounds, wall_s).  The
    calibration loop is timed before the first op and after each op's
    check, outside every latency.  With ``rounds`` None, runs until
    ``seconds`` and ``MIN_OPS`` are both met.
    """
    ops = runner.corpus.ops
    lat, failures = [], []  # lat[k] belongs to ops[k % len(ops)]
    refs = [metrics.time_calibration()]
    done = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            t = time.perf_counter()
            try:
                result = runner.execute(op, done)
            except Exception as e:  # an op that raises is a failed op
                lat.append(time.perf_counter() - t)
                failures.append((op, f"raised {type(e).__name__}: {e}"))
            else:
                lat.append(time.perf_counter() - t)
                reason = runner.check(op, result)
                if reason is not None:
                    failures.append((op, reason))
            refs.append(metrics.time_calibration())
        done += 1
        elapsed = time.perf_counter() - start
        if rounds is None:
            if elapsed >= seconds and len(lat) >= MIN_OPS:
                break
        elif done >= rounds:
            break
    return lat, refs, failures, done, time.perf_counter() - start


def warm_up(runner: Runner, lap) -> None:
    """One untimed op of each kind, so lazy imports finish before timing."""
    seen = set()
    for op in runner.corpus.ops:
        if op.kind not in seen and op.size == "S" and op.defect is None:
            seen.add(op.kind)
            runner.execute(op, 0)
            lap()


def traced_replay(q, runner: Runner, workload: str, seed: int, workdir: Path, rounds: int):
    tracer = Tracer()
    targets = library_targets(q)
    tracer.install(targets)
    runner.tracer = tracer
    try:
        tracer.begin("bench")
        corpus_mod.build(q, workload, seed, workdir)
        _, _, failures, _, wall = run_rounds(runner, rounds, 0.0)
        total_ns = tracer.end()
    finally:
        runner.tracer = None
        tracer.uninstall()
    return tracer, failures, wall, total_ns / 1e9


def layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float) -> dict:
    out = {}
    for span, stats in PER_LAYER:
        st = tracer.stats.get(span)
        for stat in stats:
            if st is None:
                value = 0
            elif stat == "calls":
                value = st.calls
            elif stat == "self_s":
                value = st.self_ns / 1e9
            elif stat == "failed":
                value = st.failed
            else:
                value = st.counts.get(stat, 0)
            unit = "s" if stat.endswith("_s") else "count"
            out[f"{span}.{stat}"] = {"value": value, "unit": unit}
    out["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    clock = metrics.SetupClock()
    q = import_library()
    clock.lap()
    workdir = Path(args.workdir)
    corpus = corpus_mod.build(q, args.workload, args.seed, workdir / "corpus", clock.lap)
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(q, corpus, outdir)
    clock.lap()
    warm_up(runner, clock.lap)
    for stale in outdir.iterdir():  # a check must only ever see its own op's file
        stale.unlink()
    clock.lap()
    result = {"setup_s": clock.setup_s, "setup_raw_s": clock.raw_s}
    if not args.setup_only:
        lat, refs, failures, rounds, wall = run_rounds(runner, None, args.seconds)
        cal = metrics.calibrated(lat, refs)
        unexpected = [(op.id, why) for op, why in failures if op.defect is None]
        failed = len(failures)
        head = runner.head_check()
        if head is not None:  # every fixed-state batch of the run fails with it
            unexpected.append(("pooled head count", head))
            failed += rounds * sum(1 for op in corpus.ops if "head" in op.expect)
        result.update({
            "ops": len(lat), "rounds": rounds, "round_ops": len(corpus.ops),
            "wall_s": wall, "ops_per_s": len(cal) / sum(cal),
            "op_p50_ms": statistics.median(cal) * 1e3,
            "op_p90_ms": metrics.percentile(cal, 0.9) * 1e3,
            "raw": {"ops_per_s": len(lat) / wall,
                    "op_p50_ms": statistics.median(lat) * 1e3,
                    "op_p90_ms": metrics.percentile(lat, 0.9) * 1e3,
                    "calibration_ms": statistics.median(refs) * 1e3},
            "failed": failed,
            "failures": sorted({f"{op.id}: {why}" for op, why in failures}),
            "unexpected": unexpected,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "samples_ms": {op.id: [x * 1e3 for x in lat[k::len(corpus.ops)]]
                           for k, op in enumerate(corpus.ops)},
            "calibration_ms": [x * 1e3 for x in refs],
            "corpus_digest": corpus.digest,
            "blas": _blas_name(),
        })
        if args.trace:
            tracer, tfail, twall, total = traced_replay(
                q, runner, args.workload, args.seed, workdir / "corpus", rounds)
            result["per_layer"] = layer_metrics(tracer, total, twall - wall)
            result["unexpected"] += [(op.id, why) for op, why in tfail if op.defect is None]
    print(json.dumps(result))
    return 0


def _blas_name() -> str:
    import numpy as np
    try:
        cfg = np.show_config(mode="dicts")
        return cfg["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
