"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Starts one workload process at a time:
``SETUPS - 1`` that only set up, then one that sets up and runs the timed
closed loop (and, with ``--trace 1``, the traced replay).  Prints a
summary with units, writes the full result with its environment record to
``.bench_work/results/``, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import CAL_REF_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verdict_periodic", "verdict_dense", "sampling")
SETUPS = 5          # set-ups per run; setup_s is their median
DEADLINE_S = 170    # whole run, kept under the 180 s limit
BLAS_THREADS = "1"  # the workload is one sequential client


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def _spawn(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"  # same str-keyed dict and set layout in every process
    workdir = ROOT / ".bench_work" / args.workload
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qrepeat" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no qrepeat sources (src/qrepeat)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    extra_setups = 0 if args.trace else SETUPS - 1  # the traced run reports no setup_s
    try:
        setups = [_spawn(args, ["--setup-only"], deadline) for _ in range(extra_setups)]
        res = _spawn(args, [], deadline)
    except subprocess.TimeoutExpired:
        print(f"error: the run did not end within {DEADLINE_S} s", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setups.append(res)
    raw = dict(res["raw"], setup_s=statistics.median(r["setup_raw_s"] for r in setups))
    attempted, failed = res["ops"], res["failed"]

    e2e = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "ops_per_s": (res["ops_per_s"], "op/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "pass_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    env = {
        "python": platform.python_version(), "numpy": _version("numpy"),
        "click": _version("click"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": _commit(),
        "seed": args.seed, "corpus_digest": res["corpus_digest"],
        "blas": res["blas"], "blas_threads": int(BLAS_THREADS),
    }
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    correct = not res["unexpected"]

    out = ROOT / ".bench_work" / "results"
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "setups": [{k: r[k] for k in ("setup_s", "setup_raw_s")} for r in setups],
              "correct": correct,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              **{k: res[k] for k in ("ops", "rounds", "round_ops", "wall_s", "failed",
                                     "failures", "unexpected", "raw", "samples_ms",
                                     "calibration_ms")},
              "per_layer": res.get("per_layer")}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} ops in {res['rounds']} rounds "
          f"of {res['round_ops']}, {res['wall_s']:.2f} s timed, one closed-loop client")
    print(f"  env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in e2e.items():
        note = f"   (uncalibrated {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:<12} {value:12.4f} {unit}{note}")
    print(f"  calibration loop median {raw['calibration_ms']:.4f} ms; times above are "
          f"rescaled to {CAL_REF_S * 1e3:g} ms")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.4f} 1  "
          f"({failed} of {attempted} ops; p90 from {attempted} samples)")
    for line in res["failures"]:
        print(f"  failed: {line}")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
