"""Steadiness check: run every workload with seeds 1..10 and compare spreads to bounds.

    python3 bench/steady.py [--workload NAME ...]

Runs ``bench/run.py`` sequentially, one seed per run, with the run length
from ``BENCHMARK.json``.  For each end-to-end metric it prints the median,
the quartiles and the interquartile distance as a share of the median (the
spread), next to the metric's bound.  A spread at or above a third of the
bound is flagged, and the exit code is 1 when any is.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import relative_spread

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    flagged = 0
    for name in names:
        runs = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = relative_spread(values)
            mark = ""
            if spread >= metric["bound"] / 3:
                mark = "  <-- spread >= bound/3"
                flagged += 1
            print(f"{name:17} {metric['name']:12} median {med:10.4f} {metric['unit']:5} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"bound {metric['bound']}{mark}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
