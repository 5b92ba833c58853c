"""Self-tests of the benchmark's own arithmetic, corpus and tracer.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

import corpus as corpus_mod
import metrics
import workload
from tracer import Tracer, library_targets

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def q():
    return workload.import_library()


# -- percentiles -----------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(metrics.TooFewSamples):
        metrics.percentile(list(range(99)), 0.9)
    assert metrics.percentile(list(range(100)), 0.9) == 89
    assert metrics.percentile(list(range(200, 0, -1)), 0.9) == 180


def test_minimum_run_always_has_a_p90():
    metrics.percentile([0.0] * workload.MIN_OPS, 0.9)


def test_calibration_rescales_each_op_by_the_loop_times_around_it():
    c = metrics.CAL_REF_S
    assert metrics.calibrated([1.0, 2.0], [c, c, 3 * c]) == [1.0, 1.0]
    assert metrics.time_calibration() > 0


def test_setup_laps_are_rescaled_to_the_reference_speed():
    c = metrics.CAL_REF_S
    now = [0.0]

    def half_speed_clock():  # every reading is one calibration loop at half speed later
        now[0] += 2 * c
        return now[0]

    clock = metrics.SetupClock(half_speed_clock)
    clock.lap()
    clock.lap()
    assert clock.raw_s == pytest.approx(4 * c)
    assert clock.setup_s == pytest.approx(2 * c)


# -- self time -------------------------------------------------------------------


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_and_repeated_spans():
    # root [0, 100] holds a [10, 40] (which holds b [15, 25] and, recursively,
    # a [30, 34]), a again [50, 60], and b [70, 75].
    tr = Tracer(clock=FakeClock([0, 10, 15, 25, 30, 34, 40, 50, 60, 70, 75, 100]))
    tr.begin("root")
    tr.begin("a")
    tr.begin("b")
    tr.end()
    tr.begin("a")
    tr.end()
    tr.end()
    tr.begin("a")
    tr.end()
    tr.begin("b")
    tr.end()
    assert tr.end() == 100
    st = tr.stats
    assert (st["a"].calls, st["a"].self_ns) == (3, (30 - 10 - 4) + 4 + 10)
    assert (st["b"].calls, st["b"].self_ns) == (2, 10 + 5)
    assert st["root"].self_ns == 100 - 30 - 10 - 5
    assert sum(s.self_ns for s in st.values()) == 100


def test_failed_calls_are_counted_and_reraised():
    tr = Tracer()

    def boom():
        raise ValueError("x")

    traced = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        traced()
    assert (tr.stats["boom"].calls, tr.stats["boom"].failed) == (1, 1)


# -- corpus --------------------------------------------------------------------


@pytest.mark.parametrize("name", corpus_mod.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(q, tmp_path, name):
    a = corpus_mod.build(q, name, 7, tmp_path / "a")
    b = corpus_mod.build(q, name, 7, tmp_path / "b")
    c = corpus_mod.build(q, name, 8, tmp_path / "c")
    assert a.digest == b.digest
    for item in a.files:
        assert a.files[item].read_bytes() == b.files[item].read_bytes()
    assert a.digest != c.digest
    # another seed redraws the random items but keeps every size class
    assert a.shapes == c.shapes
    assert sorted(op.id for op in a.ops) == sorted(op.id for op in c.ops)
    assert [op.size for op in sorted(a.ops, key=lambda o: o.id)] == \
        [op.size for op in sorted(c.ops, key=lambda o: o.id)]
    if name != "sampling":
        assert any(a.files[i].read_bytes() != c.files[i].read_bytes() for i in a.files)


def test_periodic_mix_puts_p50_on_small_and_p90_on_large_ops(q, tmp_path):
    ops = corpus_mod.build(q, "verdict_periodic", 1, tmp_path).ops
    sizes = [op.size for op in ops]
    assert sizes.count("S") > len(ops) / 2
    assert sizes.count("L") > len(ops) / 10


# -- tracer --------------------------------------------------------------------


def _library_bindings(q):
    out = {}
    for mod in q.values():
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == mod.__name__]
        for owner in owners:
            for attr, value in vars(owner).items():
                if callable(value):
                    out[(id(owner), attr)] = value
    return out


@pytest.fixture(scope="module")
def traced_runs(q, tmp_path_factory):
    """A traced round of every workload, without its large ops."""
    before = _library_bindings(q)
    runs = {}
    for name in corpus_mod.WORKLOADS:
        work = tmp_path_factory.mktemp(name)
        full = corpus_mod.build(q, name, 3, work / "corpus")
        small = dataclasses.replace(full, ops=[op for op in full.ops if op.size != "L"])
        runner = workload.Runner(q, small, work / "out")
        (work / "out").mkdir()
        tracer, failures, _, total = workload.traced_replay(
            q, runner, name, 3, work / "corpus", rounds=1)
        runs[name] = (tracer, failures, total)
    return before, runs


def test_every_per_layer_metric_is_exercised(traced_runs):
    _, runs = traced_runs
    for span, stats in workload.PER_LAYER:
        hit = [name for name, (tr, _, _) in runs.items()
               if span in tr.stats and tr.stats[span].calls > 0]
        assert hit, f"{span} never called"
    assert all(tr.stats["cli.command"].calls for tr, _, _ in runs.values())


def test_traced_self_times_add_up_to_the_traced_wall(traced_runs):
    _, runs = traced_runs
    for name, (tracer, _, total) in runs.items():
        per_layer = workload.layer_metrics(tracer, total, 0.0)
        self_sum = sum(m["value"] for key, m in per_layer.items()
                       if key.endswith(".self_s"))
        assert math.isclose(self_sum, total, rel_tol=1e-9), name


def test_only_known_defects_fail(traced_runs):
    _, runs = traced_runs
    for name, (_, failures, _) in runs.items():
        assert [op.id for op, _ in failures if op.defect is None] == [], name


def test_untraced_code_sees_the_original_functions(q, traced_runs):
    before, _ = traced_runs
    assert _library_bindings(q) == before
    tr = Tracer()
    tr.install(library_targets(q))
    try:  # import sites are rebound too, not only the defining module
        assert q["cli"].certify_repeatable.__wrapped__ is \
            before[(id(q["certify"]), "certify_repeatable")]
        assert q["simulate"].read_memory.__wrapped__ is before[(id(q["wold"]), "read_memory")]
        assert q["indexsets"].IndexSet.__or__.__wrapped__ is \
            before[(id(q["indexsets"].IndexSet), "union")]
    finally:
        tr.uninstall()
    assert _library_bindings(q) == before
    q["instruments"].build_example_family(2, (0.5, 0.5))
    assert not tr.stats


# -- contract ------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus_mod.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workload.per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "pass_ratio", "peak_rss_mb"}
