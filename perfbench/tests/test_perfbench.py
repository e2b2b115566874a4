"""Tests for the benchmark itself: statistics, spans, failure counting, smoke runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.measure import Operations, tail_percentile  # noqa: E402
from perfbench.trace import Probe, Span, Tracer, self_times, summarize  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((ROOT / "perfbench" / "metrics.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ------------------------------------------------------------ tail percentile


@pytest.mark.parametrize("n", [11, 12, 50, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    samples = [float(i) for i in range(n)][::-1]
    value, percentile, count = tail_percentile(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    samples = list(range(100))
    value, percentile, _ = tail_percentile(samples)
    assert (value, percentile) == (89, 90.0)
    # one rank higher would leave only nine samples beyond
    assert sum(s > samples[90] for s in samples) == 9


def test_tail_with_ten_or_fewer_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile(list(range(10))) == (9, 100.0, 10)
    with pytest.raises(ValueError):
        tail_percentile([])


# ----------------------------------------------------------------- self time


def test_self_time_on_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 2.5, 3.0, 5.0, 6.0, 7.0, 9.0, 10.0])
    tracer = Tracer("t", clock=lambda: next(ticks))
    with tracer.span("root"):  # 0 .. 10
        with tracer.span("a"):  # 1 .. 3, with a grandchild 2 .. 2.5 that is not root's child
            with tracer.span("a.inner"):
                pass
        with tracer.span("b"):  # 5 .. 9
            with tracer.span("b.inner"):  # 6 .. 7
                pass
    by_name = {s.name: s for s in tracer.spans}
    selfs = self_times(tracer.spans)
    assert selfs[by_name["root"].span_id] == pytest.approx(10 - 2 - 4)
    assert selfs[by_name["a"].span_id] == pytest.approx(2 - 0.5)
    assert selfs[by_name["b"].span_id] == pytest.approx(4 - 1)
    assert selfs[by_name["b.inner"].span_id] == pytest.approx(1)
    assert by_name["b.inner"].parent_id == by_name["b"].span_id
    assert {s.run_id for s in tracer.spans} == {"t"}


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "p", 0.0, 10.0), Span(1, 0, "c", 1.0, 4.0), Span(2, 0, "c", 3.0, 6.0), Span(3, 0, "c", 8.0, 9.0)]
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)
    stats = summarize(spans)["c"]
    assert stats.calls == 3 and stats.total_s == pytest.approx(7.0) and stats.median_s == pytest.approx(3.0)


def test_installed_wraps_every_binding_and_restores_it():
    from vtalarm import cli, features

    original = features.build_feature_vector
    tracer = Tracer("t")
    probes = [Probe("features.build_feature_vector", "vtalarm.features:build_feature_vector"),
              Probe("nn.layers.ReLU.forward", "vtalarm.nn.layers:ReLU.forward")]
    with tracer.installed(probes):
        assert cli.build_feature_vector is features.build_feature_vector is not original
        from vtalarm.nn.layers import ReLU
        ReLU().forward(__import__("numpy").ones(3), train=False)
    assert cli.build_feature_vector is features.build_feature_vector is original
    assert [s.name for s in tracer.spans] == ["nn.layers.ReLU.forward"]


# ---------------------------------------------------------------- error rate


def test_error_rate_counts_each_failed_operation_once():
    from perfbench.workloads import score_problems

    ops = Operations()
    assert ops.error_rate == 0.0
    assert ops.record("alarm", score_problems([0.2, 1.0, 0.0]))
    assert not ops.record("alarm", score_problems([float("nan"), 1.5]))
    assert not ops.record("evaluate", ["report.json differs from the first pass", "2 scores not finite"])
    ops.record("train", [])
    assert (ops.attempted, ops.failed) == (4, 2)
    assert ops.error_rate == 0.5
    assert len(ops.failures) == 3
    assert "2 scores not finite or outside [0, 1]" in ops.failures[0]


def test_a_changed_output_fails_its_stage(tmp_path):
    from perfbench.workloads import BatchJob, SIZES

    job = BatchJob("corpus-fcnn", SIZES["smoke"]["corpus-fcnn"], 1, tmp_path)
    out = tmp_path / "model.ckpt"
    out.write_bytes(b"first")
    assert job._same_as_first("model", out) == []
    out.write_bytes(b"second")
    ops = Operations()
    ops.record("train", job._same_as_first("model", out))
    assert (ops.attempted, ops.failed) == (1, 1)


def test_cross_run_digests_compare_the_outputs_both_runs_have(tmp_path, monkeypatch):
    from perfbench import run

    monkeypatch.setattr(run, "RUNS", tmp_path)
    ops = Operations()
    run.compare_with_earlier_runs("key", {"model.split0": "a"}, ops)  # a traced run reaches fewer splits
    run.compare_with_earlier_runs("key", {"model.split0": "a", "model.split1": "b"}, ops)
    run.compare_with_earlier_runs("key", {"model.split0": "a", "model.split1": "c"}, ops)
    assert (ops.attempted, ops.failed) == (3, 1)
    assert ops.failures == ["cross-run digests: model.split1 differs from an earlier run"]


# -------------------------------------------------------------- spec checks


def test_benchmark_json_matches_the_metric_spec():
    from perfbench.layers import LAYER_METRICS
    from perfbench.run import END_TO_END_UNITS, WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(SPEC["workloads"])
    e2e = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]}
    assert e2e == {k: (v["unit"], v["better"]) for k, v in SPEC["end_to_end"].items()}
    assert {k: u for k, (u, _) in e2e.items()} == END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    expected = {k: unit for k, (_, unit, _) in LAYER_METRICS.items()}
    expected["trace.overhead_frac"] = "fraction"
    assert layer == expected
    for workload in SPEC["workloads"].values():
        for moves in workload["layer_to_end_to_end"].values():
            assert set(moves) <= set(e2e)


# ---------------------------------------------------------------- smoke runs


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _result(run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) and v["value"] != 0 for k, v in result["metrics"].items() if k != "true_alarm_recall")


def test_traced_smoke_run_prints_every_per_layer_metric():
    result = _result(run_bench("--workload", "cnn-train", "--seed", "3", "--seconds", "0", "--trace", "1", "--size", "smoke"))
    assert result["correct"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["nn.layers.MultiHeadAttention.forward.ms"] > 0
    assert metrics["probe.cnn_default.MultiHeadAttention.forward.peak_mb"] > 100


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "corpus-fcnn", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
