"""Tiny-scale smoke runs, seed determinism and the BENCHMARK.json bounds."""

import os
import subprocess
import sys

import pytest

import harness

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = sorted(w["name"] for w in harness.SPEC["workloads"])


def tiny(name, seed=1, trace=False):
    return harness.measure(name, seed, 1, trace=trace, tiny=True, setups=1)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_untraced_run_is_correct_and_complete(name):
    result = tiny(name)
    assert result.correct, result.lines
    assert result.failed == 0 and result.attempted > 0
    assert set(result.metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in result.metrics.values()), result.metrics
    assert any(line.startswith("exercised: ok") for line in result.lines)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_without_drift(name):
    result = tiny(name, trace=True)
    assert result.correct, result.lines
    assert set(result.metrics) == set(harness.PER_LAYER)
    assert any(line.startswith("sim_* identical traced vs untraced: True") for line in result.lines)
    assert any(line.startswith("tracing overhead:") for line in result.lines)
    m = result.metrics
    if name == "cachesim-mixed":
        assert m["mem.calls_per_op"] > 0 and m["core.host_s"] > 0
        assert m["des.events_per_op"] == 0 and m["storage.demands_per_op"] == 0
        assert m["serve.host_s"] == 0 and m["shard.host_s"] == 0
    else:
        assert m["mem.calls_per_op"] == 0 and m["mem.host_s"] == 0
        assert m["des.events_per_op"] > 0 and m["storage.demands_per_op"] > 0
        assert m["serve.host_s"] > 0 and m["obs.records_per_op"] > 0
    if name == "shard-rw":
        assert m["shard.cross_shard_share"] > 0 and m["dbms.leaf_map_rebuilds"] > 0
    else:
        assert m["shard.host_s"] == 0 and m["dbms.leaf_map_rebuilds"] == 0
    if name == "serve-read":
        assert m["storage.disk_writes_per_op"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_sim_metrics_depend_only_on_the_seed(name):
    def sim(seed):
        metrics = tiny(name, seed=seed).metrics
        return {k: v for k, v in metrics.items() if k.startswith("sim_")}

    first = sim(3)
    assert sim(3) == first
    other = sim(4)
    assert other != first
    assert other["sim_lookup_mean_ms"] != first["sim_lookup_mean_ms"]


def test_benchmark_json_bounds():
    bounds = {m["name"]: m["bound"] for m in harness.SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_without_program_source_fails_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_shedding_at_the_reference_rate_fails_the_run():
    from dataclasses import replace

    import serving

    # One token and no queue: the reference phase sheds whenever two ops overlap.
    cfg = replace(harness.WORKLOADS["serve-read"].tiny, tokens=1, queue_depth=0)
    inputs = serving.make_inputs(cfg, 1, 1)
    system = serving.build(cfg, inputs)
    outcome = serving.drive(system, inputs)
    report = serving.evaluate(cfg, system, inputs, outcome, {})
    assert report.refused > 0
    assert any("reference phase" in problem for problem in report.problems), report.problems
