"""Self-test of the benchmark at tiny sizes: ``pytest bench/ -q`` (under a minute).

Tiny runs shorten every workload (one COPA+ topology with a single
Fig-6 iteration, query passes over two cells, two-topology shard drains),
so their numbers say nothing about performance; they prove that every
workload runs, that its payload is complete and that the gates can fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import host, run
from bench.workloads import agrees

SEED = 5
DEFINITION = run.load_definition()
END_TO_END = [metric["name"] for metric in DEFINITION["end_to_end"]]
PER_LAYER = [metric["name"] for metric in DEFINITION["per_layer"]]
#: Per-layer metrics derived only from wrapped calls' arguments and results.
EXACT = [
    metric["name"]
    for metric in DEFINITION["per_layer"]
    if metric["unit"] in ("count", "iterations", "B")
] + ["cache.hit_rate", "core.equi_sinr.fig6_converged_frac"]


def _tiny(workload: str, trace: bool, digests=None) -> dict:
    return run.run_workload(workload, SEED, 0.01, trace, tiny=True, digests=digests)


@pytest.fixture(scope="module")
def untraced():
    return {workload: _tiny(workload, False) for workload in run.WORKLOAD_NAMES}


@pytest.fixture(scope="module")
def traced():
    return {workload: [_tiny(workload, True) for _ in range(2)] for workload in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_end_to_end_payload(untraced, workload):
    payload = untraced[workload]
    assert payload["correct"] and payload["failed"] == 0 and payload["attempted"] >= 1
    assert sorted(payload["metrics"]) == sorted(END_TO_END)
    assert all(metric["value"] > 0 for metric in payload["metrics"].values())
    # Self-test runs time one set-up; full runs time five.
    assert payload["metrics"]["setup_s"]["samples"] == 1
    assert {"iqr", "wall"} <= set(payload["metrics"]["latency_p50_ms"])
    provenance = payload["provenance"]
    assert provenance["seed"] == SEED and provenance["host"]["cpus"] >= 1
    assert set(provenance["blas_env"]) == set(run.BLAS_ENV)
    assert {"python", "numpy", "git_commit"} <= set(provenance)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_layer_payload(traced, untraced, workload):
    for payload in traced[workload]:
        assert payload["correct"], payload["checks"]
        assert sorted(payload["metrics"]) == sorted(PER_LAYER)
        # Tracing must not change what the program computes.
        assert payload["digest"] == untraced[workload]["digest"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_self_times_and_residual_add_up_to_the_wall(traced, workload):
    for payload in traced[workload]:
        metrics = payload["metrics"]
        wall = metrics["trace.wall_s"]["value"]
        self_total = sum(layer["self_s"] for layer in payload["layers"].values())
        residual = metrics["trace.residual_s"]["value"]
        assert all(layer["self_s"] >= 0 for layer in payload["layers"].values())
        assert abs(self_total + residual - wall) <= 0.01 * wall


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_exactly(traced, workload):
    first, second = ({name: p["metrics"][name]["value"] for name in EXACT} for p in traced[workload])
    assert first == second


def test_counts_see_each_layer(traced):
    def value(workload, name):
        return traced[workload][0]["metrics"][name]["value"]

    assert value("copa-plus-3x2", "core.mercury.waterfill_calls") > 0
    assert value("menu-4x2", "core.mercury.waterfill_calls") == 0
    assert value("menu-4x2", "sim.runner.batch_size") == 2
    # Two cells per tiny query pass: each misses once, running the engine,
    # then hits three times.
    assert value("decision-query-4x2", "core.strategy.engine_runs") == 2
    # Two tiny shard drains of two topologies each.
    assert value("shard-drain-4x2", "core.strategy.engine_runs") == 4
    assert value("shard-drain-4x2", "sim.runner.batch_size") == 1
    assert value("shard-drain-4x2", "cache.lookups_per_task") == 2.0
    assert value("shard-drain-4x2", "sim.checkpoint.records") == 4
    assert value("decision-query-4x2", "cache.hit_rate") == 0.75
    assert value("decision-query-4x2", "sim.service.elapsed_gap_ms") > 0


def test_tampered_digest_fails_the_run(untraced):
    good = untraced["menu-4x2"]["digest"]
    key = run.digest_key("menu-4x2", tiny=True)
    passing = _tiny("menu-4x2", False, {key: {"seed": SEED, "digest": good}})
    assert passing["correct"] and passing["checks"]["stored_digest"]
    tampered = dict(good, **{"0/csma": "0" * 64})
    assert tampered != good
    # A series the run no longer computes (COPA+ dropped, say) fails too.
    missing = dict(good, **{"0/copa_plus": "0" * 64})
    for stored in (tampered, missing):
        failing = _tiny("menu-4x2", False, {key: {"seed": SEED, "digest": stored}})
        assert not failing["correct"] and not failing["checks"]["stored_digest"]
        assert failing["failed"] == failing["attempted"] >= 1


def test_outputs_must_match_the_stored_ones_exactly():
    stored = {"a": "1", "b": "2"}
    assert agrees(dict(stored), stored)
    assert not agrees({"a": "1"}, stored)
    assert not agrees({"a": "1", "b": "2", "c": "3"}, stored)
    assert not agrees({}, {})


def test_timings_are_scaled_by_the_probes_and_taken_over_the_units():
    units = [
        {"latency_s": [0.3, 0.1], "start_s": [1.0, 2.0], "topologies": [2, 2]},
        {"latency_s": [0.2, 0.4], "start_s": [3.0, 4.0], "topologies": [2, 2]},
        {"latency_s": [0.5, 0.2], "start_s": [5.0, 6.0], "topologies": [2, 2]},
        # A failed unit holds one sample and is left out.
        {"latency_s": [0.01], "start_s": [7.0], "topologies": [0]},
    ]
    # The host runs at the reference speed, then from t=4.95 at half of it.
    fast, slow = host.REFERENCE_S, 2 * host.REFERENCE_S
    probes = [(start, start + 0.02, fast) for start in (0.5, 1.5, 2.5, 3.5, 4.5)]
    probes += [(start, start + 0.02, slow) for start in (4.95, 5.6, 6.5)]
    child = {"units": units, "probes": probes, "peak_rss_mb": 1.0}
    metrics = run.end_to_end_metrics(child, [(1.0, 1.5), (2.0, 2.5), (3.0, 3.5)])
    # Scaled, the operations took 0.3/0.2/0.25 s and 0.1/0.4/0.1 s.
    assert metrics["latency_p50_ms"]["value"] == pytest.approx((250.0 + 100.0) / 2)
    assert metrics["topologies_per_s"]["value"] == pytest.approx(4 / 0.35)
    assert metrics["latency_p50_ms"]["wall"] == pytest.approx((300.0 + 200.0) / 2)
    assert metrics["latency_p50_ms"]["samples"] == 6
    assert metrics["setup_s"]["value"] == 2.0 and metrics["setup_s"]["wall"] == 2.5


def test_overhead_is_the_wrappers_cost_over_the_wall(traced):
    for runs in traced.values():
        for payload in runs:
            assert 0 < payload["metrics"]["trace.overhead_frac"]["value"] < 1


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_the_result_line():
    done = _bench(run.ROOT, "--workload", "menu-4x2", "--seed", str(SEED), "--seconds", "0.01", "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(sorted(metric) == ["unit", "value"] for metric in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.BENCHMARK_FILE, tmp_path)
    shutil.copytree(
        os.path.join(run.ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _bench(str(tmp_path), "--workload", "menu-4x2", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
