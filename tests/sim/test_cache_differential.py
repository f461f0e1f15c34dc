"""Differential cache harness: cached runs are bit-identical to cold ones.

The property pinned here, per scenario and per worker count: run an
experiment cold (empty cache), warm (fully populated cache), and from a
cache populated by *another process*, and every per-series array is
bit-identical to a cache-free baseline.  Around that sit compositions
with the rest of the fault-tolerance machinery — retries under chaos
injection, checkpoint-resume, on-disk corruption — and the
cross-topology-count property of content addressing.
"""

import glob
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.cache import ResultCache
from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, run_experiment
from repro.sim.faults import FaultKind, FaultPlan
from repro.sim.runner import RetryPolicy, RunnerError
from tests.core.test_batch import PLUS_OPTIONS, PLUS_SCENARIOS, assert_same_records

CONFIG = SimConfig(n_topologies=3)
SCENARIOS = [
    ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
    ScenarioSpec("3x2", 3, 2, include_copa_plus=False),
    ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
]
#: 3x2 with COPA+, whose two engine passes share their allocator-independent
#: results, so a cached outcome pair pickles shared references.
PLUS_SPEC = PLUS_SCENARIOS[0]
PLUS_CONFIG = SimConfig(n_topologies=2)
RETRYING = RetryPolicy(max_retries=2, sleep=lambda s: None)
FAIL_FAST = RetryPolicy(max_retries=0, sleep=lambda s: None)

_baselines = {}


def baseline_for(spec):
    """Cache-free reference run (memoized across this module's tests)."""
    if spec.name not in _baselines:
        _baselines[spec.name] = run_experiment(spec, CONFIG, workers=1)
    return _baselines[spec.name]


def series_of(result):
    return {key: result.series_mbps(key) for key in result.available_series()}


def assert_matches_baseline(result, spec, context):
    reference = baseline_for(spec)
    assert result.available_series() == reference.available_series()
    for key in reference.available_series():
        np.testing.assert_array_equal(
            result.series_mbps(key),
            reference.series_mbps(key),
            err_msg=f"{spec.name} {context}: series {key!r} drifted",
        )


def _run_in_subprocess(spec_name, cache_root, workers):
    """Module-level so ProcessPoolExecutor can pickle it by reference."""
    spec = next(s for s in SCENARIOS if s.name == spec_name)
    result = run_experiment(spec, CONFIG, workers=workers, cache=ResultCache(cache_root))
    return (
        {key: result.series_mbps(key) for key in result.available_series()},
        result.stats.cache_hits,
        result.stats.cache_misses,
    )


class TestColdVersusWarm:
    """The headline property, serial and parallel, every scenario."""

    @pytest.mark.parametrize("spec", SCENARIOS, ids=[s.name for s in SCENARIOS])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_and_warm_runs_are_bit_identical(self, spec, workers, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))

        cold = run_experiment(spec, CONFIG, workers=workers, cache=cache)
        assert cold.stats.cache_hits == 0
        assert cold.stats.cache_misses == CONFIG.n_topologies
        assert_matches_baseline(cold, spec, f"cold workers={workers}")

        warm = run_experiment(spec, CONFIG, workers=workers, cache=cache)
        assert warm.stats.cache_hits == CONFIG.n_topologies
        assert warm.stats.cache_misses == 0
        assert_matches_baseline(warm, spec, f"warm workers={workers}")

    def test_serial_cold_parallel_warm_and_vice_versa(self, tmp_path):
        """The cache must not care which execution mode filled it."""
        spec = SCENARIOS[2]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment(spec, CONFIG, workers=1, cache=cache)
        warm_parallel = run_experiment(spec, CONFIG, workers=2, cache=cache)
        assert warm_parallel.stats.cache_hits == CONFIG.n_topologies
        assert_matches_baseline(warm_parallel, spec, "serial-cold/parallel-warm")


def plus_run(**kwargs):
    return run_experiment(PLUS_SPEC, PLUS_CONFIG, workers=1, options=PLUS_OPTIONS, **kwargs)


class TestCopaPlus:
    """COPA+ outcome pairs come back from the cache and the sharded
    service equal to a fresh run's."""

    @pytest.fixture(scope="class")
    def fresh(self):
        return plus_run()

    def test_cold_and_warm_runs_equal_a_fresh_one(self, fresh, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = plus_run(cache=cache)
        warm = plus_run(cache=cache)
        assert (cold.stats.cache_hits, warm.stats.cache_hits) == (0, PLUS_CONFIG.n_topologies)
        for result in (cold, warm):
            assert_same_records(result.records, fresh.records)

    def test_sharded_run_equals_a_fresh_one(self, fresh, tmp_path):
        sharded = plus_run(
            shard_dir=str(tmp_path / "shards"), cache=ResultCache(str(tmp_path / "cache"))
        )
        assert_same_records(sharded.records, fresh.records)


class TestTwoProcessSharedCache:
    """A cache populated by one process serves another bit-identically."""

    @pytest.mark.parametrize("spec", SCENARIOS, ids=[s.name for s in SCENARIOS])
    def test_shared_cache_across_processes(self, spec, tmp_path):
        root = str(tmp_path / "shared")
        with ProcessPoolExecutor(max_workers=1) as pool:
            cold_series, cold_hits, cold_misses = pool.submit(
                _run_in_subprocess, spec.name, root, 1
            ).result()
        assert cold_hits == 0 and cold_misses == CONFIG.n_topologies

        warm = run_experiment(spec, CONFIG, workers=1, cache=ResultCache(root))
        assert warm.stats.cache_hits == CONFIG.n_topologies
        assert_matches_baseline(warm, spec, "two-process warm")
        for key, values in cold_series.items():
            np.testing.assert_array_equal(values, warm.series_mbps(key))


class TestChaosComposition:
    """Caching composes with fault injection and retries."""

    def test_crash_retry_with_cache_is_bit_identical(self, tmp_path):
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        plan = FaultPlan.at([1], FaultKind.CRASH)  # first attempt crashes
        chaotic = run_experiment(
            spec, CONFIG, workers=1, policy=RETRYING, fault_plan=plan, cache=cache
        )
        assert chaotic.stats.retries >= 1
        assert_matches_baseline(chaotic, spec, "chaos cold")

        warm = run_experiment(spec, CONFIG, workers=1, cache=cache)
        assert warm.stats.cache_hits == CONFIG.n_topologies
        assert_matches_baseline(warm, spec, "chaos warm")

    def test_cached_results_survive_a_poisoned_rerun(self, tmp_path):
        """Warm hits skip evaluation entirely: a fault plan that would
        crash every topology forever is never consulted on a full hit."""
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment(spec, CONFIG, workers=1, cache=cache)
        poison = FaultPlan.at(range(CONFIG.n_topologies), FaultKind.CRASH, trips=100)
        warm = run_experiment(
            spec, CONFIG, workers=1, policy=FAIL_FAST, fault_plan=poison, cache=cache
        )
        assert warm.stats.cache_hits == CONFIG.n_topologies
        assert_matches_baseline(warm, spec, "poisoned warm")


class TestCheckpointComposition:
    """Cache and journal cover different failure axes; they must stack."""

    def test_crash_then_resume_with_cache(self, tmp_path):
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        ckpt = str(tmp_path / "run.ckpt")
        plan = FaultPlan.at([2], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError) as excinfo:
            run_experiment(
                spec,
                CONFIG,
                workers=1,
                policy=FAIL_FAST,
                fault_plan=plan,
                checkpoint=ckpt,
                cache=cache,
            )
        assert set(excinfo.value.failures) == {2}

        resumed = run_experiment(
            spec, CONFIG, workers=1, checkpoint=ckpt, resume=True, cache=cache
        )
        assert_matches_baseline(resumed, spec, "checkpoint+cache resume")

        warm = run_experiment(spec, CONFIG, workers=1, cache=cache)
        assert warm.stats.cache_hits == CONFIG.n_topologies
        assert_matches_baseline(warm, spec, "post-resume warm")

    def test_journal_fingerprint_is_identical_with_and_without_cache(self, tmp_path):
        """Cached and uncached runs of one experiment share journals: the
        fingerprint covers the full task list even when hits shrink the
        dispatched set, so a warm rerun can resume a cold run's journal."""
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment(spec, CONFIG, workers=1, cache=cache)

        cold_ckpt = str(tmp_path / "cold.ckpt")
        run_experiment(spec, CONFIG, workers=1, checkpoint=cold_ckpt)
        resumed = run_experiment(
            spec, CONFIG, workers=1, checkpoint=cold_ckpt, resume=True, cache=cache
        )
        assert resumed.stats.resumed == CONFIG.n_topologies
        assert_matches_baseline(resumed, spec, "cache resuming uncached journal")


class TestContentAddressing:
    """Keys depend on content, not on the run that produced them."""

    def test_prefix_reuse_across_topology_counts(self, tmp_path):
        """Topology i's key is independent of n_topologies, so growing an
        experiment reuses every already-computed prefix topology."""
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment(spec, CONFIG.with_(n_topologies=2), workers=1, cache=cache)

        grown = run_experiment(spec, CONFIG.with_(n_topologies=3), workers=1, cache=cache)
        assert grown.stats.cache_hits == 2
        assert grown.stats.cache_misses == 1
        reference = run_experiment(spec, CONFIG.with_(n_topologies=3), workers=1)
        for key in reference.available_series():
            np.testing.assert_array_equal(grown.series_mbps(key), reference.series_mbps(key))

    def test_different_seeds_do_not_share_artifacts(self, tmp_path):
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        run_experiment(spec, CONFIG, workers=1, cache=cache)
        other = run_experiment(spec, CONFIG.with_(seed=7), workers=1, cache=cache)
        assert other.stats.cache_hits == 0
        assert other.stats.cache_misses == CONFIG.n_topologies


class TestCorruptionRecovery:
    """Damage any artifact on disk; the experiment recomputes and matches."""

    def test_corrupt_result_artifact_is_recomputed(self, tmp_path):
        spec = SCENARIOS[0]
        root = str(tmp_path / "cache")
        run_experiment(spec, CONFIG, workers=1, cache=ResultCache(root))
        artifacts = sorted(glob.glob(os.path.join(root, "v1", "results", "*", "*.art")))
        assert len(artifacts) == CONFIG.n_topologies
        with open(artifacts[0], "r+b") as handle:
            handle.seek(-20, os.SEEK_END)
            handle.write(b"\x00" * 20)

        cache = ResultCache(root)
        collector = Collector()
        warm = run_experiment(spec, CONFIG, workers=1, cache=cache, collector=collector)
        assert cache.stats.corrupt == 1
        assert warm.stats.cache_hits == CONFIG.n_topologies - 1
        assert warm.stats.cache_misses == 1
        assert collector.metrics.counters["cache.corrupt"] == 1
        assert_matches_baseline(warm, spec, "corruption recovery")

        healed = run_experiment(spec, CONFIG, workers=1, cache=ResultCache(root))
        assert healed.stats.cache_hits == CONFIG.n_topologies

    def test_corrupt_channel_artifact_is_recomputed(self, tmp_path):
        spec = SCENARIOS[0]
        root = str(tmp_path / "cache")
        run_experiment(spec, CONFIG, workers=1, cache=ResultCache(root))
        (artifact,) = glob.glob(os.path.join(root, "v1", "channels", "*", "*.art"))
        with open(artifact, "wb") as handle:
            handle.write(b"garbage")

        cache = ResultCache(root)
        warm = run_experiment(spec, CONFIG, workers=1, cache=cache)
        assert cache.stats.corrupt == 1
        assert_matches_baseline(warm, spec, "channel corruption recovery")


class TestObservabilityFlow:
    def test_cache_counters_reach_the_collector(self, tmp_path):
        spec = SCENARIOS[0]
        cache = ResultCache(str(tmp_path / "cache"))
        cold_collector = Collector()
        run_experiment(spec, CONFIG, workers=1, cache=cache, collector=cold_collector)
        assert cold_collector.metrics.counters["cache.miss"] == CONFIG.n_topologies + 1
        assert cold_collector.metrics.counters["cache.store"] == CONFIG.n_topologies + 1

        warm_collector = Collector()
        run_experiment(spec, CONFIG, workers=1, cache=cache, collector=warm_collector)
        counters = warm_collector.metrics.counters
        assert counters["cache.hit"] == CONFIG.n_topologies + 1
        assert counters["cache.bytes_read"] > 0
        assert "cache.miss" not in counters
        names = [span.name for span in warm_collector.spans]
        assert "cache.lookup" in names
