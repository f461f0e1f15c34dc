"""The parallel experiment runner: determinism, fallbacks, telemetry.

The headline contract is parallel-vs-serial *bit-identity*: fanning the
topologies of a scenario out to a process pool must produce exactly the
series a serial run produces, for every scenario shape and every series
key.  The engine seeds travel inside the task specs, so this holds by
construction — these tests pin it.
"""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from repro.core.options import EngineOptions
from repro.obs import Collector
from repro.phy.rates import best_rate
from repro.sim.config import SimConfig
from repro.sim.experiment import SERIES_KEYS, ScenarioSpec, run_experiment
from repro.sim.runner import (
    SEED_OFFSET,
    RunnerStats,
    build_tasks,
    auto_chunk_size,
    evaluate_topology,
    resolve_workers,
    run_tasks,
)

# Reduced-size variants of the paper's three scenario shapes.  COPA+ is
# enabled only on the cheap single-antenna scenario; together the three
# cover every key in SERIES_KEYS (1x1 has no nulling scheme, 4x2/3x2 do).
EQUIVALENCE_CASES = [
    (ScenarioSpec("1x1", 1, 1, include_copa_plus=True), 2),
    (ScenarioSpec("4x2", 4, 2, include_copa_plus=False), 3),
    (ScenarioSpec("3x2", 3, 2, include_copa_plus=False), 2),
]


@pytest.fixture(scope="module", params=range(len(EQUIVALENCE_CASES)), ids=["1x1", "4x2", "3x2"])
def serial_and_parallel(request):
    spec, n_topologies = EQUIVALENCE_CASES[request.param]
    config = SimConfig(n_topologies=n_topologies)
    serial = run_experiment(spec, config, workers=1)
    parallel = run_experiment(spec, config, workers=4)
    return serial, parallel


class TestParallelSerialEquivalence:
    def test_pool_actually_ran(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.stats is not None and not serial.stats.parallel
        assert parallel.stats is not None and parallel.stats.parallel
        assert parallel.stats.workers == 4

    def test_every_series_bit_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.available_series() == parallel.available_series()
        for key in SERIES_KEYS:
            if key not in serial.available_series():
                continue
            np.testing.assert_array_equal(
                serial.series_mbps(key),
                parallel.series_mbps(key),
                err_msg=f"series {key!r} differs between serial and parallel runs",
            )

    def test_choices_and_indices_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for a, b in zip(serial.records, parallel.records):
            assert a.index == b.index
            assert a.outcome.copa_choice == b.outcome.copa_choice
            assert a.outcome.copa_fair_choice == b.outcome.copa_fair_choice


def test_equivalence_cases_cover_all_series_keys():
    """The three scenarios above jointly exercise every SERIES_KEYS entry."""
    covered = set()
    for spec, n in EQUIVALENCE_CASES:
        result = run_experiment(spec, SimConfig(n_topologies=1))
        covered.update(result.available_series())
    assert covered == set(SERIES_KEYS)


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    @pytest.mark.parametrize("all_cores", [0, -1])
    def test_nonpositive_means_all_cores(self, all_cores):
        assert resolve_workers(all_cores) == (os.cpu_count() or 1)


class TestAutoChunkSize:
    def test_serial_is_one(self):
        assert auto_chunk_size(30, 1) == 1

    def test_empty_is_one(self):
        assert auto_chunk_size(0, 4) == 1

    def test_four_rounds_per_worker(self):
        assert auto_chunk_size(30, 4) == 2
        assert auto_chunk_size(100, 8) == 4

    def test_never_zero(self):
        assert auto_chunk_size(3, 16) == 1


class TestBuildTasks:
    def test_seeds_match_serial_convention(self):
        spec = ScenarioSpec("4x2", 4, 2)
        config = SimConfig(n_topologies=3, seed=77)
        from repro.sim.experiment import generate_channel_sets

        sets = generate_channel_sets(spec, config)
        tasks = build_tasks(
            sets, base_seed=config.seed, coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
        )
        assert [t.seed for t in tasks] == [77 + SEED_OFFSET + i for i in range(3)]
        assert [t.index for t in tasks] == [0, 1, 2]

    def test_tasks_are_picklable(self):
        spec = ScenarioSpec("1x1", 1, 1)
        config = SimConfig(n_topologies=1)
        from repro.sim.experiment import generate_channel_sets

        tasks = build_tasks(
            generate_channel_sets(spec, config),
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            options=EngineOptions(rate_selector=best_rate),
        )
        restored = pickle.loads(pickle.dumps(tasks[0]))
        result = evaluate_topology(restored)
        assert result.record.index == 0
        assert result.elapsed_s > 0
        # Observability was not requested: no spans, no metrics.
        assert result.spans is None and result.metrics is None

    def test_legacy_options_dict_is_rejected(self):
        """The retired ``engine_kwargs`` dict, passed via ``options``, now
        raises a crisp TypeError with the migration hint (removal complete
        after the one-release deprecation window)."""
        spec = ScenarioSpec("1x1", 1, 1)
        config = SimConfig(n_topologies=1)
        from repro.sim.experiment import generate_channel_sets

        sets = generate_channel_sets(spec, config)
        with pytest.raises(TypeError, match="engine_kwargs dict form was removed"):
            build_tasks(
                sets,
                base_seed=config.seed,
                coherence_s=config.coherence_s,
                imperfections=config.imperfections(),
                options={"rate_selector": best_rate},
            )

    def test_engine_kwargs_keyword_is_gone(self):
        """The ``engine_kwargs`` keyword is retired from the public surface."""
        spec = ScenarioSpec("1x1", 1, 1)
        config = SimConfig(n_topologies=1)
        from repro.sim.experiment import generate_channel_sets

        sets = generate_channel_sets(spec, config)
        with pytest.raises(TypeError):
            build_tasks(
                sets,
                base_seed=config.seed,
                coherence_s=config.coherence_s,
                imperfections=config.imperfections(),
                engine_kwargs={"rate_selector": best_rate},
            )
        with pytest.raises(TypeError):
            run_experiment(spec, config, engine_kwargs={"rate_selector": best_rate})


class TestGracefulDegradation:
    def test_unpicklable_options_fall_back_to_serial(self):
        """A lambda rate selector can't cross a process boundary; the runner
        must degrade to the serial path instead of crashing."""
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=2)
        selector = lambda sinr, used: best_rate(sinr, used=used)  # noqa: E731
        result = run_experiment(
            spec, config, options=EngineOptions(rate_selector=selector), workers=4
        )
        assert result.stats is not None
        assert not result.stats.parallel
        assert "picklable" in result.stats.fallback_reason
        reference = run_experiment(spec, config, workers=1)
        np.testing.assert_array_equal(
            result.series_mbps("copa"), reference.series_mbps("copa")
        )

    def test_single_task_skips_the_pool(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        result = run_experiment(spec, SimConfig(n_topologies=1), workers=4)
        assert not result.stats.parallel
        assert "one task" in result.stats.fallback_reason

    def test_workers_one_has_no_fallback_reason(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        result = run_experiment(spec, SimConfig(n_topologies=2), workers=1)
        assert not result.stats.parallel
        assert result.stats.fallback_reason is None


class TestRunnerObservability:
    """Cross-process span grafting and metrics merge (see repro.obs)."""

    def _tasks(self, n=3):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=n)
        from repro.sim.experiment import generate_channel_sets

        return build_tasks(
            generate_channel_sets(spec, config),
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
        )

    def test_collector_records_dispatch_and_per_task_spans(self):
        tasks = self._tasks(3)
        collector = Collector()
        records, stats = run_tasks(tasks, workers=1, collector=collector)
        assert len(records) == 3
        names = [span.name for span in collector.spans]
        assert names.count("runner.run_tasks") == 1
        for index in range(3):
            assert names.count(f"topology[{index}]") == 1
        # The one batched unit's engine spans were grafted once, under it.
        assert names.count("runner.unit") == 1 and names.count("engine.run") == 1
        assert stats.observed and stats.spans_merged == len(collector.spans)
        # Outside every span the dispatch is a root...
        (dispatch,) = [s for s in collector.spans if s.name == "runner.run_tasks"]
        assert dispatch.parent_id is None
        # ...and inside an experiment it nests under the experiment's span.
        collector = Collector()
        run_experiment(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            SimConfig(n_topologies=2),
            workers=1,
            collector=collector,
        )
        by_id = {span.span_id: span for span in collector.spans}
        (dispatch,) = [s for s in collector.spans if s.name == "runner.run_tasks"]
        assert by_id[dispatch.parent_id].name == "experiment"

    def test_parallel_merge_matches_serial(self):
        tasks = self._tasks(3)
        serial, parallel = Collector(), Collector()
        run_tasks(tasks, workers=1, chunk_size=1, collector=serial)
        run_tasks(tasks, workers=3, collector=parallel)
        assert serial.metrics.as_payload() == parallel.metrics.as_payload()
        assert [s.name for s in serial.spans] == [s.name for s in parallel.spans]

    def test_grafted_spans_nest_inside_their_topology(self):
        """Engine spans nest in the ``runner.unit`` span holding their
        topologies: one unit of two rows serially, two of one on a pool."""
        tasks = self._tasks(2)
        for dispatch, rows in (({"workers": 1}, [2]), ({"workers": 2, "chunk_size": 1}, [1, 1])):
            collector = Collector()
            run_tasks(tasks, collector=collector, **dispatch)
            by_id = {span.span_id: span for span in collector.spans}
            engine_runs = [span for span in collector.spans if span.name == "engine.run"]
            assert sorted(span.attrs["rows"] for span in engine_runs) == rows
            topologies = [s for s in collector.spans if s.name.startswith("topology[")]
            for span in engine_runs + topologies:
                parent = by_id[span.parent_id]
                assert parent.name == "runner.unit"
                assert parent.start_s <= span.start_s
                assert span.end_s <= parent.end_s + 1e-9

    def test_no_collector_keeps_tasks_unobserved(self):
        tasks = self._tasks(2)
        records, stats = run_tasks(tasks, workers=1)
        assert len(records) == 2
        assert not stats.observed and stats.spans_merged == 0

    def test_tasks_not_mutated_by_observation(self):
        tasks = self._tasks(2)
        assert all(not task.observe for task in tasks)
        run_tasks(tasks, workers=1, collector=Collector())
        # run_tasks flips observe on copies, never on the caller's tasks.
        assert all(not task.observe for task in tasks)

    def test_observed_task_roundtrips_through_pickle(self):
        task = dataclasses.replace(self._tasks(1)[0], observe=True)
        result = evaluate_topology(pickle.loads(pickle.dumps(task)))
        assert result.spans and result.metrics is not None
        assert pickle.loads(pickle.dumps(result)).record.index == 0


class TestRunnerStats:
    def test_timing_fields(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        result = run_experiment(spec, SimConfig(n_topologies=2), workers=1)
        stats = result.stats
        assert stats.n_topologies == 2
        assert len(stats.topology_wall_s) == 2
        assert all(t > 0 for t in stats.topology_wall_s)
        assert stats.total_wall_s >= max(stats.topology_wall_s)
        assert stats.topologies_per_s > 0
        assert 0.0 < stats.worker_utilization <= 1.0

    def test_explicit_chunk_size_respected(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        result = run_experiment(
            spec, SimConfig(n_topologies=2), workers=2, chunk_size=2
        )
        # chunk_size is recorded whenever the pool ran; with one chunk of 2
        # the pool still runs (2 tasks > 1).
        assert result.stats.parallel
        assert result.stats.chunk_size == 2

    def test_degenerate_stats_are_safe(self):
        stats = RunnerStats(
            workers=0, chunk_size=1, parallel=False, total_wall_s=0.0,
            topology_wall_s=(),
        )
        assert stats.topologies_per_s == 0.0
        assert stats.worker_utilization == 0.0
        assert stats.busy_s == 0.0
