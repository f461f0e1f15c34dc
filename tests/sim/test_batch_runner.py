"""Runner-level batching: dispatch units, splits, bit-identity, options typing.

``run_tasks`` cuts its tasks into batched-engine groups capped at
``chunk_size`` (default: whole groups serially); ``chunk_size=1``
evaluates every topology on its own.  The two must agree bit for bit —
serial or pooled.  A failed group is split into halves with a warning,
a failed single task is retried and then reported, and the typed
``options`` surface must reject the retired ``engine_kwargs`` dict with
a crisp :class:`TypeError` at every public entry point.
"""

import warnings

import numpy as np
import pytest

from repro.core import batch as batch_engine
from repro.core.options import EngineOptions
from repro.obs import Collector
from repro.sim import runner
from repro.sim.checkpoint import validate_journal
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim.runner import RunnerError, build_tasks, run_tasks
from repro.sim.sweep import (
    sweep_antenna_configurations,
    sweep_coherence_time,
    sweep_interference,
)

from tests.core.test_batch import assert_same_records

SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=True)
CONFIG = SimConfig(n_topologies=4)


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(
        generate_channel_sets(SPEC, CONFIG),
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
        include_copa_plus=True,
    )


@pytest.fixture(scope="module")
def per_topology(tasks):
    records, _ = run_tasks(tasks, workers=1, chunk_size=1)
    return records


class TestDispatch:
    def test_serial_batched_matches_per_topology_bit_for_bit(self, tasks, per_topology):
        batched, stats = run_tasks(tasks, workers=1)
        _, single_stats = run_tasks(tasks, workers=1, chunk_size=1)
        assert_same_records(batched, per_topology)
        assert stats.batch_size == len(tasks)
        assert single_stats.batch_size == 1

    def test_pool_batched_matches_per_topology_bit_for_bit(self, tasks, per_topology):
        pooled, stats = run_tasks(tasks, workers=2, chunk_size=2)
        assert_same_records(pooled, per_topology)
        assert stats.parallel
        assert stats.batch_size == 2

    def test_explicit_chunk_size_caps_serial_groups(self, tasks, per_topology):
        capped, stats = run_tasks(tasks, workers=1, chunk_size=3)
        assert_same_records(capped, per_topology)
        assert stats.batch_size == 3
        assert stats.chunk_size == 3

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_chunk_size_rejected(self, tasks, bad, workers):
        with pytest.raises(ValueError, match="chunk_size"):
            run_tasks(tasks, workers=workers, chunk_size=bad)
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        with pytest.raises(ValueError, match="chunk_size"):
            run_experiment(spec, CONFIG, workers=workers, chunk_size=bad)

    @pytest.mark.parametrize(
        "dispatch", [{"workers": 1}, {"workers": 2, "chunk_size": 2}], ids=["serial", "pool"]
    )
    def test_observed_runs_batch(self, tasks, per_topology, dispatch):
        """An enabled collector changes the trace, never the units or the bits."""
        plain, plain_stats = run_tasks(tasks, **dispatch)
        observed, stats = run_tasks(tasks, collector=Collector(), **dispatch)
        assert stats.observed and stats.batch_size == plain_stats.batch_size > 1
        assert_same_records(observed, plain)
        assert_same_records(observed, per_topology)


POOL = {"workers": 2, "chunk_size": 2}


def split_messages(caught):
    return [str(w.message) for w in caught if "batched engine raised" in str(w.message)]


class TestSplit:
    """A failed group is halved at the same attempt; a failed single is
    retried and then reported.  The pool forks, so the patches reach its
    workers."""

    @staticmethod
    def fail_on(monkeypatch, index):
        """Every group containing ``index``, and the task on its own, raise."""
        run_batch, evaluate_topology = batch_engine.run_batch, runner.evaluate_topology

        def batched(group, collector=None):
            if any(task.index == index for task in group):
                raise RuntimeError(f"injected defect at topology {index}")
            return run_batch(group, collector)

        def single(task):
            if task.index == index:
                raise RuntimeError(f"injected defect at topology {index}")
            return evaluate_topology(task)

        monkeypatch.setattr(batch_engine, "run_batch", batched)
        monkeypatch.setattr(runner, "evaluate_topology", single)

    @pytest.mark.parametrize(
        "dispatch, splits",
        [({"workers": 1}, 2), (POOL, 1)],
        ids=["serial", "pool"],
    )
    def test_persistent_failure_is_isolated_to_its_task(
        self, tasks, per_topology, monkeypatch, tmp_path, dispatch, splits
    ):
        self.fail_on(monkeypatch, 2)
        path = str(tmp_path / "split.ckpt")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RunnerError) as excinfo:
                run_tasks(tasks, checkpoint=path, **dispatch)
        error = excinfo.value
        assert set(error.failures) == {2}
        assert "injected defect" in error.failures[2]
        assert_same_records(error.records, [per_topology[i] for i in (0, 1, 3)])
        assert validate_journal(path)["indices"] == [0, 1, 3]
        messages = split_messages(caught)
        assert len(messages) == splits
        assert all("batched engine raised RuntimeError on a group of" in m for m in messages)

    @pytest.mark.parametrize(
        "dispatch", [{"workers": 1}, {"workers": 2, "chunk_size": 4}], ids=["serial", "pool"]
    )
    def test_halves_that_succeed_are_bit_identical(
        self, tasks, per_topology, monkeypatch, dispatch
    ):
        run_batch = batch_engine.run_batch

        def large_groups_fail(group, collector=None):
            if len(group) > 2:
                raise FloatingPointError("injected defect in large groups")
            return run_batch(group, collector)

        monkeypatch.setattr(batch_engine, "run_batch", large_groups_fail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records, stats = run_tasks(tasks, **dispatch)
        assert_same_records(records, per_topology)
        assert stats.batch_size == 2
        assert stats.retries == 0
        assert split_messages(caught) == [
            f"batched engine raised FloatingPointError on a group of {len(tasks)} "
            "topologies; splitting it into 2 + 2"
        ]

    def test_clean_run_does_not_split(self, tasks):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_tasks(tasks, workers=1)
        assert split_messages(caught) == []


EQUIVALENCE_SCENARIOS = {
    "1x1": ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
    "4x2": ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
    "3x2": ScenarioSpec("3x2", 3, 2, include_copa_plus=False),
}


@pytest.fixture(scope="module", params=sorted(EQUIVALENCE_SCENARIOS))
def batched_and_legacy(request):
    spec = EQUIVALENCE_SCENARIOS[request.param]
    config = SimConfig(n_topologies=5)
    batched = run_experiment(spec, config, workers=1)
    legacy = run_experiment(spec, config, workers=1, chunk_size=1)
    return request.param, batched, legacy


class TestScenarioEquivalence:
    """Batched numpy and per-topology runs agree on every scenario.

    Comparisons are exact: the batched engine promises the serial
    engine's bits, not a tolerance.
    """

    def test_same_series_are_available(self, batched_and_legacy):
        _, batched, legacy = batched_and_legacy
        assert batched.available_series() == legacy.available_series()

    def test_every_series_is_bit_identical(self, batched_and_legacy):
        name, batched, legacy = batched_and_legacy
        for key in legacy.available_series():
            np.testing.assert_array_equal(
                batched.series_mbps(key),
                legacy.series_mbps(key),
                err_msg=f"{name}/{key} diverged",
            )

    def test_scheme_choices_agree(self, batched_and_legacy):
        _, batched, legacy = batched_and_legacy
        assert len(batched.records) == len(legacy.records)
        for a, b in zip(batched.records, legacy.records):
            assert a.outcome.copa_choice == b.outcome.copa_choice
            assert a.outcome.copa_fair_choice == b.outcome.copa_fair_choice


class TestExperimentSurface:
    def test_series_match_across_dispatch_modes(self):
        spec = ScenarioSpec("3x2", 3, 2, include_copa_plus=True)
        config = SimConfig(n_topologies=3)
        batched = run_experiment(spec, config, workers=1)
        legacy = run_experiment(spec, config, workers=1, chunk_size=1)
        assert batched.available_series() == legacy.available_series()
        for key in batched.available_series():
            np.testing.assert_array_equal(
                batched.series_mbps(key), legacy.series_mbps(key)
            )


class TestLegacyDictRejection:
    """Every ``options`` entry point rejects the retired dict spelling.

    The PR-7 deprecation window is over: a legacy ``engine_kwargs`` dict
    raises a crisp :class:`TypeError` with the migration hint instead of
    being coerced with a warning.
    """

    LEGACY = {"max_iterations": 8}

    def entry_points(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=1)
        sets = generate_channel_sets(spec, config)
        yield "run_experiment", lambda: run_experiment(
            spec, config, options=dict(self.LEGACY)
        )
        yield "build_tasks", lambda: build_tasks(
            sets,
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            options=dict(self.LEGACY),
        )
        yield "sweep_coherence_time", lambda: sweep_coherence_time(
            (0.120,), spec, config, options=dict(self.LEGACY)
        )
        yield "sweep_interference", lambda: sweep_interference(
            (0.0,), spec, config, options=dict(self.LEGACY)
        )
        yield "sweep_antenna_configurations", lambda: sweep_antenna_configurations(
            ((1, 1),), config, options=dict(self.LEGACY)
        )

    def test_every_entry_point_raises_type_error(self):
        for name, call in self.entry_points():
            with pytest.raises(TypeError, match="engine_kwargs dict form was removed"):
                call()
            # pytest.raises asserts per entry point; ``name`` labels failures.

    def test_typed_options_never_warn(self):
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        config = SimConfig(n_topologies=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_experiment(spec, config, options=EngineOptions(max_iterations=8))
