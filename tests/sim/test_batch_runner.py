"""Runner-level batching: dispatch semantics, bit-identity, options typing.

``run_tasks(batch_size=None)`` (the default) hands whole chunks to the
batched engine; ``batch_size=1`` forces the legacy per-topology path.
The two must agree bit for bit — serial or pooled — and the typed
``options`` surface must reject the retired ``engine_kwargs`` dict with
a crisp :class:`TypeError` at every public entry point.
"""

import warnings

import numpy as np
import pytest

from repro.core import batch as batch_engine
from repro.core.options import EngineOptions
from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.emulation import run_emulated_experiment
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim.runner import build_tasks, evaluate_batch, evaluate_topology, run_tasks
from repro.sim.sweep import (
    sweep_antenna_configurations,
    sweep_coherence_time,
    sweep_interference,
)

from tests.core.test_batch import assert_same_outcome

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


def assert_same_records(records_a, records_b):
    assert [r.index for r in records_a] == [r.index for r in records_b]
    for a, b in zip(records_a, records_b):
        assert_same_outcome(a.outcome, b.outcome)
        assert (a.plus_outcome is None) == (b.plus_outcome is None)
        if a.plus_outcome is not None:
            assert_same_outcome(a.plus_outcome, b.plus_outcome)


class TestDispatch:
    def test_serial_batched_matches_legacy_bit_for_bit(self, tasks):
        batched, stats = run_tasks(tasks, workers=1)
        legacy, legacy_stats = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(batched, legacy)
        assert stats.batch_size == len(tasks)
        assert legacy_stats.batch_size == 1

    def test_pool_batched_matches_legacy_bit_for_bit(self, tasks):
        pooled, stats = run_tasks(tasks, workers=2, batch_size=2)
        legacy, _ = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(pooled, legacy)
        assert stats.parallel
        assert stats.batch_size == 2

    def test_explicit_batch_size_caps_serial_groups(self, tasks):
        capped, stats = run_tasks(tasks, workers=1, batch_size=3)
        legacy, _ = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(capped, legacy)
        assert stats.batch_size == 3

    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_batch_size_rejected(self, tasks, bad):
        with pytest.raises(ValueError, match="batch_size"):
            run_tasks(tasks, batch_size=bad)

    def test_observed_runs_stay_per_topology(self, tasks):
        """Batching would change the trace shape, so an enabled collector
        must force the legacy path."""
        collector = Collector()
        _, stats = run_tasks(tasks[:2], workers=1, collector=collector)
        assert stats.batch_size == 1

    def test_engine_failure_falls_back_to_serial(self, tasks, monkeypatch):
        """A batching defect must never lose a sweep: the group is replayed
        through the reference per-topology path, with a warning naming the
        exception type and the group size."""

        def boom(group, collector=None):
            raise RuntimeError("injected batching defect")

        monkeypatch.setattr(batch_engine, "run_batch", boom)
        with pytest.warns(
            RuntimeWarning, match=rf"RuntimeError on a group of {len(tasks)} topologies"
        ):
            results = evaluate_batch(tasks)
        reference = [evaluate_topology(task) for task in tasks]
        assert_same_records(
            [r.record for r in results], [r.record for r in reference]
        )


    @pytest.mark.parametrize(
        "exc_type, n_tasks",
        [(ValueError, 1), (FloatingPointError, 2), (np.linalg.LinAlgError, 3)],
        ids=["ValueError", "FloatingPointError", "LinAlgError"],
    )
    def test_fallback_warning_names_the_failure(
        self, tasks, monkeypatch, exc_type, n_tasks
    ):
        def boom(group, collector=None):
            raise exc_type("injected batching defect")

        monkeypatch.setattr(batch_engine, "run_batch", boom)
        group = tasks[:n_tasks]
        with pytest.warns(
            RuntimeWarning,
            match=rf"{exc_type.__name__} on a group of {n_tasks} topologies",
        ):
            results = evaluate_batch(group)
        assert_same_records(
            [r.record for r in results],
            [evaluate_topology(task).record for task in group],
        )

    def test_fallback_is_visible_through_run_tasks(self, tasks, monkeypatch):
        def boom(group, collector=None):
            raise RuntimeError("injected batching defect")

        monkeypatch.setattr(batch_engine, "run_batch", boom)
        with pytest.warns(RuntimeWarning, match="replaying it per topology"):
            replayed, _ = run_tasks(tasks, workers=1)
        monkeypatch.undo()
        legacy, _ = run_tasks(tasks, workers=1, batch_size=1)
        assert_same_records(replayed, legacy)

    def test_clean_batch_does_not_warn_about_replay(self, tasks):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_batch(tasks)
        assert not [w for w in caught if "replaying it per topology" in str(w.message)]


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
    legacy = run_experiment(spec, config, workers=1, batch_size=1)
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
        legacy = run_experiment(spec, config, workers=1, batch_size=1)
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
        yield "run_emulated_experiment", lambda: run_emulated_experiment(
            spec, -10.0, config, options=dict(self.LEGACY)
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
