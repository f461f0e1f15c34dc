"""The multi-topology experiment runner."""

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import (
    CONSTRAINED_4X2,
    ScenarioSpec,
    generate_channel_sets,
    run_experiment,
)


@pytest.fixture(scope="module")
def small_result():
    spec = ScenarioSpec("4x2", 4, 2, include_copa_plus=False)
    return run_experiment(spec, SimConfig(n_topologies=4))


class TestGenerateChannelSets:
    def test_count_and_antennas(self):
        cfg = SimConfig(n_topologies=3)
        sets = generate_channel_sets(CONSTRAINED_4X2, cfg)
        assert len(sets) == 3
        for cs in sets:
            assert cs.channel("AP1", "C1").shape == (52, 2, 4)

    def test_reproducible(self):
        cfg = SimConfig(n_topologies=2)
        a = generate_channel_sets(CONSTRAINED_4X2, cfg)
        b = generate_channel_sets(CONSTRAINED_4X2, cfg)
        np.testing.assert_array_equal(
            a[0].channel("AP1", "C1"), b[0].channel("AP1", "C1")
        )

    def test_different_seeds_differ(self):
        a = generate_channel_sets(CONSTRAINED_4X2, SimConfig(n_topologies=1, seed=1))
        b = generate_channel_sets(CONSTRAINED_4X2, SimConfig(n_topologies=1, seed=2))
        assert not np.allclose(a[0].channel("AP1", "C1"), b[0].channel("AP1", "C1"))

    def test_interference_offset_applied(self):
        cfg = SimConfig(n_topologies=1)
        base = generate_channel_sets(ScenarioSpec("x", 4, 2), cfg)[0]
        weak = generate_channel_sets(
            ScenarioSpec("x", 4, 2, interference_offset_db=-10.0), cfg
        )[0]
        ratio = np.mean(np.abs(weak.channel("AP1", "C2")) ** 2) / np.mean(
            np.abs(base.channel("AP1", "C2")) ** 2
        )
        assert 10 * np.log10(ratio) == pytest.approx(-10.0, abs=0.1)


class TestExperimentResult:
    def test_series_lengths(self, small_result):
        for key in ("csma", "copa_seq", "null", "copa", "copa_fair"):
            assert small_result.series_mbps(key).shape == (4,)

    def test_copa_plus_absent_when_disabled(self, small_result):
        with pytest.raises(KeyError):
            small_result.series_mbps("copa_plus")

    def test_unknown_series_rejected(self, small_result):
        with pytest.raises(KeyError):
            small_result.series_mbps("quantum")

    def test_available_series(self, small_result):
        available = small_result.available_series()
        assert "csma" in available and "copa" in available
        assert "copa_plus" not in available

    def test_mean_table(self, small_result):
        table = small_result.mean_table_mbps()
        assert table["csma"] == pytest.approx(
            small_result.series_mbps("csma").mean()
        )

    def test_summary(self, small_result):
        s = small_result.summary("copa")
        assert s.n == 4
        assert s.minimum <= s.median <= s.maximum

    def test_throughputs_in_sane_range(self, small_result):
        for key in small_result.available_series():
            series = small_result.series_mbps(key)
            assert np.all(series >= 0)
            assert np.all(series <= 270)  # two 2-stream links at 65 Mbit/s

    def test_copa_at_least_copa_seq_predictions_hold_mostly(self, small_result):
        """COPA picks by prediction, so the measured result can occasionally
        fall below COPA-SEQ, but on average it must not."""
        copa = small_result.series_mbps("copa")
        seq = small_result.series_mbps("copa_seq")
        assert copa.mean() >= seq.mean() * 0.95


class TestAvailableSeriesProbe:
    """available_series() probes every record's aggregates — it must not
    recompute (or even touch) the full series arrays."""

    def test_copa_plus_excluded_when_disabled(self, small_result):
        """include_copa_plus=False: the plus series are absent, the rest
        present, and the probe agrees with what series_mbps() can deliver."""
        available = small_result.available_series()
        assert available == ["csma", "copa_seq", "null", "copa", "copa_fair"]
        for key in available:
            assert small_result.series_mbps(key).shape == (4,)

    def test_probe_does_not_build_series(self, small_result, monkeypatch):
        def boom(key):
            raise AssertionError("available_series must not compute full series")

        monkeypatch.setattr(small_result, "series_mbps", boom)
        assert "csma" in small_result.available_series()

    def test_empty_result_has_no_series(self, small_result):
        from repro.sim.experiment import ExperimentResult

        empty = ExperimentResult(spec=small_result.spec, records=[])
        assert empty.available_series() == []

    def test_series_missing_on_one_topology_is_unavailable(self):
        """A greedy clustering splits one 3-AP topology into singletons,
        which offer no concurrent scheme, while its neighbours keep one."""
        from repro.core.options import EngineOptions

        result = run_experiment(
            ScenarioSpec("4x2-n3", 4, 2, include_copa_plus=False, n_aps=3),
            SimConfig(n_topologies=3),
            options=EngineOptions(cluster_policy="greedy", cluster_threshold_db=-70.0),
        )
        assert "null" in result.records[0].outcome.schemes
        available = result.available_series()
        assert available == ["csma", "copa_seq", "copa", "copa_fair"]
        for key in available:
            assert result.series_mbps(key).shape == (3,)

    def test_runner_stats_attached(self, small_result):
        assert small_result.stats is not None
        assert small_result.stats.n_topologies == 4


class TestCopaPlus:
    def test_plus_outcomes_recorded(self):
        spec = ScenarioSpec("4x2", 4, 2, include_copa_plus=True)
        result = run_experiment(spec, SimConfig(n_topologies=1))
        assert result.records[0].plus_outcome is not None
        assert result.series_mbps("copa_plus").shape == (1,)
