"""Trace-driven emulation (§4.4): the offset spec, persistence, replay."""

from dataclasses import replace

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.emulation import load_trace, load_traces, save_trace, save_traces
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment

from tests.core.test_batch import assert_same_records


class TestEmulatedExperiment:
    @pytest.mark.parametrize(
        "spec, offset_db",
        [
            (ScenarioSpec("4x2", 4, 2, include_copa_plus=False), -10.0),
            (ScenarioSpec("3x2", 3, 2, include_copa_plus=True), -5.0),
        ],
        ids=["4x2-10dB", "3x2-5dB+plus"],
    )
    def test_offset_spec_equals_replaying_scaled_traces(self, spec, offset_db):
        """The spec's offset is the record-scale-replay of §4.4, bit for bit."""
        cfg = SimConfig(n_topologies=3)
        scaled = [c.scaled_interference(offset_db) for c in generate_channel_sets(spec, cfg)]
        replayed = run_experiment(spec, cfg, channel_sets=scaled, workers=1)
        emulated = run_experiment(
            replace(spec, interference_offset_db=offset_db), cfg, workers=1
        )
        assert_same_records(emulated.records, replayed.records)

    def test_weak_interference_helps_concurrency(self):
        """§4.4: with −10 dB interference, concurrent schemes gain."""
        cfg = SimConfig(n_topologies=5)
        spec = ScenarioSpec("4x2", 4, 2, include_copa_plus=False)
        base = run_experiment(spec, cfg)
        weak = run_experiment(replace(spec, interference_offset_db=-10.0), cfg)
        assert weak.series_mbps("null").mean() > base.series_mbps("null").mean()


class TestTracePersistence:
    def test_roundtrip(self, channels_4x2, tmp_path):
        path = str(tmp_path / "trace.npz")
        save_trace(channels_4x2, path)
        loaded = load_trace(path)
        np.testing.assert_allclose(
            loaded.channel("AP1", "C1"), channels_4x2.channel("AP1", "C1")
        )
        assert loaded.noise_floor_mw == channels_4x2.noise_floor_mw
        assert loaded.topology.aps[0].n_antennas == 4
        assert loaded.topology.gain_db("AP1", "C1") == pytest.approx(
            channels_4x2.topology.gain_db("AP1", "C1")
        )

    def test_loaded_trace_is_usable(self, channels_4x2, tmp_path):
        from repro.core.strategy import StrategyEngine

        path = str(tmp_path / "trace.npz")
        save_trace(channels_4x2, path)
        outcome = StrategyEngine(load_trace(path), rng=np.random.default_rng(0)).run()
        assert outcome.copa.aggregate_bps > 0

    def test_directory_roundtrip(self, channels_4x2, channels_3x2, tmp_path):
        paths = save_traces([channels_4x2, channels_3x2], str(tmp_path / "traces"))
        assert len(paths) == 2
        loaded = load_traces(str(tmp_path / "traces"))
        assert len(loaded) == 2
        np.testing.assert_allclose(
            loaded[0].channel("AP1", "C1"), channels_4x2.channel("AP1", "C1")
        )

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_traces(str(tmp_path))
