"""Parameter sweeps: each point is one ``run_experiment`` on its spec and config."""

from dataclasses import replace

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, run_experiment
from repro.sim.sweep import (
    sweep_antenna_configurations,
    sweep_coherence_time,
    sweep_interference,
)


@pytest.fixture(scope="module")
def small_config():
    return SimConfig(n_topologies=4)


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec("4x2", 4, 2, include_copa_plus=False)


class TestCoherenceSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_config, small_spec):
        return sweep_coherence_time(
            (0.004, 0.030, 1.0), spec=small_spec, config=small_config
        )

    def test_point_count_and_order(self, sweep):
        xs, _ = sweep.series("copa")
        np.testing.assert_array_equal(xs, [0.004, 0.030, 1.0])

    def test_copa_improves_with_coherence(self, sweep):
        """Longer coherence → less ITS/CSI overhead → more COPA throughput."""
        _, copa = sweep.series("copa")
        assert copa[-1] > copa[0]

    def test_csma_unaffected(self, sweep):
        """CSMA's CTS-to-self cost is coherence-independent (Table 1)."""
        _, csma = sweep.series("csma")
        assert np.ptp(csma) / csma.mean() < 0.01

    def test_gains_computed(self, sweep):
        gains = sweep.gains("copa")
        assert gains.shape == (3,)

    def test_every_point_is_one_experiment(self, sweep, small_config, small_spec):
        for point in sweep.points:
            config = small_config.with_(coherence_s=point.parameter)
            assert point.means_mbps == run_experiment(small_spec, config).mean_table_mbps()


class TestInterferenceSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_config, small_spec):
        return sweep_interference((0.0, -10.0, -25.0), spec=small_spec, config=small_config)

    def test_nulling_improves_as_interference_weakens(self, sweep):
        _, null = sweep.series("null")
        assert null[-1] > null[0]

    def test_copa_gain_grows(self, sweep):
        gains = sweep.gains("copa")
        assert gains[-1] > gains[0]

    def test_every_point_is_one_experiment(self, sweep, small_config, small_spec):
        for point in sweep.points:
            spec = replace(small_spec, interference_offset_db=point.parameter)
            assert point.means_mbps == run_experiment(spec, small_config).mean_table_mbps()

    def test_offsets_are_absolute(self, sweep, small_config, small_spec):
        """The base spec's own offset is replaced, not added to."""
        weakened = replace(small_spec, interference_offset_db=-10.0)
        again = sweep_interference((0.0, -10.0), spec=weakened, config=small_config)
        assert [p.means_mbps for p in again.points] == [
            sweep.points[0].means_mbps,
            sweep.points[1].means_mbps,
        ]


class TestAntennaSweep:
    @pytest.fixture(scope="class")
    def sweep(self, small_config):
        return sweep_antenna_configurations(((1, 1), (4, 2)), config=small_config)

    def test_throughput_grows_with_antennas(self, sweep):
        _, copa = sweep.series("copa")
        assert copa[1] > copa[0] * 1.3

    def test_every_point_is_one_experiment(self, sweep, small_config):
        for point, (ap, client) in zip(sweep.points, ((1, 1), (4, 2))):
            spec = ScenarioSpec(f"{ap}x{client}", ap, client, include_copa_plus=False)
            assert point.means_mbps == run_experiment(spec, small_config).mean_table_mbps()

    def test_parameter_encoding(self, small_config):
        sweep = sweep_antenna_configurations(((3, 2),), config=small_config)
        assert sweep.points[0].parameter == pytest.approx(3.2)
