"""Transmit-design construction: beamforming, nulling, SDA."""

import numpy as np
import pytest

from repro.core.precoding import (
    beamforming_design,
    cross_coupling,
    nulling_design,
    stream_gains,
)
from repro.core.strategy import StrategyEngine
from repro.util import is_unitary_columns

#: Absolute tolerance for "this beam is nulled" checks.  The null-space
#: projector comes from an SVD of unit-variance channels, so any residual
#: leakage is pure float64 rounding (~1e-15); 1e-10 leaves five orders of
#: magnitude of headroom while still catching a broken projector.
NULL_ATOL = 1e-10


def _channel(rng, n_sc=16, n_rx=2, n_tx=4):
    shape = (n_sc, n_rx, n_tx)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


class TestBeamformingDesign:
    def test_full_rank_by_default(self, rng):
        design = beamforming_design(_channel(rng), "AP1", "C1")
        assert design.n_streams == 2
        assert design.active_rx == (0, 1)

    def test_explicit_stream_count(self, rng):
        design = beamforming_design(_channel(rng), "AP1", "C1", n_streams=1)
        assert design.n_streams == 1

    def test_active_rx_restriction(self, rng):
        design = beamforming_design(_channel(rng), "AP1", "C1", active_rx=(1,))
        assert design.n_streams == 1
        assert design.active_rx == (1,)

    def test_unit_columns(self, rng):
        design = beamforming_design(_channel(rng), "AP1", "C1")
        for k in range(design.n_subcarriers):
            assert is_unitary_columns(design.precoder[k])


class TestNullingDesign:
    def test_nulls_victim(self, rng):
        own, cross = _channel(rng), _channel(rng)
        design = nulling_design(own, cross, "AP1", "C1")
        np.testing.assert_allclose(cross @ design.precoder, 0.0, atol=NULL_ATOL)

    def test_overconstrained_raises(self, rng):
        own = _channel(rng, n_tx=2)
        cross = _channel(rng, n_tx=2)
        with pytest.raises(ValueError, match="overconstrained"):
            nulling_design(own, cross, "AP1", "C1")

    def test_victim_antenna_restriction_restores_feasibility(self, rng):
        """§3.4: a 3-antenna AP can null one victim antenna, not two."""
        own = _channel(rng, n_tx=3)
        cross = _channel(rng, n_tx=3)
        with pytest.raises(ValueError):
            nulling_design(own, cross, "AP1", "C1", n_streams=2)
        design = nulling_design(
            own, cross, "AP1", "C1", victim_active_rx=(0,), n_streams=2
        )
        assert design.n_streams == 2
        leakage = cross[:, [0], :] @ design.precoder
        np.testing.assert_allclose(leakage, 0.0, atol=NULL_ATOL)

    def test_reduced_rank_3x2(self, rng):
        """3 TX antennas vs a 2-antenna victim: one nulled stream fits."""
        own = _channel(rng, n_tx=3)
        cross = _channel(rng, n_tx=3)
        design = nulling_design(own, cross, "AP1", "C1")
        assert design.n_streams == 1
        np.testing.assert_allclose(cross @ design.precoder, 0.0, atol=NULL_ATOL)


class TestSdaDesigns:
    """§3.4's shut-down-antenna designs, as the strategy engine builds them
    from a 3×2 topology's CSI (one row, AP1 leading)."""

    @staticmethod
    def _engine(channels_3x2):
        return StrategyEngine(channels_3x2, rng=np.random.default_rng(3)).batch

    def test_overconstrained_case_resolved(self, channels_3x2):
        """Both APs regain enough freedom after shutting one antenna."""
        leader, follower = self._engine(channels_3x2).sda_designs(leader=0)
        # Paper: leader sends 2 streams, follower 1 (reduced rank).
        assert leader.n_streams == 2
        assert follower.n_streams == 1
        assert follower.active_rx.shape == (1, 1)

    def test_follower_keeps_best_antenna(self, channels_3x2):
        engine = self._engine(channels_3x2)
        engine.csi[(1, 1)][:, :, 1, :] *= 10.0  # antenna 1 is clearly better
        _, follower = engine.sda_designs(leader=0)
        assert follower.active_rx.tolist() == [[1]]

    def test_leader_nulls_the_remaining_antenna(self, channels_3x2):
        engine = self._engine(channels_3x2)
        engine.csi[(1, 1)][:, :, 0, :] *= 5.0
        leader, follower = engine.sda_designs(leader=0)
        kept = int(follower.active_rx[0, 0])
        leakage = engine.csi[(0, 1)][0][:, [kept], :] @ leader.precoder
        np.testing.assert_allclose(leakage, 0.0, atol=NULL_ATOL)

    def test_follower_nulls_both_leader_antennas(self, channels_3x2):
        engine = self._engine(channels_3x2)
        _, follower = engine.sda_designs(leader=0)
        leakage = engine.csi[(1, 0)][0] @ follower.precoder
        np.testing.assert_allclose(leakage, 0.0, atol=NULL_ATOL)


class TestGainsAndCoupling:
    def test_stream_gains_shape_and_positivity(self, rng):
        h = _channel(rng)
        design = beamforming_design(h, "AP1", "C1")
        gains = stream_gains(h, design)
        assert gains.shape == (16, 2)
        assert np.all(gains > 0)

    def test_stream_gains_ordered_like_singular_values(self, rng):
        h = _channel(rng)
        design = beamforming_design(h, "AP1", "C1")
        gains = stream_gains(h, design)
        assert np.all(gains[:, 0] >= gains[:, 1] - 1e-12)

    def test_cross_coupling_zero_for_nulled_design(self, rng):
        own, cross = _channel(rng), _channel(rng)
        design = nulling_design(own, cross, "AP1", "C1")
        coupling = cross_coupling(cross, design)
        # Coupling is |leakage|^2, so the nulling tolerance squares.
        np.testing.assert_allclose(coupling, 0.0, atol=NULL_ATOL**2)

    def test_cross_coupling_positive_for_beamforming(self, rng):
        own, cross = _channel(rng), _channel(rng)
        design = beamforming_design(own, "AP1", "C1")
        assert np.all(cross_coupling(cross, design) > 0)
