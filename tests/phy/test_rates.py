"""Rate selection: the single-decoder coupling COPA exploits."""

import numpy as np
import pytest

from repro.phy.constants import MCS_TABLE
from repro.phy.rates import best_rate, evaluate_mcs
from repro.util import db_to_linear


class TestEvaluateMcs:
    def test_perfect_channel_full_rate(self):
        sinr = np.full(52, db_to_linear(40.0))
        result = evaluate_mcs(sinr, MCS_TABLE[7])
        assert result.fer < 1e-6
        assert result.goodput_bps == pytest.approx(65e6, rel=0.01)

    def test_rate_scales_with_used_cells(self):
        sinr = np.full(52, db_to_linear(40.0))
        used = np.zeros(52, dtype=bool)
        used[:26] = True
        result = evaluate_mcs(sinr, MCS_TABLE[7], used=used)
        assert result.goodput_bps == pytest.approx(32.5e6, rel=0.01)
        assert result.n_used == 26

    def test_two_streams_double_rate(self):
        sinr = np.full((52, 2), db_to_linear(40.0))
        result = evaluate_mcs(sinr, MCS_TABLE[7])
        assert result.goodput_bps == pytest.approx(130e6, rel=0.01)

    def test_empty_mask_zero(self):
        sinr = np.full(52, db_to_linear(40.0))
        result = evaluate_mcs(sinr, MCS_TABLE[0], used=np.zeros(52, dtype=bool))
        assert result.goodput_bps == 0.0
        assert result.mcs is None

    def test_weak_subcarriers_poison_the_frame(self):
        """A few terrible subcarriers break decoding at high MCS (§2.2)."""
        sinr = np.full(52, db_to_linear(35.0))
        clean = evaluate_mcs(sinr, MCS_TABLE[7])
        sinr_bad = sinr.copy()
        sinr_bad[:4] = db_to_linear(-3.0)
        dirty = evaluate_mcs(sinr_bad, MCS_TABLE[7])
        assert clean.fer < 1e-6
        assert dirty.fer > 0.99

    def test_dropping_the_weak_subcarriers_rescues_it(self):
        sinr = np.full(52, db_to_linear(35.0))
        sinr[:4] = db_to_linear(-3.0)
        used = sinr > 1.0
        rescued = evaluate_mcs(sinr, MCS_TABLE[7], used=used)
        assert rescued.fer < 1e-6
        assert rescued.goodput_bps == pytest.approx(65e6 * 48 / 52, rel=0.01)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_mcs(np.ones(52), MCS_TABLE[0], used=np.ones(51, dtype=bool))

    def test_3d_sinr_rejected(self):
        with pytest.raises(ValueError):
            evaluate_mcs(np.ones((4, 2, 2)), MCS_TABLE[0])


class TestBestRate:
    def test_picks_highest_usable_mcs(self):
        sinr = np.full(52, db_to_linear(40.0))
        assert best_rate(sinr).mcs.index == 7

    def test_low_snr_picks_robust_mcs(self):
        sinr = np.full(52, db_to_linear(4.0))
        result = best_rate(sinr)
        assert result.mcs is not None
        assert result.mcs.index <= 1

    def test_hopeless_channel_zero(self):
        result = best_rate(np.full(52, 1e-6))
        assert result.goodput_bps == 0.0

    def test_monotone_in_snr(self):
        goodputs = [
            best_rate(np.full(52, db_to_linear(snr_db))).goodput_bps
            for snr_db in range(0, 42, 3)
        ]
        assert all(b >= a - 1e-6 for a, b in zip(goodputs, goodputs[1:]))

    def test_never_exceeds_nominal_rate(self, rng):
        sinr = db_to_linear(rng.uniform(0, 45, size=(52, 2)))
        result = best_rate(sinr)
        assert result.goodput_bps <= 2 * 65e6 + 1

    def test_restricted_table(self):
        sinr = np.full(52, db_to_linear(40.0))
        result = best_rate(sinr, mcs_table=MCS_TABLE[:3])
        assert result.mcs.index == 2
