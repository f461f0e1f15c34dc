"""Property-based tests (hypothesis) on the core data structures.

Each property is an invariant the system's correctness rests on: power
budgets are conserved, codecs roundtrip, bounds are monotone, CDFs are
well-formed — checked over generated inputs rather than hand-picked ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.equi_snr import allocate, equalizing_powers
from repro.core.mercury import mercury_waterfilling
from repro.mac.compression import adm_decode, adm_encode, lzw_compress, lzw_decompress
from repro.phy.ber import uncoded_ber
from repro.phy.coding import coded_ber, frame_error_rate
from repro.phy.constants import MODULATIONS, QAM16
from repro.phy.qam import demodulate_hard, modulate
from repro.phy.viterbi import encode, puncture, viterbi_decode
from repro.sim.metrics import cdf

# Gains in dB, spanning unusable to excellent subcarriers.
gains_db = st.lists(
    st.floats(min_value=-30.0, max_value=45.0, allow_nan=False),
    min_size=4,
    max_size=52,
)

# Channel BERs: log-uniform over the union bound's working range, plus
# uniform draws that also cover p ≤ 0 and the saturated region.
channel_bers = st.one_of(
    st.floats(min_value=-12.0, max_value=np.log10(0.5)).map(lambda e: 10.0**e),
    st.floats(min_value=-0.1, max_value=0.6),
)
CODE_RATES = [(1, 2), (2, 3), (3, 4), (5, 6)]


class TestAllocationInvariants:
    @given(gains_db, st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_allocate_conserves_budget_or_uses_nothing(self, db, power):
        gains = 10.0 ** (np.asarray(db) / 10.0)
        result = allocate(gains, power)
        total = result.powers.sum()
        assert total == pytest.approx(power, rel=1e-6) or total == 0.0

    @given(gains_db, st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_allocate_never_powers_dropped_subcarriers(self, db, power):
        gains = 10.0 ** (np.asarray(db) / 10.0)
        result = allocate(gains, power)
        assert np.all(result.powers[~result.used] == 0.0)
        assert np.all(result.powers >= 0.0)

    @given(gains_db)
    @settings(max_examples=60, deadline=None)
    def test_allocate_equalizes_used_subcarriers(self, db):
        gains = 10.0 ** (np.asarray(db) / 10.0)
        result = allocate(gains, 1.0)
        if result.used.any():
            received = result.powers[result.used] * gains[result.used]
            np.testing.assert_allclose(received, result.equalized_snr, rtol=1e-6)

    @given(gains_db, st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_equalizing_powers_exact_budget(self, db, power):
        gains = np.maximum(10.0 ** (np.asarray(db) / 10.0), 1e-9)
        used = np.ones(gains.size, dtype=bool)
        powers, _ = equalizing_powers(gains, used, power)
        assert powers.sum() == pytest.approx(power, rel=1e-9)

    @given(gains_db, st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_mercury_budget_and_nonnegativity(self, db, power):
        gains = 10.0 ** (np.asarray(db) / 10.0)
        powers = mercury_waterfilling(gains, power, QAM16)
        assert np.all(powers >= 0)
        assert powers.sum() == pytest.approx(power, rel=1e-4)


class TestCodecRoundtrips:
    @given(st.binary(max_size=2000))
    @settings(max_examples=80, deadline=None)
    def test_lzw_roundtrip(self, data):
        assert lzw_decompress(lzw_compress(data)) == data

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_adm_reconstruction_bounded(self, values):
        sequence = np.asarray(values)
        params, codes = adm_encode(sequence)
        reconstructed = adm_decode(params, codes)
        assert reconstructed.shape == sequence.shape
        # The first sample is sent (nearly) verbatim.
        assert abs(reconstructed[0] - sequence[0]) <= max(abs(sequence[0]) * 1e-2, 0.1)

    @given(st.integers(min_value=0, max_value=2**40), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_qam_label_roundtrip(self, seed, mod_index):
        modulation = MODULATIONS[mod_index]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 8 * modulation.bits_per_symbol)
        recovered = demodulate_hard(modulate(bits, modulation), modulation)
        np.testing.assert_array_equal(bits, recovered)

    @given(st.integers(min_value=0, max_value=2**40), st.sampled_from([(1, 2), (2, 3), (3, 4), (5, 6)]))
    @settings(max_examples=25, deadline=None)
    def test_viterbi_noiseless_roundtrip(self, seed, code_rate):
        rng = np.random.default_rng(seed)
        num, _ = code_rate
        n = 60 - (60 % num)
        bits = rng.integers(0, 2, n).astype(np.int8)
        received = puncture(encode(bits), code_rate)
        decoded = viterbi_decode(received, code_rate, n_info_bits=n)
        np.testing.assert_array_equal(decoded, bits)


class TestLinkModelBounds:
    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_ber_in_unit_interval(self, snr, mod_index):
        ber = float(uncoded_ber(snr, MODULATIONS[mod_index]))
        assert 0.0 <= ber <= 0.5

    @given(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.sampled_from([(1, 2), (2, 3), (3, 4), (5, 6)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_coded_ber_bounded(self, p, code_rate):
        out = float(coded_ber(p, code_rate))
        assert 0.0 <= out <= 0.5

    # Rounding in the union-bound sum can put the outputs of floats a few
    # ulps apart out of order by up to 2 ulps, hence the 1e-12 headroom.
    @given(channel_bers, channel_bers, st.sampled_from(CODE_RATES))
    @settings(max_examples=200, deadline=None)
    def test_coded_ber_non_decreasing_in_p(self, a, b, code_rate):
        low, high = sorted((a, b))
        assert coded_ber(low, code_rate) <= coded_ber(high, code_rate) * (1.0 + 1e-12)

    @given(channel_bers)
    @settings(max_examples=200, deadline=None)
    def test_lower_code_rate_never_decodes_worse(self, p):
        bers = [float(coded_ber(p, code_rate)) for code_rate in CODE_RATES]
        for stronger, weaker in zip(bers, bers[1:]):
            assert stronger <= weaker * (1.0 + 1e-12)

    @given(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.integers(min_value=1, max_value=100_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_fer_is_probability(self, ber, n_bits):
        fer = float(frame_error_rate(ber, n_bits))
        assert 0.0 <= fer <= 1.0

    @given(
        st.floats(min_value=1e-6, max_value=0.4, allow_nan=False),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fer_monotone_in_length(self, ber, n_bits):
        assert frame_error_rate(ber, n_bits + 1) >= frame_error_rate(ber, n_bits)


class TestMetricsProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_cdf_well_formed(self, values):
        xs, ps = cdf(values)
        assert xs.size == len(values)
        assert np.all(np.diff(xs) >= 0)
        assert np.all((ps > 0) & (ps <= 1.0))
        assert ps[-1] == pytest.approx(1.0)


class TestPrecodingInvariants:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=3, max_value=6),  # n_tx
        st.integers(min_value=1, max_value=2),  # n_victim
    )
    @settings(max_examples=40, deadline=None)
    def test_nulling_precoder_always_nulls(self, seed, n_tx, n_victim):
        """For every feasible geometry the nulled leakage is numerically zero
        and the precoder columns stay orthonormal."""
        from repro.phy.mimo import max_nulled_streams, nulling_precoder
        from repro.util import is_unitary_columns

        n_rx = 2
        n_streams = max_nulled_streams(n_tx, n_rx, n_victim)
        if n_streams < 1:
            return
        rng = np.random.default_rng(seed)
        shape_own = (4, n_rx, n_tx)
        shape_victim = (4, n_victim, n_tx)
        own = rng.standard_normal(shape_own) + 1j * rng.standard_normal(shape_own)
        victim = rng.standard_normal(shape_victim) + 1j * rng.standard_normal(shape_victim)
        w = nulling_precoder(own, victim, n_streams)
        assert np.max(np.abs(victim @ w)) < 1e-9
        for k in range(4):
            assert is_unitary_columns(w[k])

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=30, deadline=None)
    def test_beamformer_never_below_nulled_gain(self, seed):
        """Free beamforming always delivers at least as much power as the
        nulling-constrained precoder (collateral damage is non-negative)."""
        from repro.phy.mimo import nulling_precoder, svd_beamformer

        rng = np.random.default_rng(seed)
        own = rng.standard_normal((4, 2, 4)) + 1j * rng.standard_normal((4, 2, 4))
        victim = rng.standard_normal((4, 2, 4)) + 1j * rng.standard_normal((4, 2, 4))
        bf_gain = np.sum(np.abs(own @ svd_beamformer(own, 2)) ** 2)
        null_gain = np.sum(np.abs(own @ nulling_precoder(own, victim, 2)) ** 2)
        assert bf_gain >= null_gain - 1e-9


class TestEstimationInvariants:
    @given(
        st.integers(min_value=0, max_value=2**32),
        st.floats(min_value=1e-4, max_value=1e-1),
    )
    @settings(max_examples=25, deadline=None)
    def test_ls_error_scales_with_noise(self, seed, noise_power):
        """Realized LS estimation error stays within a small factor of the
        analytic prediction across noise levels."""
        from repro.phy.estimation import estimate_mimo_channel, estimation_error_power

        rng = np.random.default_rng(seed)
        h = (rng.standard_normal((16, 2, 2)) + 1j * rng.standard_normal((16, 2, 2))) / np.sqrt(2)
        result = estimate_mimo_channel(h, pilot_power=1.0, noise_power=noise_power, rng=rng)
        predicted = estimation_error_power(1.0, noise_power, n_tx=2)
        assert result.error_power == pytest.approx(predicted, rel=0.6)


class TestCompressionInvariants:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=2, max_value=52))
    @settings(max_examples=30, deadline=None)
    def test_csi_codec_roundtrip_any_size(self, seed, n_sc):
        """The codec reconstructs channels of any band size and shape."""
        from repro.mac.compression import compress_csi, decompress_csi

        rng = np.random.default_rng(seed)
        # Smooth channel-like data: cumulative small steps.
        steps = 0.1 * (rng.standard_normal((n_sc, 1, 2)) + 1j * rng.standard_normal((n_sc, 1, 2)))
        channel = np.cumsum(steps, axis=0) + (1.0 + 0.5j)
        reconstructed = decompress_csi(compress_csi(channel))
        assert reconstructed.shape == channel.shape
        scale = np.mean(np.abs(channel))
        assert np.mean(np.abs(reconstructed - channel)) < 0.5 * scale
