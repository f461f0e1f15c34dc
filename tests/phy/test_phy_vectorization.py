"""Equivalence proofs for the vectorized PHY hot paths.

The batched MMSE equalizer and the table-driven Viterbi ACS kernel must
reproduce the retained ``_reference_*`` loop implementations: decoded
bits bit-for-bit, SINRs to ``rtol=1e-10``.  A fast kernel that drifts
from the reference is a bug, not an optimization.
"""

import numpy as np
import pytest

from repro.phy import mimo_transceiver as mt
from repro.phy import viterbi as vit
from repro.phy.constants import MCS_TABLE
from repro.phy.fading import TappedDelayLine, exponential_pdp
from repro.phy.llr import llr_demodulate
from repro.phy.mimo import svd_beamformer
from repro.phy.mimo_transceiver import MimoTransceiver
from repro.phy.ofdm import data_subcarrier_bins
from repro.phy.constants import N_FFT
from repro.phy.qam import awgn, demodulate_hard, modulate
from repro.util import db_to_linear

CODE_RATES = ((1, 2), (2, 3), (3, 4), (5, 6))

#: MCS indices covering every modulation and code rate in the table.
_MCS_SWEEP = (0, 2, 4, 5, 7)


# ----------------------------------------------------------------------
# Viterbi: table-driven ACS vs the per-step argsort reference
# ----------------------------------------------------------------------


class TestViterbiEquivalence:
    @pytest.mark.parametrize("seed", range(104))
    def test_decoded_bits_match_reference(self, seed):
        """Hard and soft decoders agree with the reference bit for bit."""
        rng = np.random.default_rng(seed)
        rate = CODE_RATES[seed % len(CODE_RATES)]
        n_info = int(rng.integers(24, 180))
        bits = rng.integers(0, 2, n_info).astype(np.int8)
        coded = vit.puncture(vit.encode(bits), rate)

        flips = rng.uniform(size=coded.size) < 0.03
        hard_rx = (coded ^ flips).astype(np.int8)
        assert np.array_equal(
            vit.viterbi_decode(hard_rx, rate, n_info_bits=n_info),
            vit._reference_viterbi_decode(hard_rx, rate, n_info_bits=n_info),
        )

        llrs = (1.0 - 2.0 * coded) + 0.8 * rng.standard_normal(coded.size)
        assert np.array_equal(
            vit.viterbi_decode_soft(llrs, rate, n_info_bits=n_info),
            vit._reference_viterbi_decode_soft(llrs, rate, n_info_bits=n_info),
        )

    def test_all_zero_llrs_tie_break_identically(self):
        """Every path metric ties; tie-breaking must mirror the reference."""
        llrs = np.zeros(256)
        assert np.array_equal(
            vit.viterbi_decode_soft(llrs), vit._reference_viterbi_decode_soft(llrs)
        )

    def test_all_erasures_tie_break_identically(self):
        received = np.full(256, vit.ERASURE, dtype=np.int8)
        assert np.array_equal(
            vit.viterbi_decode(received), vit._reference_viterbi_decode(received)
        )

    def test_empty_stream(self):
        assert vit.viterbi_decode(np.zeros(0, dtype=np.int8)).size == 0
        assert vit.viterbi_decode_soft(np.zeros(0)).size == 0

    def test_acs_tables_are_consistent_with_the_trellis(self):
        """Each state's two predecessors really do transition into it."""
        next_state, outputs = vit._trellis()
        prev, prev_out, state_bit = vit._acs_tables()
        for state in range(prev.shape[0]):
            bit = int(state_bit[state])
            for j in (0, 1):
                source = int(prev[state, j])
                assert next_state[source, bit] == state
                assert outputs[source, bit] == prev_out[state, j]

    def test_short_frames_where_states_stay_unreached(self):
        """Frames shorter than the constraint length keep sentinel states."""
        for n_pairs in range(1, 8):
            rng = np.random.default_rng(n_pairs)
            llrs = rng.standard_normal(2 * n_pairs)
            assert np.array_equal(
                vit.viterbi_decode_soft(llrs),
                vit._reference_viterbi_decode_soft(llrs),
            )
            hard = rng.integers(0, 2, 2 * n_pairs).astype(np.int8)
            assert np.array_equal(
                vit.viterbi_decode(hard), vit._reference_viterbi_decode(hard)
            )


def _demodulated_frame(mcs, snr_db, seed=2015, n_sc=52, n_symbols=12):
    """One full coded frame at ``mcs`` through the AWGN demapper.

    Returns (soft LLRs, hard bits, n_info): the decoder inputs of a real
    receive chain, with the multi-level LLR magnitudes of the QAM
    demapper and a frame as long as a 52-subcarrier, 12-symbol PPDU.
    """
    rng = np.random.default_rng(seed)
    num, den = mcs.code_rate
    coded_bits = n_sc * mcs.modulation.bits_per_symbol * n_symbols
    n_info = coded_bits * num // den
    info = rng.integers(0, 2, n_info).astype(np.int8)
    coded = vit.puncture(vit.encode(info), mcs.code_rate)[:coded_bits]
    snr = float(db_to_linear(snr_db))
    received = awgn(modulate(coded, mcs.modulation), snr, rng)
    llrs = llr_demodulate(received, mcs.modulation, 1.0 / snr)
    return llrs, demodulate_hard(received, mcs.modulation), n_info


class TestViterbiOnDemodulatedFrames:
    """Every MCS on full-length frames: at 5 dB the 16- and 64-QAM rates
    decode 22–53% of their bits in error, at 12 dB only the 64-QAM rates
    fail, at 25 dB every rate decodes error-free (seed 2015)."""

    @pytest.mark.parametrize("decoder", ["soft", "hard"])
    @pytest.mark.parametrize("snr_db", [5.0, 12.0, 25.0])
    @pytest.mark.parametrize("mcs", MCS_TABLE, ids=[f"mcs{m.index}" for m in MCS_TABLE])
    def test_decoded_bits_match_reference(self, mcs, snr_db, decoder):
        llrs, hard, n_info = _demodulated_frame(mcs, snr_db)
        if decoder == "soft":
            fast, reference, received = (
                vit.viterbi_decode_soft, vit._reference_viterbi_decode_soft, llrs,
            )
        else:
            fast, reference, received = (
                vit.viterbi_decode, vit._reference_viterbi_decode, hard,
            )
        decoded = fast(received, mcs.code_rate, n_info_bits=n_info)
        assert decoded.size == n_info
        assert np.array_equal(
            decoded, reference(received, mcs.code_rate, n_info_bits=n_info)
        )


# ----------------------------------------------------------------------
# MMSE: stacked linear algebra vs the per-subcarrier reference loop
# ----------------------------------------------------------------------


def _mmse_problem(seed, n_streams, n_rx=2, n_sc=52, n_symbols=8, snr_db=22.0, interferer=False):
    rng = np.random.default_rng(seed)
    shape = (n_sc, n_rx, n_streams)
    scaled = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    sym = (n_streams, n_symbols, n_sc)
    x = ((rng.integers(0, 2, sym) * 2 - 1) + 1j * (rng.integers(0, 2, sym) * 2 - 1)) / np.sqrt(2)
    y = np.einsum("krs,stk->rtk", scaled, x)
    if interferer:
        # Unknown rank-1 interference: exercises the eigh clipping path.
        g = (rng.standard_normal((n_sc, n_rx)) + 1j * rng.standard_normal((n_sc, n_rx))) / np.sqrt(2)
        u = ((rng.integers(0, 2, (n_symbols, n_sc)) * 2 - 1)) / np.sqrt(2)
        y = y + 0.5 * g.T[:, None, :] * u[None, :, :]
    noise_variance = float(np.mean(np.abs(y) ** 2) / 10 ** (snr_db / 10))
    y = y + np.sqrt(noise_variance / 2) * (
        rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    )
    sample_cov = np.einsum("rtk,stk->krs", y, np.conj(y)) / n_symbols
    return scaled, y, sample_cov, noise_variance


class TestMmseEquivalence:
    @pytest.mark.parametrize("seed", range(50))
    def test_kernel_matches_reference(self, seed):
        n_streams = 1 + seed % 2
        scaled, y, cov, nv = _mmse_problem(seed, n_streams, interferer=bool(seed % 3))
        est_vec, sinr_vec = mt._mmse_equalize(scaled, y, cov, nv)
        est_ref, sinr_ref = mt._reference_mmse_equalize(scaled, y, cov, nv)
        np.testing.assert_allclose(sinr_vec, sinr_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(est_vec, est_ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("interferer", [False, True], ids=["clean", "interfered"])
    @pytest.mark.parametrize(
        "n_rx, n_streams",
        [(n_rx, n_streams) for n_rx in range(1, 5) for n_streams in range(1, n_rx + 1)],
    )
    def test_every_antenna_configuration_matches_reference(
        self, n_rx, n_streams, interferer
    ):
        """1–4 receive antennas, every stream count, a 12-symbol frame."""
        scaled, y, cov, nv = _mmse_problem(
            100 * n_rx + n_streams, n_streams, n_rx=n_rx, n_symbols=12,
            interferer=interferer,
        )
        est_vec, sinr_vec = mt._mmse_equalize(scaled, y, cov, nv)
        est_ref, sinr_ref = mt._reference_mmse_equalize(scaled, y, cov, nv)
        assert sinr_vec.shape == (52, n_streams)
        np.testing.assert_allclose(sinr_vec, sinr_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(est_vec, est_ref, rtol=1e-8, atol=1e-10)

    def test_smoothed_covariance_matches_windowed_means(self):
        rng = np.random.default_rng(7)
        cov = rng.standard_normal((52, 2, 2)) + 1j * rng.standard_normal((52, 2, 2))
        smoothed = mt._smoothed_covariance(cov, window=4)
        for k in range(52):
            lo, hi = max(0, k - 4), min(52, k + 5)
            np.testing.assert_allclose(smoothed[k], cov[lo:hi].mean(axis=0), rtol=1e-12)

    def test_zero_gain_streams_stay_zero(self):
        """A dead stream (zero column) must leave estimates and SINR at 0."""
        scaled, y, cov, nv = _mmse_problem(3, 2)
        scaled[:, :, 1] = 0.0
        est_vec, sinr_vec = mt._mmse_equalize(scaled, y, cov, nv)
        est_ref, sinr_ref = mt._reference_mmse_equalize(scaled, y, cov, nv)
        assert np.all(sinr_vec[:, 1] == 0.0) and np.all(est_vec[1] == 0.0)
        np.testing.assert_allclose(sinr_vec, sinr_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(est_vec, est_ref, rtol=1e-8, atol=1e-10)


# ----------------------------------------------------------------------
# End to end: full receive() with the vectorized vs reference equalizer
# ----------------------------------------------------------------------


def _frame_roundtrip(trx, seed, n_streams):
    rng = np.random.default_rng(seed)
    pdp = exponential_pdp(60e-9, n_taps=10, tap_spacing_s=50e-9)
    taps = TappedDelayLine.sample(2, 4, pdp, rng).taps
    bins = data_subcarrier_bins(52)
    h = np.fft.fft(taps, N_FFT, axis=0)[bins]
    precoder = svd_beamformer(h, n_streams)
    powers = np.ones((52, n_streams))
    frame = trx.transmit(precoder, powers, rng)
    rx = trx.propagate(frame, taps)
    reference_power = float(np.mean(np.abs(rx) ** 2))
    noise_variance = reference_power / 10 ** (28.0 / 10)
    rx = rx + np.sqrt(noise_variance / 2) * (
        rng.standard_normal(rx.shape) + 1j * rng.standard_normal(rx.shape)
    )
    return frame, powers, rx, noise_variance


class TestReceiveEndToEnd:
    @pytest.mark.parametrize("seed", range(10))
    def test_decoded_bits_match_reference_equalizer(self, seed, monkeypatch):
        n_streams = 1 + seed % 2
        mcs = MCS_TABLE[_MCS_SWEEP[seed % len(_MCS_SWEEP)]]
        trx = MimoTransceiver(mcs=mcs, n_ofdm_symbols=6)
        frame, powers, rx, noise_variance = _frame_roundtrip(trx, seed, n_streams)

        vectorized = trx.receive(rx, frame, powers, noise_variance)
        monkeypatch.setattr(mt, "_mmse_equalize", mt._reference_mmse_equalize)
        monkeypatch.setattr(mt, "viterbi_decode_soft", vit._reference_viterbi_decode_soft)
        reference = trx.receive(rx, frame, powers, noise_variance)

        assert len(vectorized.stream_bits) == len(reference.stream_bits) == n_streams
        for got, want in zip(vectorized.stream_bits, reference.stream_bits):
            assert np.array_equal(got, want)
        assert vectorized.bit_errors == reference.bit_errors
        np.testing.assert_allclose(
            vectorized.post_mmse_sinr, reference.post_mmse_sinr, rtol=1e-10, atol=1e-12
        )

    def test_per_symbol_llr_path_matches_scalar_calls(self):
        """Array-noise demapping equals one scalar call per subcarrier."""
        rng = np.random.default_rng(11)
        for mcs_index in _MCS_SWEEP:
            modulation = MCS_TABLE[mcs_index].modulation
            symbols = rng.standard_normal(48) + 1j * rng.standard_normal(48)
            noise = rng.uniform(0.05, 2.0, 48)
            batched = llr_demodulate(symbols, modulation, noise)
            bits = modulation.bits_per_symbol
            for i in range(48):
                np.testing.assert_array_equal(
                    batched[i * bits : (i + 1) * bits],
                    llr_demodulate(symbols[i : i + 1], modulation, float(noise[i])),
                )

    def test_llr_rejects_bad_noise(self):
        modulation = MCS_TABLE[0].modulation
        with pytest.raises(ValueError):
            llr_demodulate(np.ones(4, dtype=complex), modulation, 0.0)
        with pytest.raises(ValueError):
            llr_demodulate(np.ones(4, dtype=complex), modulation, np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            llr_demodulate(np.ones(4, dtype=complex), modulation, np.ones(3))
