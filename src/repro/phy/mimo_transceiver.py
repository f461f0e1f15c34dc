"""Signal-level MIMO: precoded multi-stream frames and MMSE reception.

This is the paper's core experiment reproduced at the waveform level
(§4.1): each AP transmits multiple spatial streams through per-subcarrier
precoding matrices; a client with several antennas estimates the channel
from per-antenna orthogonal training symbols (802.11n's HT-LTF scheme),
runs a per-subcarrier MMSE filter over everything it hears — intended
streams plus a concurrent interferer — and soft-decodes each stream.

Synchronization between the two senders is assumed (COPA requires
concurrent transmissions aligned within the 800 ns cyclic prefix, §3.1;
the single-stream :mod:`repro.phy.transceiver` demonstrates Schmidl–Cox
acquisition).  The tests combine two transmissions exactly as the paper's
methodology does — scaled, AGC-reverted, summed in floating point — and
verify that nulling decides whether the victim's MMSE can cope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.collector import Collector, active
from ..util import hermitian
from .constants import Mcs, N_DATA_SUBCARRIERS, N_FFT
from .estimation import hadamard_cover, training_symbols
from .llr import llr_demodulate
from .ofdm import CP_SAMPLES, ofdm_demodulate, ofdm_modulate
from .qam import modulate
from .viterbi import encode, puncture, viterbi_decode_soft

__all__ = ["MimoFrame", "MimoTransceiver", "MimoReception"]

#: Half-width of the frequency window that smooths the sample covariance:
#: interference covariance varies slowly across subcarriers, so averaging
#: neighbours multiplies the effective sample count.
_SMOOTHING_WINDOW = 4


def _smoothed_covariance(sample_cov: np.ndarray, window: int) -> np.ndarray:
    """Sliding-window mean over subcarriers via one cumulative sum.

    Equivalent to averaging ``sample_cov[k - window : k + window + 1]``
    per subcarrier (clipped at the band edges) without the per-``k`` loop.
    """
    n_sc = sample_cov.shape[0]
    csum = np.empty((n_sc + 1,) + sample_cov.shape[1:], dtype=sample_cov.dtype)
    csum[0] = 0.0
    np.cumsum(sample_cov, axis=0, out=csum[1:])
    k = np.arange(n_sc)
    lo = np.maximum(0, k - window)
    hi = np.minimum(n_sc, k + window + 1)
    return (csum[hi] - csum[lo]) / (hi - lo)[:, None, None]


def _mmse_equalize(
    scaled: np.ndarray,
    rx_grids: np.ndarray,
    sample_cov: np.ndarray,
    noise_variance: float,
    window: int = _SMOOTHING_WINDOW,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched per-subcarrier MMSE: filter, equalize, post-MMSE SINR.

    Stacked-linear-algebra form of :func:`_reference_mmse_equalize` (the
    retained per-``k`` loop): one ``eigh``/``inv`` call over the whole
    (n_sc, n_rx, n_rx) stack, cumulative-sum covariance smoothing, and
    vectorized gain/SINR extraction.  ``scaled`` is the power-scaled
    effective channel (n_sc, n_rx, n_streams); ``rx_grids`` the received
    frequency grids (n_rx, n_symbols, n_sc); ``sample_cov`` the raw
    per-subcarrier sample covariance (n_sc, n_rx, n_rx).  Returns
    ``(estimates, sinr)`` shaped (n_streams, n_symbols, n_sc) and
    (n_sc, n_streams).
    """
    n_rx = rx_grids.shape[0]
    smoothed = _smoothed_covariance(sample_cov, window)
    a_h = hermitian(scaled)
    model_cov = scaled @ a_h + noise_variance * np.eye(n_rx)
    # Excess covariance = interference the model doesn't know about;
    # clip it to positive semidefinite to reject sampling noise.
    excess = smoothed - model_cov
    values, vectors = np.linalg.eigh(0.5 * (excess + hermitian(excess)))
    values = np.clip(values - 0.5 * noise_variance, 0.0, None)
    interference_cov = (vectors * values[:, None, :]) @ hermitian(vectors)
    inverse = np.linalg.inv(model_cov + interference_cov)
    w = a_h @ inverse  # (n_sc, n_streams, n_rx)
    z = w @ rx_grids.transpose(2, 0, 1)  # (n_sc, n_streams, n_symbols)
    gain = np.einsum("ksr,krs->ks", w, scaled).real
    ok = np.abs(gain) >= 1e-12
    safe = np.where(ok, gain, 1.0)
    estimates = np.where(ok[:, :, None], z / safe[:, :, None], 0.0)
    # Post-MMSE SINR: γ = q / (1 − q) with q = aᴴ R_tot⁻¹ a.
    clipped = np.minimum(safe, 1.0 - 1e-9)
    sinr = np.where(ok, np.maximum(clipped / (1.0 - clipped), 0.0), 0.0)
    return estimates.transpose(1, 2, 0), sinr


def _reference_mmse_equalize(
    scaled: np.ndarray,
    rx_grids: np.ndarray,
    sample_cov: np.ndarray,
    noise_variance: float,
    window: int = _SMOOTHING_WINDOW,
) -> Tuple[np.ndarray, np.ndarray]:
    """The original per-subcarrier MMSE loop, retained as the equivalence
    baseline for :func:`_mmse_equalize` (see
    ``tests/phy/test_phy_vectorization.py``)."""
    n_rx = rx_grids.shape[0]
    n_symbols = rx_grids.shape[1]
    n_sc, _, n_streams = scaled.shape

    smoothed = np.empty_like(sample_cov)
    for k in range(n_sc):
        lo, hi = max(0, k - window), min(n_sc, k + window + 1)
        smoothed[k] = sample_cov[lo:hi].mean(axis=0)

    sinr = np.zeros((n_sc, n_streams))
    estimates = np.zeros((n_streams, n_symbols, n_sc), dtype=complex)
    eye = np.eye(n_rx)
    for k in range(n_sc):
        a = scaled[k]  # (n_rx, n_streams)
        y = rx_grids[:, :, k]  # (n_rx, n_symbols)
        model_cov = a @ hermitian(a) + noise_variance * eye
        excess = smoothed[k] - model_cov
        values, vectors = np.linalg.eigh(0.5 * (excess + hermitian(excess)))
        values = np.clip(values - 0.5 * noise_variance, 0.0, None)
        interference_cov = (vectors * values) @ hermitian(vectors)
        covariance = model_cov + interference_cov
        inverse = np.linalg.inv(covariance)
        w = hermitian(a) @ inverse  # (n_streams, n_rx)
        z = w @ y  # (n_streams, n_symbols)
        for s in range(n_streams):
            gain = (w[s] @ a[:, s]).real
            if abs(gain) < 1e-12:
                continue
            estimates[s, :, k] = z[s] / gain
            gain = min(gain, 1.0 - 1e-9)
            sinr[k, s] = max(gain / (1.0 - gain), 0.0)
    return estimates, sinr


@dataclass
class MimoFrame:
    """Per-antenna waveforms of one precoded multi-stream transmission."""

    #: (n_tx, n_samples) complex sample streams, one per TX antenna.
    antenna_samples: np.ndarray
    #: Information bits per stream.
    stream_bits: List[np.ndarray]
    #: The precoder used, (n_sc, n_tx, n_streams).
    precoder: np.ndarray
    #: Samples occupied by the training field.
    preamble_samples: int
    n_ofdm_symbols: int
    mcs: Mcs

    @property
    def n_tx(self) -> int:
        return self.antenna_samples.shape[0]

    @property
    def n_streams(self) -> int:
        return self.precoder.shape[2]


@dataclass
class MimoReception:
    """Decoded streams plus diagnostics."""

    stream_bits: List[np.ndarray]
    #: Per-stream bit-error counts (when expected bits were provided).
    bit_errors: Optional[List[int]]
    #: LS estimate of the full channel, (n_sc, n_rx, n_tx).
    channel_estimate: np.ndarray
    #: Post-MMSE SINR estimate per (subcarrier, stream).
    post_mmse_sinr: np.ndarray

    @property
    def frame_ok(self) -> bool:
        return self.bit_errors is not None and all(e == 0 for e in self.bit_errors)


def _through_channel(antenna_samples: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Propagate per-antenna streams through a time-domain MIMO channel.

    ``taps``: (n_taps, n_rx, n_tx).  Returns (n_rx, n_samples).
    """
    n_taps, n_rx, n_tx = taps.shape
    n_samples = antenna_samples.shape[1]
    received = np.zeros((n_rx, n_samples), dtype=complex)
    for rx in range(n_rx):
        for tx in range(n_tx):
            received[rx] += np.convolve(antenna_samples[tx], taps[:, rx, tx])[:n_samples]
    return received


class MimoTransceiver:
    """Builds and decodes precoded multi-stream frames.

    The preamble sends ``n_ltf`` training symbols (one Hadamard cover
    column per TX antenna) so the receiver can estimate the *physical*
    channel H; the precoder is known to the receiver (in COPA it rides in
    the ITS ACK), so the effective channel is H @ W.
    """

    def __init__(
        self,
        mcs: Mcs,
        n_ofdm_symbols: int = 12,
        n_subcarriers: int = N_DATA_SUBCARRIERS,
        collector: Optional[Collector] = None,
    ):
        self.mcs = mcs
        self.n_ofdm_symbols = n_ofdm_symbols
        self.n_subcarriers = n_subcarriers
        #: Observability handle; when enabled, :meth:`receive` records
        #: ``phy.mmse.frame_us`` / ``phy.viterbi.decode_us`` histograms and
        #: per-stage spans.  ``None`` resolves to the shared no-op.
        self.collector = active(collector)

    # ------------------------------------------------------------------

    def _preamble(self, n_tx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-antenna training waveforms and the cover used."""
        cover = hadamard_cover(n_tx)  # (n_ltf, n_tx)
        pilots = training_symbols(self.n_subcarriers)
        n_ltf = cover.shape[0]
        symbol_len = N_FFT + CP_SAMPLES
        waves = np.zeros((n_tx, n_ltf * symbol_len), dtype=complex)
        for t in range(n_ltf):
            for antenna in range(n_tx):
                grid = (cover[t, antenna] * pilots)[None, :]
                waves[antenna, t * symbol_len : (t + 1) * symbol_len] = ofdm_modulate(grid)[0]
        return waves, cover

    def transmit(
        self,
        precoder: np.ndarray,
        powers: np.ndarray,
        rng: np.random.Generator,
    ) -> MimoFrame:
        """Encode independent random bits per stream and precode them.

        ``precoder``: (n_sc, n_tx, n_streams) unit-column matrices;
        ``powers``: (n_sc, n_streams) per-stream subcarrier powers (zero
        drops the subcarrier for that stream).
        """
        precoder = np.asarray(precoder, dtype=complex)
        powers = np.asarray(powers, dtype=float)
        n_sc, n_tx, n_streams = precoder.shape
        if powers.shape != (n_sc, n_streams):
            raise ValueError(f"powers shape {powers.shape} != {(n_sc, n_streams)}")
        if n_sc != self.n_subcarriers:
            raise ValueError("precoder subcarrier count mismatch")

        bits_per_symbol = self.mcs.modulation.bits_per_symbol
        num, den = self.mcs.code_rate
        stream_bits: List[np.ndarray] = []
        stream_grids = np.zeros((n_streams, self.n_ofdm_symbols, n_sc), dtype=complex)
        for s in range(n_streams):
            used = powers[:, s] > 0
            n_used = int(used.sum())
            coded_bits = n_used * bits_per_symbol * self.n_ofdm_symbols
            info_bits = coded_bits * num // den
            info = rng.integers(0, 2, info_bits).astype(np.int8)
            stream_bits.append(info)
            if info_bits == 0:
                continue
            coded = puncture(encode(info), self.mcs.code_rate)[:coded_bits]
            symbols = modulate(coded, self.mcs.modulation).reshape(self.n_ofdm_symbols, n_used)
            stream_grids[s][:, used] = symbols
            stream_grids[s] *= np.sqrt(powers[:, s])[None, :]

        # Per-antenna frequency grids: x_a[k] = Σ_s W[k, a, s] · x_s[k].
        preamble, _ = self._preamble(n_tx)
        antenna_waves = []
        for antenna in range(n_tx):
            grid = np.zeros((self.n_ofdm_symbols, n_sc), dtype=complex)
            for s in range(n_streams):
                grid += precoder[:, antenna, s][None, :] * stream_grids[s]
            data = ofdm_modulate(grid).ravel()
            antenna_waves.append(np.concatenate([preamble[antenna], data]))
        return MimoFrame(
            antenna_samples=np.asarray(antenna_waves),
            stream_bits=stream_bits,
            precoder=precoder,
            preamble_samples=preamble.shape[1],
            n_ofdm_symbols=self.n_ofdm_symbols,
            mcs=self.mcs,
        )

    # ------------------------------------------------------------------

    def propagate(self, frame: MimoFrame, taps: np.ndarray) -> np.ndarray:
        """Convenience: run a frame's antennas through a MIMO channel."""
        return _through_channel(frame.antenna_samples, taps)

    def receive(
        self,
        rx_samples: np.ndarray,
        frame: MimoFrame,
        powers: np.ndarray,
        noise_variance: float,
        expected: bool = True,
    ) -> MimoReception:
        """Estimate, MMSE-equalize and decode all streams.

        ``rx_samples``: (n_rx, n_samples) as produced by :meth:`propagate`
        (possibly plus an interferer and noise).  The receiver knows the
        frame format, the precoder and the power allocation (COPA signals
        them); it estimates the physical channel itself.
        """
        rx_samples = np.asarray(rx_samples)
        n_rx = rx_samples.shape[0]
        n_tx = frame.n_tx
        n_streams = frame.n_streams
        n_sc = self.n_subcarriers
        powers = np.asarray(powers, dtype=float)
        symbol_len = N_FFT + CP_SAMPLES

        # --- channel estimation from the Hadamard-covered LTFs ---
        cover = hadamard_cover(n_tx)
        n_ltf = cover.shape[0]
        pilots = training_symbols(n_sc)
        ltf_grids = np.stack(
            [
                ofdm_demodulate(rx_samples[r, : n_ltf * symbol_len].reshape(n_ltf, symbol_len))
                for r in range(n_rx)
            ]
        )  # (n_rx, n_ltf, n_sc)
        channel = np.zeros((n_sc, n_rx, n_tx), dtype=complex)
        descrambled = ltf_grids / pilots[None, None, :]
        for antenna in range(n_tx):
            projection = np.einsum("t,rtk->rk", cover[:, antenna], descrambled) / n_ltf
            channel[:, :, antenna] = projection.T

        # --- data demodulation ---
        data = rx_samples[:, frame.preamble_samples :]
        n_data_samples = frame.n_ofdm_symbols * symbol_len
        if data.shape[1] < n_data_samples:
            raise ValueError("truncated MIMO frame")
        rx_grids = np.stack(
            [
                ofdm_demodulate(data[r, :n_data_samples].reshape(frame.n_ofdm_symbols, symbol_len))
                for r in range(n_rx)
            ]
        )  # (n_rx, n_symbols, n_sc)

        # --- per-subcarrier MMSE over the effective channel ---
        # The total covariance is estimated *empirically* from the received
        # data symbols (plus the model floor as diagonal loading), so
        # unknown concurrent interference is suppressed to the extent the
        # receiver's antennas allow — exactly what a real MMSE front end
        # does, and what makes an unnulled 2-stream interferer fatal for a
        # 2-antenna client (§3.4).
        effective = channel @ frame.precoder  # (n_sc, n_rx, n_streams)
        scaled = effective * np.sqrt(powers)[:, None, :]
        n_symbols = frame.n_ofdm_symbols
        col = self.collector

        # Raw sample covariance per subcarrier; the equalizer smooths it
        # over a frequency window (the interference covariance varies
        # slowly across subcarriers, multiplying the effective sample
        # count) and runs the whole band as stacked linear algebra.
        sample_cov = np.einsum("rtk,stk->krs", rx_grids, np.conj(rx_grids)) / n_symbols
        started = time.perf_counter()
        with col.span("phy.mmse", subcarriers=n_sc, streams=n_streams):
            estimates, sinr = _mmse_equalize(scaled, rx_grids, sample_cov, noise_variance)
        col.observe("phy.mmse.frame_us", (time.perf_counter() - started) * 1e6)

        # --- per-stream soft decoding ---
        num, den = self.mcs.code_rate
        decoded: List[np.ndarray] = []
        errors: List[int] = []
        for s in range(n_streams):
            used = powers[:, s] > 0
            n_used = int(used.sum())
            if n_used == 0:
                decoded.append(np.zeros(0, dtype=np.int8))
                errors.append(0)
                continue
            symbols = estimates[s][:, used]
            # One noise variance per *subcarrier index* — never grouped by
            # float value, so nearly-equal variances cannot merge cells.
            noise_per_cell = 1.0 / np.maximum(sinr[used, s], 1e-9)
            flat = symbols.ravel()
            flat_noise = np.broadcast_to(noise_per_cell[None, :], symbols.shape).ravel()
            llrs = llr_demodulate(flat, self.mcs.modulation, flat_noise)
            n_info = llrs.size * num // den
            started = time.perf_counter()
            with col.span("phy.viterbi", stream=s, n_info_bits=n_info):
                out = viterbi_decode_soft(llrs, self.mcs.code_rate, n_info_bits=n_info)
            col.observe("phy.viterbi.decode_us", (time.perf_counter() - started) * 1e6)
            decoded.append(out)
            if expected:
                reference = frame.stream_bits[s]
                compare = min(out.size, reference.size)
                errors.append(int(np.sum(out[:compare] != reference[:compare])))

        return MimoReception(
            stream_bits=decoded,
            bit_errors=errors if expected else None,
            channel_estimate=channel,
            post_mmse_sinr=sinr,
        )
