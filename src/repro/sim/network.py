"""Per-topology PHY measurements: the quantities behind Figures 2, 3 and 4.

These functions reproduce the paper's motivating measurements on our
simulated substrate: what nulling does to interference (INR), to the
signal of interest ("collateral damage", SNR) and to the end-to-end SINR,
both averaged and per subcarrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..phy.channel import ChannelSet
from ..phy.constants import TX_POWER_DBM
from ..phy.mimo import (
    effective_channel,
    interference_covariance,
    mmse_sinr,
    nulling_precoder,
    svd_beamformer,
    tx_noise_covariance,
)
from ..phy.noise import ImperfectionModel
from ..util import dbm_to_mw, linear_to_db

__all__ = [
    "NullingEffect",
    "measure_nulling_effect",
    "per_subcarrier_rx_power_dbm",
    "BerComparison",
    "copa_vs_nopa_example",
]


@dataclass(frozen=True)
class NullingEffect:
    """Per-subcarrier nulling measurements at one client (Figs. 3 & 4).

    All arrays are length n_subcarriers, in dB.  "BF" is the baseline in
    which the AP beamforms freely toward its client; "null" is the same AP
    constrained to null toward the other client.
    """

    snr_bf_db: np.ndarray
    snr_null_db: np.ndarray
    inr_bf_db: np.ndarray
    inr_null_db: np.ndarray
    sinr_bf_db: np.ndarray
    sinr_null_db: np.ndarray

    @property
    def inr_reduction_db(self) -> float:
        """Mean drop in interference-to-noise ratio from nulling (≈27 dB)."""
        return float(np.mean(self.inr_bf_db) - np.mean(self.inr_null_db))

    @property
    def snr_reduction_db(self) -> float:
        """Mean collateral damage to the signal of interest (≈8 dB)."""
        return float(np.mean(self.snr_bf_db) - np.mean(self.snr_null_db))

    @property
    def sinr_increase_db(self) -> float:
        """Mean end-to-end SINR improvement from nulling (≈18 dB)."""
        return float(np.mean(self.sinr_null_db) - np.mean(self.sinr_bf_db))

    @property
    def snr_null_std_db(self) -> float:
        """Across-subcarrier variability nulling introduces (Fig. 4)."""
        return float(np.std(self.snr_null_db))

    @property
    def snr_bf_std_db(self) -> float:
        return float(np.std(self.snr_bf_db))


def measure_nulling_effect(
    channels: ChannelSet,
    imperfections: Optional[ImperfectionModel] = None,
    rng: Optional[np.random.Generator] = None,
    client_index: int = 0,
    n_streams: Optional[int] = None,
    tx_power_dbm: float = TX_POWER_DBM,
) -> NullingEffect:
    """Measure what nulling does at one client of a topology.

    Both APs transmit at full power, split equally across streams and
    subcarriers.  Precoders are computed from *noisy* CSI and evaluated on
    the true channels, which is where the residual interference of §2.2
    comes from.
    """
    imperfections = imperfections if imperfections is not None else ImperfectionModel()
    rng = rng if rng is not None else np.random.default_rng(0)

    topology = channels.topology
    own_ap = topology.aps[client_index].name
    other_ap = topology.aps[1 - client_index].name
    client = topology.clients[client_index].name
    other_client = topology.clients[1 - client_index].name

    h_own = channels.channel(own_ap, client)
    h_cross = channels.channel(other_ap, client)
    n_sc, n_rx, n_tx = h_own.shape
    if n_streams is None:
        n_streams = min(n_rx, n_tx)

    csi_own = channels.measured_csi(own_ap, client, imperfections, rng)
    csi_own_cross = channels.measured_csi(own_ap, other_client, imperfections, rng)
    csi_other_own = channels.measured_csi(other_ap, other_client, imperfections, rng)
    csi_other_cross = channels.measured_csi(other_ap, client, imperfections, rng)

    power_mw = float(dbm_to_mw(tx_power_dbm))
    powers = np.full((n_sc, n_streams), power_mw / (n_streams * n_sc))

    w_own_bf = svd_beamformer(csi_own, n_streams)
    w_own_null = nulling_precoder(csi_own, csi_own_cross, n_streams)
    w_other_bf = svd_beamformer(csi_other_own, n_streams)
    w_other_null = nulling_precoder(csi_other_own, csi_other_cross, n_streams)

    noise = channels.noise_floor_mw
    eye = np.broadcast_to(np.eye(n_rx, dtype=complex), (n_sc, n_rx, n_rx)).copy()

    def rx_interference(precoder_other):
        eff = effective_channel(h_cross, precoder_other)
        return np.einsum("ksn,kn->k", np.abs(eff) ** 2, powers) / n_rx

    def snr(precoder_own):
        eff = effective_channel(h_own, precoder_own)
        cov = noise * eye + tx_noise_covariance(
            h_own, powers.sum(axis=1), imperfections.tx_evm_linear
        )
        return mmse_sinr(eff, powers, cov).mean(axis=1)

    def sinr(precoder_own, precoder_other):
        eff = effective_channel(h_own, precoder_own)
        eff_cross = effective_channel(h_cross, precoder_other)
        cov = noise * eye
        cov += interference_covariance(eff_cross, powers)
        cov += tx_noise_covariance(h_cross, powers.sum(axis=1), imperfections.tx_evm_linear)
        cov += tx_noise_covariance(h_own, powers.sum(axis=1), imperfections.tx_evm_linear)
        return mmse_sinr(eff, powers, cov).mean(axis=1)

    per_antenna_noise = noise
    return NullingEffect(
        snr_bf_db=linear_to_db(snr(w_own_bf)),
        snr_null_db=linear_to_db(snr(w_own_null)),
        inr_bf_db=linear_to_db(rx_interference(w_other_bf) / per_antenna_noise),
        inr_null_db=linear_to_db(rx_interference(w_other_null) / per_antenna_noise),
        sinr_bf_db=linear_to_db(sinr(w_own_bf, w_other_bf)),
        sinr_null_db=linear_to_db(sinr(w_own_null, w_other_null)),
    )


def per_subcarrier_rx_power_dbm(
    channels: ChannelSet,
    tx: str,
    rx: str,
    tx_antenna: int = 0,
    tx_power_dbm: float = TX_POWER_DBM,
) -> np.ndarray:
    """Figure 2's quantity: received power per subcarrier per RX antenna.

    One transmit antenna sends with the power budget split equally across
    subcarriers; returns shape (n_rx_antennas, n_subcarriers) in dBm.
    """
    h = channels.channel(tx, rx)
    n_sc = h.shape[0]
    per_subcarrier_mw = dbm_to_mw(tx_power_dbm) / n_sc
    rx_power = per_subcarrier_mw * np.abs(h[:, :, tx_antenna]) ** 2
    return linear_to_db(rx_power.T)


@dataclass(frozen=True)
class BerComparison:
    """Figure 7's data: per-subcarrier uncoded BER, COPA vs no-PA.

    Both transmissions use the *same* nulling precoding matrix; the only
    difference is the power allocation.  ``copa_ber`` is NaN on subcarriers
    COPA drops.  Rates are the goodput-maximizing selections of each.
    """

    nopa_ber: np.ndarray
    copa_ber: np.ndarray
    copa_dropped: np.ndarray
    nopa_rate_bps: float
    copa_rate_bps: float
    nopa_mcs_index: int
    copa_mcs_index: int


def copa_vs_nopa_example(
    channels: ChannelSet,
    imperfections: Optional[ImperfectionModel] = None,
    rng: Optional[np.random.Generator] = None,
    client_index: int = 0,
) -> BerComparison:
    """Reproduce the §3.2.2 example: same nulling precoder, two allocations.

    Measures CSI like the strategy engine, takes its concurrent-nulling
    designs, and evaluates the true per-subcarrier SINR under (a) equal
    power ("NoPA") and (b) COPA's Equi-SINR allocation, converting both to
    uncoded BER at each scheme's own best bitrate.
    """
    from ..core.equi_sinr import radiated_powers
    from ..core.strategy import StrategyEngine
    from ..phy.ber import uncoded_ber
    from ..phy.rates import best_rate

    imperfections = imperfections if imperfections is not None else ImperfectionModel()
    rng = rng if rng is not None else np.random.default_rng(0)
    engine = StrategyEngine(channels, imperfections=imperfections, rng=rng).batch

    designs = engine.nulling_designs()
    equal = [engine.equal_allocation(d).row(0) for d in designs]
    copa = [a.row(0) for a in engine.concurrent_allocation(designs)]
    aps, clients = channels.topology.aps, channels.topology.clients

    def sinr_of(allocations):
        design = designs[client_index]
        alloc = allocations[client_index]
        client = clients[design.client].name
        h_own = channels.channel(aps[design.ap].name, client)
        other = designs[1 - client_index]
        other_alloc = allocations[1 - client_index]
        other_radiated = radiated_powers(
            other_alloc.powers, other_alloc.used, imperfections.carrier_leakage_linear
        )
        own_radiated = radiated_powers(
            alloc.powers, alloc.used, imperfections.carrier_leakage_linear
        )
        h_cross = channels.channel(aps[other.ap].name, client)
        n_sc, n_rx = h_own.shape[:2]
        cov = channels.noise_floor_mw * np.broadcast_to(
            np.eye(n_rx, dtype=complex), (n_sc, n_rx, n_rx)
        ).copy()
        cov += interference_covariance(h_cross @ other.precoder, other_radiated)
        cov += tx_noise_covariance(
            h_cross, other_radiated.sum(axis=1), imperfections.tx_evm_linear
        )
        cov += tx_noise_covariance(
            h_own, own_radiated.sum(axis=1), imperfections.tx_evm_linear
        )
        data_powers = np.where(alloc.used, alloc.powers, 0.0)
        return mmse_sinr(h_own @ design.precoder, data_powers, cov), alloc.used

    nopa_sinr, nopa_used = sinr_of(equal)
    copa_sinr, copa_used = sinr_of(copa)

    nopa_rate = best_rate(nopa_sinr, used=nopa_used)
    copa_rate = best_rate(copa_sinr, used=copa_used)

    # A transmission can be entirely undecodable (mcs None) — the paper's
    # point taken to its extreme; display its BER at the most robust MCS.
    from ..phy.constants import MCS_TABLE

    nopa_modulation = (nopa_rate.mcs or MCS_TABLE[0]).modulation
    copa_modulation = (copa_rate.mcs or MCS_TABLE[0]).modulation

    # Per-subcarrier BER (averaged over streams) at each scheme's own MCS.
    nopa_ber = uncoded_ber(nopa_sinr, nopa_modulation).mean(axis=1)
    copa_cell_ber = uncoded_ber(copa_sinr, copa_modulation)
    used_counts = copa_used.sum(axis=1)
    copa_sum = np.where(copa_used, copa_cell_ber, 0.0).sum(axis=1)
    copa_ber = np.where(used_counts > 0, copa_sum / np.maximum(used_counts, 1), np.nan)
    dropped = ~copa_used.any(axis=1)

    return BerComparison(
        nopa_ber=nopa_ber,
        copa_ber=copa_ber,
        copa_dropped=dropped,
        nopa_rate_bps=nopa_rate.goodput_bps,
        copa_rate_bps=copa_rate.goodput_bps,
        nopa_mcs_index=nopa_rate.mcs.index if nopa_rate.mcs else -1,
        copa_mcs_index=copa_rate.mcs.index if copa_rate.mcs else -1,
    )
