"""Per-topology transmit designs for COPA's strategies (§3.3).

Builds, from (noisy) CSI, one AP's transmit design:

* **beamforming** — SVD precoding toward the own client, used by CSMA,
  COPA-SEQ, and the non-nulled concurrent strategy;
* **nulling** — nullspace projection toward the other AP's client combined
  with SVD beamforming inside the nullspace;

plus the per-unit-power signal gains and interference coupling the power
allocators consume.  The strategy engine builds its designs batched
(:mod:`repro.core.batch`, which also holds §3.4's shut-down-antenna
designs); these one-topology forms are the reference the differential
oracle harness (:mod:`repro.core.differential`) builds its problems from.

A design records which client receive antennas are active so the SINR
evaluation and the MMSE receiver use the same reduced channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..phy.mimo import max_nulled_streams, nulling_precoder, svd_beamformer

__all__ = [
    "TransmissionDesign",
    "beamforming_design",
    "nulling_design",
    "stream_gains",
    "cross_coupling",
]


@dataclass
class TransmissionDesign:
    """One AP's transmit design: precoder plus active client antennas."""

    ap: str
    client: str
    #: Unit-column precoder, shape (n_sc, n_tx, n_streams).
    precoder: np.ndarray
    #: Indices of the client's receive antennas that stay powered on.
    active_rx: Tuple[int, ...]

    @property
    def n_streams(self) -> int:
        return self.precoder.shape[2]

    @property
    def n_subcarriers(self) -> int:
        return self.precoder.shape[0]


def _active(channel: np.ndarray, active_rx: Optional[Tuple[int, ...]]) -> np.ndarray:
    """Restrict a channel's receive antennas to the active subset."""
    if active_rx is None:
        return channel
    return channel[:, list(active_rx), :]


def beamforming_design(
    csi_own: np.ndarray,
    ap: str,
    client: str,
    n_streams: Optional[int] = None,
    active_rx: Optional[Tuple[int, ...]] = None,
) -> TransmissionDesign:
    """SVD transmit beamforming toward the own client."""
    channel = _active(csi_own, active_rx)
    n_sc, n_rx, n_tx = channel.shape
    if n_streams is None:
        n_streams = min(n_rx, n_tx)
    precoder = svd_beamformer(channel, n_streams)
    if active_rx is None:
        active_rx = tuple(range(n_rx))
    return TransmissionDesign(ap=ap, client=client, precoder=precoder, active_rx=active_rx)


def nulling_design(
    csi_own: np.ndarray,
    csi_cross: np.ndarray,
    ap: str,
    client: str,
    n_streams: Optional[int] = None,
    active_rx: Optional[Tuple[int, ...]] = None,
    victim_active_rx: Optional[Tuple[int, ...]] = None,
) -> TransmissionDesign:
    """Null toward the victim's active antennas, beamform to the own client.

    Raises ``ValueError`` when the problem is overconstrained (the
    nullspace is empty) — callers then fall back to shut-down-antenna
    designs or to a non-nulled strategy, mirroring Figure 8's strategy
    menu.
    """
    own = _active(csi_own, active_rx)
    victim = _active(csi_cross, victim_active_rx)
    n_sc, n_rx, n_tx = own.shape
    n_victim = victim.shape[1]
    limit = max_nulled_streams(n_tx, n_rx, n_victim)
    if limit < 1:
        raise ValueError(
            f"overconstrained: {n_tx} TX antennas cannot null {n_victim} antennas "
            f"and still send a stream"
        )
    if n_streams is None:
        n_streams = limit
    if n_streams > limit:
        raise ValueError(f"at most {limit} nulled streams possible, requested {n_streams}")
    precoder = nulling_precoder(own, victim, n_streams)
    if active_rx is None:
        active_rx = tuple(range(n_rx))
    return TransmissionDesign(ap=ap, client=client, precoder=precoder, active_rx=active_rx)


def stream_gains(true_or_csi_channel: np.ndarray, design: TransmissionDesign) -> np.ndarray:
    """Per-(subcarrier, stream) signal gain at the design's client.

    The matched-filter gain ``||H_k w_s||^2``: multiplying by the stream's
    transmit power gives the received signal power.  Used by the power
    allocators as their predictive model (SVD streams are orthogonal at the
    own receiver, so cross-stream terms vanish under the design CSI).
    """
    channel = _active(true_or_csi_channel, design.active_rx)
    effective = channel @ design.precoder
    return np.sum(np.abs(effective) ** 2, axis=1)


def cross_coupling(victim_channel: np.ndarray, design: TransmissionDesign, victim_active_rx: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """Per-(subcarrier, stream) interference gain at a victim receiver.

    Mean received interference power per active victim antenna, per unit
    transmit power on the stream — the quantity the Equi-SINR iteration
    feeds back between streams (Fig. 6's "calculate inter-stream
    interference").
    """
    channel = _active(victim_channel, victim_active_rx)
    effective = channel @ design.precoder
    n_rx = effective.shape[1]
    return np.sum(np.abs(effective) ** 2, axis=1) / n_rx
