"""Algorithm 1: Equi-SNR power allocation with subcarrier selection.

For one stream without concurrent interference, COPA sorts subcarriers by
SNR, considers dropping the worst ``i`` of them for every ``i``, equalizes
the received SNR across the survivors (total power is fixed, so the
equalized SNR rises as more weak subcarriers are abandoned), predicts the
best achievable 802.11 modulation/throughput for each ``i`` and keeps the
count that maximizes throughput.

The same routine implements Equi-**SINR** (§3.2.1): passing effective gains
``g_k = a_k / (I_k + σ²)`` — signal gain over interference-plus-noise —
equalizes SINR instead of SNR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..phy.coding import coded_ber, frame_error_rate
from ..phy.ber import uncoded_ber
from ..phy.constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, N_DATA_SUBCARRIERS, Mcs
from ..util import masked_row_apply

__all__ = [
    "MIN_GAIN",
    "Allocation",
    "BatchAllocation",
    "equalizing_powers",
    "equalizing_powers_batch",
    "uniform_goodput",
    "allocate",
    "allocate_batch",
    "allocate_power_only",
    "allocate_selection_only",
]

#: Gains below this (per mW) are treated as unusable outright.  Public
#: because the usability cutoff is part of the allocator's contract: the
#: optimization oracle (:mod:`repro.core.oracle`) must agree on which
#: subcarriers are candidates at all before comparing allocations.
MIN_GAIN = 1e-12
_MIN_GAIN = MIN_GAIN  # back-compat alias


@dataclass(frozen=True)
class Allocation:
    """Result of Algorithm 1 for one stream."""

    #: Per-subcarrier transmit power (mW); dropped subcarriers get 0.
    powers: np.ndarray
    #: Boolean mask of subcarriers that carry data.
    used: np.ndarray
    #: The SNR (or SINR) value equalized across used subcarriers (linear).
    equalized_snr: float
    #: The MCS predicted to maximize throughput, or None if nothing works.
    mcs: Optional[Mcs]
    #: Predicted PHY goodput in bit/s (before MAC overhead).
    goodput_bps: float

    @property
    def n_used(self) -> int:
        return int(self.used.sum())

    @property
    def n_dropped(self) -> int:
        return int((~self.used).sum())


def equalizing_powers(gains: np.ndarray, used: np.ndarray, total_power: float):
    """Powers that equalize SNR over ``used``: p_k = S / g_k, Σ p_k = P.

    Returns ``(powers, S)`` where S is the common received SNR.
    """
    gains = np.asarray(gains, dtype=float)
    used = np.asarray(used, dtype=bool)
    powers = np.zeros_like(gains)
    if not used.any():
        return powers, 0.0
    inverse_sum = float(np.sum(1.0 / gains[used]))
    equalized = total_power / inverse_sum
    powers[used] = equalized / gains[used]
    return powers, equalized


def uniform_goodput(
    snr_linear: np.ndarray,
    n_used: np.ndarray,
    mcs: Mcs,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> np.ndarray:
    """Vectorized goodput when every used subcarrier has the same SNR.

    ``snr_linear`` and ``n_used`` are parallel arrays (one entry per
    candidate drop count); returns predicted goodput for each.
    """
    ber = uncoded_ber(np.asarray(snr_linear, dtype=float), mcs.modulation)
    post = coded_ber(ber, mcs.code_rate)
    fer = frame_error_rate(post, payload_bytes * 8)
    rate = mcs.rate_bps * np.asarray(n_used, dtype=float) / N_DATA_SUBCARRIERS
    return rate * (1.0 - fer)


def allocate(
    gains,
    total_power: float,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> Allocation:
    """Run Algorithm 1.

    ``gains`` maps transmit power to received S(I)NR per subcarrier:
    received S(I)NR on subcarrier k is ``p_k * gains[k]`` (so for plain SNR,
    ``gains[k] = |h_k|^2 / noise``).  ``total_power`` is the stream's power
    budget in mW.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    n = gains.size
    usable = gains > _MIN_GAIN

    order = np.argsort(gains)  # weakest first
    sorted_gains = gains[order]
    # Suffix sums of 1/g: inverse_suffix[i] = Σ_{k ≥ i} 1/g_k (sorted order),
    # skipping unusable subcarriers entirely.
    with np.errstate(divide="ignore"):
        inv = np.where(sorted_gains > _MIN_GAIN, 1.0 / np.maximum(sorted_gains, _MIN_GAIN), 0.0)
    inverse_suffix = np.cumsum(inv[::-1])[::-1]
    usable_suffix = np.cumsum(usable[order][::-1].astype(int))[::-1]

    # Candidate i = "drop the weakest i subcarriers".
    drop_counts = np.arange(n)
    n_used = usable_suffix[drop_counts]
    with np.errstate(divide="ignore", invalid="ignore"):
        equalized = np.where(
            inverse_suffix[drop_counts] > 0,
            total_power / inverse_suffix[drop_counts],
            0.0,
        )

    best_goodput = np.zeros(n)
    best_mcs_index = np.full(n, -1)
    for mcs in mcs_table:
        goodput = uniform_goodput(equalized, n_used, mcs, payload_bytes)
        improved = goodput > best_goodput
        best_goodput = np.where(improved, goodput, best_goodput)
        best_mcs_index = np.where(improved, mcs.index, best_mcs_index)

    best_i = int(np.argmax(best_goodput))
    if best_goodput[best_i] <= 0.0:
        return Allocation(
            powers=np.zeros(n),
            used=np.zeros(n, dtype=bool),
            equalized_snr=0.0,
            mcs=None,
            goodput_bps=0.0,
        )

    used = np.zeros(n, dtype=bool)
    kept = order[best_i:]
    used[kept] = usable[kept]
    powers, equalized_snr = equalizing_powers(gains, used, total_power)
    mcs = next(m for m in mcs_table if m.index == best_mcs_index[best_i])
    return Allocation(
        powers=powers,
        used=used,
        equalized_snr=float(equalized_snr),
        mcs=mcs,
        goodput_bps=float(best_goodput[best_i]),
    )


@dataclass
class BatchAllocation:
    """Algorithm-1 results for one stream of a whole *batch* of topologies.

    The struct-of-arrays counterpart of :class:`Allocation`: row ``b`` of
    every field is exactly what :func:`allocate` returns for row ``b`` of
    the batched gains (bit-identical, see :func:`allocate_batch`).
    ``mcs_index`` is the MCS table index, ``-1`` encoding ``mcs=None``.
    """

    #: (n_rows, n_sc) transmit powers; dropped subcarriers get 0.
    powers: np.ndarray
    #: (n_rows, n_sc) data-carrying mask.
    used: np.ndarray
    #: (n_rows,) equalized S(I)NR per row (0.0 for empty allocations).
    equalized_snr: np.ndarray
    #: (n_rows,) chosen MCS index per row; -1 means none works.
    mcs_index: np.ndarray
    #: (n_rows,) predicted PHY goodput per row in bit/s.
    goodput_bps: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.powers.shape[0]

    def n_dropped(self) -> np.ndarray:
        """(n_rows,) dropped-subcarrier counts, as ints."""
        return (~self.used).sum(axis=1)

    @classmethod
    def from_rows(cls, rows: Sequence[Allocation]) -> "BatchAllocation":
        """Stack per-row :class:`Allocation` results; :meth:`row` inverts it."""
        return cls(
            powers=np.stack([a.powers for a in rows]),
            used=np.stack([a.used for a in rows]),
            equalized_snr=np.array([a.equalized_snr for a in rows], dtype=float),
            mcs_index=np.array([-1 if a.mcs is None else a.mcs.index for a in rows]),
            goodput_bps=np.array([a.goodput_bps for a in rows], dtype=float),
        )

    def row(self, b: int, mcs_table: Sequence[Mcs] = MCS_TABLE) -> Allocation:
        """Materialize row ``b`` as the serial :class:`Allocation`."""
        index = int(self.mcs_index[b])
        mcs = None if index < 0 else next(m for m in mcs_table if m.index == index)
        return Allocation(
            powers=self.powers[b].copy(),
            used=self.used[b].copy(),
            equalized_snr=float(self.equalized_snr[b]),
            mcs=mcs,
            goodput_bps=float(self.goodput_bps[b]),
        )


def equalizing_powers_batch(gains: np.ndarray, used: np.ndarray, total_power) -> tuple:
    """Row-batched :func:`equalizing_powers`, bit-identical per row.

    ``gains``/``used`` have shape (n_rows, n_sc); ``total_power`` is a
    scalar or (n_rows,) budget.  The inverse-gain sum — the one
    order-sensitive reduction — is evaluated per row over the masked-in
    subcarriers in original order (grouped by count, which preserves
    NumPy's pairwise-summation grouping exactly).
    """
    gains = np.asarray(gains, dtype=float)
    used = np.asarray(used, dtype=bool)
    budgets = np.broadcast_to(np.asarray(total_power, dtype=float), (gains.shape[0],))
    inverse_sum = masked_row_apply(
        gains, used, lambda gathered: np.sum(1.0 / gathered, axis=-1)
    )
    any_used = used.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        equalized = np.where(any_used, budgets / np.where(any_used, inverse_sum, 1.0), 0.0)
        powers = np.where(used, equalized[:, None] / gains, 0.0)
    return powers, equalized


def allocate_batch(
    gains,
    total_power,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> BatchAllocation:
    """Run Algorithm 1 over a whole batch of independent streams at once.

    ``gains`` has shape (n_rows, n_sc): one row per (topology, stream)
    problem; ``total_power`` is a scalar or per-row budget.  Row ``b`` of
    the result is **bit-identical** to ``allocate(gains[b], ...)`` — every
    per-row operation (argsort, suffix cumsum, elementwise goodput model,
    argmax, equalization) reduces the same elements in the same order as
    the serial code, just stacked along a leading axis.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    n_rows, n = gains.shape
    budgets = np.broadcast_to(np.asarray(total_power, dtype=float), (n_rows,))
    if not np.all(budgets > 0):
        raise ValueError("total_power must be positive")
    usable = gains > _MIN_GAIN

    order = np.argsort(gains, axis=1)  # weakest first, per row
    sorted_gains = np.take_along_axis(gains, order, axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(sorted_gains > _MIN_GAIN, 1.0 / np.maximum(sorted_gains, _MIN_GAIN), 0.0)
    inverse_suffix = np.cumsum(inv[:, ::-1], axis=1)[:, ::-1]
    usable_sorted = np.take_along_axis(usable, order, axis=1)
    usable_suffix = np.cumsum(usable_sorted[:, ::-1].astype(int), axis=1)[:, ::-1]

    n_used = usable_suffix
    with np.errstate(divide="ignore", invalid="ignore"):
        equalized = np.where(inverse_suffix > 0, budgets[:, None] / inverse_suffix, 0.0)

    best_goodput = np.zeros((n_rows, n))
    best_mcs_index = np.full((n_rows, n), -1)
    for mcs in mcs_table:
        goodput = uniform_goodput(equalized, n_used, mcs, payload_bytes)
        improved = goodput > best_goodput
        best_goodput = np.where(improved, goodput, best_goodput)
        best_mcs_index = np.where(improved, mcs.index, best_mcs_index)

    best_i = np.argmax(best_goodput, axis=1)
    rows = np.arange(n_rows)
    row_goodput = best_goodput[rows, best_i]
    nonempty = row_goodput > 0.0

    kept_sorted = (np.arange(n)[None, :] >= best_i[:, None]) & usable_sorted
    used = np.zeros((n_rows, n), dtype=bool)
    np.put_along_axis(used, order, kept_sorted, axis=1)
    used &= nonempty[:, None]

    powers, equalized_snr = equalizing_powers_batch(gains, used, budgets)
    return BatchAllocation(
        powers=powers,
        used=used,
        equalized_snr=np.where(nonempty, equalized_snr, 0.0),
        mcs_index=np.where(nonempty, best_mcs_index[rows, best_i], -1),
        goodput_bps=np.where(nonempty, row_goodput, 0.0),
    )


def allocate_power_only(
    gains,
    total_power: float,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> Allocation:
    """Ablation: Equi-SNR power allocation *without* subcarrier selection.

    Equalizes S(I)NR across every usable subcarrier but never drops one.
    §4.2 reports that either half of Algorithm 1 alone yields 60–70% of the
    full improvement; this allocator isolates the power-allocation half.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    usable = gains > _MIN_GAIN
    powers, equalized = equalizing_powers(gains, usable, total_power)
    if not usable.any():
        return Allocation(powers=powers, used=usable, equalized_snr=0.0, mcs=None, goodput_bps=0.0)
    snr = np.where(usable, equalized, 0.0)
    from ..phy.rates import best_rate

    selection = best_rate(snr, used=usable, payload_bytes=payload_bytes, mcs_table=mcs_table)
    return Allocation(
        powers=powers,
        used=usable,
        equalized_snr=float(equalized),
        mcs=selection.mcs,
        goodput_bps=selection.goodput_bps,
    )


def allocate_selection_only(
    gains,
    total_power: float,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> Allocation:
    """Ablation: subcarrier selection *without* power equalization.

    Runs Algorithm 1's drop loop, but splits power equally among the kept
    subcarriers instead of equalizing their S(I)NR — isolating the
    selection half of the algorithm.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    from ..phy.rates import best_rate

    n = gains.size
    order = np.argsort(gains)
    usable = gains > _MIN_GAIN

    best = Allocation(
        powers=np.zeros(n), used=np.zeros(n, dtype=bool), equalized_snr=0.0, mcs=None, goodput_bps=0.0
    )
    for drop in range(n):
        kept = order[drop:]
        kept = kept[usable[kept]]
        if kept.size == 0:
            break
        per_subcarrier = total_power / kept.size
        snr = np.zeros(n)
        snr[kept] = per_subcarrier * gains[kept]
        used = np.zeros(n, dtype=bool)
        used[kept] = True
        selection = best_rate(snr, used=used, payload_bytes=payload_bytes, mcs_table=mcs_table)
        if selection.goodput_bps > best.goodput_bps:
            powers = np.zeros(n)
            powers[kept] = per_subcarrier
            best = Allocation(
                powers=powers,
                used=used,
                equalized_snr=0.0,
                mcs=selection.mcs,
                goodput_bps=selection.goodput_bps,
            )
    return best
