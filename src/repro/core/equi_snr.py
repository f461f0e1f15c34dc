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

from ..phy.ber import uncoded_ber
from ..phy.constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, N_DATA_SUBCARRIERS, Mcs
from ..phy.rates import _mcs_runs, _run_goodputs
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


def _check_budget(total_power) -> None:
    """Reject a power budget (or any of a per-row array) that is not finite and positive."""
    budgets = np.asarray(total_power, dtype=float)
    if not np.all(np.isfinite(budgets) & (budgets > 0)):
        raise ValueError("total_power must be finite and positive")


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

    Returns ``(powers, S)`` where S is the common received SNR.  One row
    of :func:`equalizing_powers_batch`.
    """
    powers, equalized = equalizing_powers_batch(
        np.asarray(gains, dtype=float)[None], np.asarray(used, dtype=bool)[None], total_power
    )
    return powers[0], float(equalized[0])


def uniform_goodput(
    snr_linear: np.ndarray,
    n_used: np.ndarray,
    mcs: Mcs,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> np.ndarray:
    """Vectorized goodput when every used subcarrier has the same SNR.

    ``snr_linear`` and ``n_used`` are parallel arrays (one entry per
    candidate drop count); returns predicted goodput for each.  One MCS of
    the per-run scan :func:`allocate_batch` makes.
    """
    ber = uncoded_ber(np.asarray(snr_linear, dtype=float), mcs.modulation)
    ((goodput, _),) = _run_goodputs(ber, np.asarray(n_used, dtype=float), (mcs,), payload_bytes)
    return goodput


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
    budget in mW.  One row of :func:`allocate_batch`.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    return allocate_batch(gains[None], total_power, mcs_table, payload_bytes).row(0, mcs_table)


@dataclass
class BatchAllocation:
    """Algorithm-1 results for one stream of a whole *batch* of topologies.

    The struct-of-arrays counterpart of :class:`Allocation`: :meth:`row`
    materializes row ``b`` of every field as one :class:`Allocation`.
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
        """Materialize row ``b`` as an :class:`Allocation`."""
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
    """:func:`equalizing_powers` for every row of ``gains``.

    ``gains``/``used`` have shape (n_rows, n_sc); ``total_power`` is a
    scalar or (n_rows,) budget.  The inverse-gain sum — the one
    order-sensitive reduction — is evaluated per row over the masked-in
    subcarriers in original order (grouped by count, which preserves
    NumPy's pairwise-summation grouping exactly), so a row's result does
    not depend on the rows batched with it.
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
    the result does not depend on the other rows, bit for bit: every
    per-row operation (argsort, suffix cumsum, elementwise goodput model,
    argmax, equalization) reduces the row's own elements in the same order
    whatever the batch, so :func:`allocate` is its one-row call.

    Each (row, drop count) cell is scored with every MCS, one modulation
    run at a time and top-down, and a cell keeps its best MCS.  Before a
    run, cells whose rate ceiling is strictly below their row's best so
    far are skipped; each live cell is gathered once per run for one
    uncoded BER and one :func:`repro.phy.coding.coded_bers` call.  The
    result equals an ascending scan of every cell with a strict ``>``:
    a skipped cell can be neither the row's argmax nor tie with it, and
    the argmax cell is the only one whose MCS is read.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    n_rows, n = gains.shape
    _check_budget(total_power)
    budgets = np.broadcast_to(np.asarray(total_power, dtype=float), (n_rows,))
    usable = gains > MIN_GAIN

    order = np.argsort(gains, axis=1)  # weakest first, per row
    sorted_gains = np.take_along_axis(gains, order, axis=1)
    with np.errstate(divide="ignore"):
        inv = np.where(sorted_gains > MIN_GAIN, 1.0 / np.maximum(sorted_gains, MIN_GAIN), 0.0)
    inverse_suffix = np.cumsum(inv[:, ::-1], axis=1)[:, ::-1]
    usable_sorted = np.take_along_axis(usable, order, axis=1)
    usable_suffix = np.cumsum(usable_sorted[:, ::-1].astype(int), axis=1)[:, ::-1]

    n_used = usable_suffix
    with np.errstate(divide="ignore", invalid="ignore"):
        equalized = np.where(inverse_suffix > 0, budgets[:, None] / inverse_suffix, 0.0)

    # Top-down scan, one modulation run at a time.  A cell's goodput is at
    # most its rate ceiling ``top_rate * n_used / 52`` (1 − FER ≤ 1), so a
    # cell whose ceiling is strictly below its row's best so far can be
    # neither the row's argmax nor a tie, and is skipped.  Visiting the
    # table backwards, an equal goodput replaces the cell's best, so the
    # earliest table entry wins a tie as in an ascending strict scan.
    best_goodput = np.zeros((n_rows, n))
    best_mcs_index = np.full((n_rows, n), -1)
    for run in reversed(_mcs_runs(mcs_table)):
        top_rate = max(mcs.rate_bps for mcs in run)
        row_best = best_goodput.max(axis=1)
        live = ~(top_rate * n_used / N_DATA_SUBCARRIERS < row_best[:, None])
        if not live.any():
            continue
        cell_goodput, cell_mcs_index = best_goodput[live], best_mcs_index[live]
        ber = uncoded_ber(equalized[live], run[0].modulation)
        goodputs = _run_goodputs(ber, n_used[live], run, payload_bytes)
        for mcs, (goodput, _) in reversed(list(zip(run, goodputs))):
            improved = (goodput > cell_goodput) | ((goodput == cell_goodput) & (goodput > 0))
            cell_goodput = np.where(improved, goodput, cell_goodput)
            cell_mcs_index = np.where(improved, mcs.index, cell_mcs_index)
        best_goodput[live], best_mcs_index[live] = cell_goodput, cell_mcs_index

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
    _check_budget(total_power)
    usable = gains > MIN_GAIN
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
    _check_budget(total_power)
    from ..phy.rates import best_rate

    n = gains.size
    order = np.argsort(gains)
    usable = gains > MIN_GAIN

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
