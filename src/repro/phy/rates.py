"""802.11n rate selection: pick the MCS that maximizes predicted goodput.

Because a Wi-Fi sender must use one modulation and one convolutional code
across every subcarrier and stream of a transmission ("current hardware
constrains us to using a single decoder at the receiver", §3.2), the rate
decision couples all subcarriers: the weakest ones drive the channel BER
the decoder sees, so a handful of faded subcarriers can force the whole
link down to a low MCS.  That coupling is precisely the problem COPA's
subcarrier dropping attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .ber import uncoded_ber
from .coding import coded_bers, frame_error_rate
from .constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, N_DATA_SUBCARRIERS, Mcs

__all__ = [
    "RateSelection",
    "BatchRateSelection",
    "evaluate_mcs",
    "evaluate_mcs_batch",
    "best_rate",
    "best_rate_batch",
]


@dataclass(frozen=True)
class RateSelection:
    """Outcome of rate selection for one transmission."""

    mcs: Optional[Mcs]
    #: Expected PHY-layer goodput in bit/s, before MAC/airtime overheads.
    goodput_bps: float
    #: Frame (MPDU) error rate at the chosen MCS.
    fer: float
    #: Mean uncoded BER the decoder sees at the chosen MCS.
    channel_ber: float
    #: Number of used (subcarrier, stream) cells out of 52 × n_streams.
    n_used: int

    @property
    def rate_mbps(self) -> float:
        return self.goodput_bps / 1e6


_ZERO = RateSelection(mcs=None, goodput_bps=0.0, fer=1.0, channel_ber=0.5, n_used=0)


def _one_stream_row(sinr, used):
    """A per-transmission ``(sinr, used)`` as a one-row batch.

    A 1-D SINR or mask is one stream; the SINR must then be
    (n_subcarriers, n_streams) and the mask, if given, match it.
    """
    sinr = np.asarray(sinr, dtype=float)
    if sinr.ndim == 1:
        sinr = sinr[:, None]
    if sinr.ndim != 2:
        raise ValueError("sinr must have shape (n_subcarriers,) or (n_subcarriers, n_streams)")
    if used is None:
        return sinr[None], None
    mask = np.asarray(used, dtype=bool)
    if mask.ndim == 1:
        mask = mask[:, None]
    if mask.shape != sinr.shape:
        raise ValueError(f"used mask shape {mask.shape} != sinr shape {sinr.shape}")
    return sinr[None], mask[None]


def evaluate_mcs(
    sinr_linear,
    mcs: Mcs,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> RateSelection:
    """Predicted goodput for a specific MCS.

    ``sinr_linear`` has shape (n_subcarriers, n_streams) (a 1-D array is
    treated as one stream); ``used`` is an optional boolean mask of the
    same shape — dropped cells carry no data and contribute nothing to the
    decoder's BER.  The PHY rate scales with the fraction of used cells,
    so e.g. two full streams give 2× the single-stream MCS rate.  One row
    of :func:`evaluate_mcs_batch`.
    """
    sinr, mask = _one_stream_row(sinr_linear, used)
    goodput, fer, channel_ber, n_used = evaluate_mcs_batch(sinr, mcs, mask, payload_bytes)
    if n_used[0] == 0:
        return _ZERO
    return RateSelection(
        mcs=mcs,
        goodput_bps=float(goodput[0]),
        fer=float(fer[0]),
        channel_ber=float(channel_ber[0]),
        n_used=int(n_used[0]),
    )


def best_rate(
    sinr_linear,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
) -> RateSelection:
    """The goodput-maximizing MCS for the given per-cell SINRs.

    One row of :func:`best_rate_batch`; ``sinr_linear``/``used`` are
    shaped as for :func:`evaluate_mcs`.
    """
    sinr, mask = _one_stream_row(sinr_linear, used)
    return best_rate_batch(sinr, mask, payload_bytes, mcs_table).row(0, mcs_table)


@dataclass
class BatchRateSelection:
    """Rate selections for a batch of independent transmissions.

    Struct-of-arrays counterpart of :class:`RateSelection`: :meth:`row`
    materializes row ``b`` as one :class:`RateSelection`.  ``mcs_index``
    of ``-1`` encodes the no-viable-MCS sentinel (:data:`_ZERO`).
    """

    #: (n_rows,) chosen MCS table index; -1 means no MCS works.
    mcs_index: np.ndarray
    #: (n_rows,) expected PHY-layer goodput in bit/s.
    goodput_bps: np.ndarray
    #: (n_rows,) frame error rate at the chosen MCS.
    fer: np.ndarray
    #: (n_rows,) mean uncoded BER the decoder sees.
    channel_ber: np.ndarray
    #: (n_rows,) used-cell counts.
    n_used: np.ndarray

    def row(self, b: int, mcs_table: Sequence[Mcs] = MCS_TABLE) -> RateSelection:
        index = int(self.mcs_index[b])
        if index < 0:
            return _ZERO
        mcs = next(m for m in mcs_table if m.index == index)
        return RateSelection(
            mcs=mcs,
            goodput_bps=float(self.goodput_bps[b]),
            fer=float(self.fer[b]),
            channel_ber=float(self.channel_ber[b]),
            n_used=int(self.n_used[b]),
        )


def _as_batch_2d(sinr, used):
    """Normalize batched inputs to (n_rows, n_cells), flattening row-major."""
    sinr = np.asarray(sinr, dtype=float)
    if sinr.ndim < 2:
        raise ValueError("batched sinr must have at least 2 dimensions (n_rows leading)")
    n_rows = sinr.shape[0]
    flat_sinr = sinr.reshape(n_rows, -1)
    if used is None:
        mask = np.ones(flat_sinr.shape, dtype=bool)
    else:
        mask = np.asarray(used, dtype=bool)
        if mask.shape != sinr.shape:
            raise ValueError(f"used mask shape {mask.shape} != sinr shape {sinr.shape}")
        mask = mask.reshape(n_rows, -1)
    return flat_sinr, mask


def _mcs_runs(mcs_table: Sequence[Mcs]) -> List[Tuple[Mcs, ...]]:
    """Split ``mcs_table`` into runs of consecutive entries sharing a modulation.

    The runs keep table order, so a run's entries share one uncoded BER.
    ``MCS_TABLE`` has four: BPSK, QPSK ×2, 16-QAM ×2 and 64-QAM ×3.
    """
    return [tuple(run) for _, run in groupby(mcs_table, key=lambda mcs: mcs.modulation)]


def _goodputs(channel_bers, n_used, runs: Sequence[Sequence[Mcs]], payload_bytes: int):
    """``(goodput, fer)`` of every MCS of ``runs``, stacked in table order.

    ``channel_bers[r]`` is the uncoded BER the decoder sees under run
    ``r``'s modulation and ``n_used`` the parallel used-cell counts.  One
    :func:`repro.phy.coding.coded_bers` call over the union of the runs'
    code rates and one frame-error-rate call serve every MCS.  The
    goodput is the PHY rate of the used cells times ``1 − FER``; as
    ``1 − FER ≤ 1``, it never exceeds ``mcs.rate_bps * n_used / 52``.
    """
    table = [(r, mcs) for r, run in enumerate(runs) for mcs in run]
    code_rates = list(dict.fromkeys(mcs.code_rate for _, mcs in table))
    posts = coded_bers(channel_bers, code_rates)
    post = np.array([posts[code_rates.index(mcs.code_rate)][r] for r, mcs in table])
    post = post.reshape((len(table),) + np.shape(channel_bers)[1:])
    fer = frame_error_rate(post, payload_bytes * 8)
    rates = np.array([mcs.rate_bps for _, mcs in table]).reshape((-1,) + (1,) * (post.ndim - 1))
    return rates * n_used / N_DATA_SUBCARRIERS * (1.0 - fer), fer


def _decoder_bers(flat_sinr, mask, modulations) -> np.ndarray:
    """``(n_modulations, n_rows)`` mean uncoded BER over each row's used cells.

    Empty rows get 0.5.  Rows are ordered by used-cell count and their
    used cells gathered once; each modulation's uncoded BER is evaluated
    on the gathered cells only, and rows sharing a count are averaged in
    one ``mean(axis=-1)``.  NumPy's pairwise summation depends only on
    the number of elements reduced, so a row's mean does not depend on
    the rows batched with it (as :func:`repro.util.masked_row_means`).
    """
    n_rows = flat_sinr.shape[0]
    out = np.full((len(modulations), n_rows), 0.5)
    counts = mask.sum(axis=1)
    order = np.argsort(counts, kind="stable")
    cells = flat_sinr[order][mask[order]]
    if cells.size == 0 or not modulations:
        return out
    bers = np.stack([uncoded_ber(cells, modulation) for modulation in modulations])
    stop = 0
    for count, first, size in zip(*np.unique(counts[order], return_index=True, return_counts=True)):
        start, stop = stop, stop + count * size
        if count:
            rows = order[first : first + size]
            out[:, rows] = bers[:, start:stop].reshape(len(modulations), size, count).mean(axis=-1)
    return out


def evaluate_mcs_batch(
    sinr_linear,
    mcs: Mcs,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
):
    """:func:`evaluate_mcs` for a batch: one row per transmission.

    ``sinr_linear``/``used`` carry a leading row axis; trailing axes are
    flattened row-major, as boolean masking of one row would.  Returns
    ``(goodput, fer, channel_ber, n_used)`` arrays; rows with no used
    cells get the :data:`_ZERO` values.  One MCS of the per-run scan that
    :func:`best_rate_batch` makes.
    """
    flat_sinr, mask = _as_batch_2d(sinr_linear, used)
    n_used = mask.sum(axis=1)
    empty = n_used == 0
    (channel_ber,) = _decoder_bers(flat_sinr, mask, [mcs.modulation])
    (goodput,), (fer,) = _goodputs(channel_ber[None], n_used, [(mcs,)], payload_bytes)
    return (
        np.where(empty, 0.0, goodput),
        np.where(empty, 1.0, fer),
        channel_ber,
        n_used,
    )


def best_rate_batch(
    sinr_linear,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
) -> BatchRateSelection:
    """:func:`best_rate` for a batch: the strictly best MCS per row, in table order.

    One stacked pass scores every MCS of every row: the used cells are
    gathered once (:func:`_decoder_bers`), each modulation run of the
    table (:func:`_mcs_runs`) takes one uncoded BER over them, and one
    :func:`repro.phy.coding.coded_bers` call covers every run and code
    rate.  The first strict goodput maximum in table order wins, as in a
    one-MCS-at-a-time scan; a row where no MCS beats zero goodput (NaN
    included) gets the no-MCS sentinel.  Every MCS is evaluated: no cell
    is skipped.
    """
    flat_sinr, mask = _as_batch_2d(sinr_linear, used)
    n_rows = flat_sinr.shape[0]
    n_used = mask.sum(axis=1)
    runs = _mcs_runs(mcs_table)
    channel_bers = _decoder_bers(flat_sinr, mask, [run[0].modulation for run in runs])
    goodput, fer = _goodputs(channel_bers, n_used, runs, payload_bytes)
    # Candidate 0 is "no MCS"; argmax keeps the first of equal maxima.
    goodput = np.concatenate([np.zeros((1, n_rows)), np.where(goodput > 0.0, goodput, 0.0)])
    winner = goodput.argmax(axis=0)
    rows = np.arange(n_rows)
    run_of = np.array([0] + [r + 1 for r, run in enumerate(runs) for _ in run])
    return BatchRateSelection(
        mcs_index=np.array([-1] + [mcs.index for run in runs for mcs in run])[winner],
        goodput_bps=goodput[winner, rows],
        fer=np.concatenate([np.ones((1, n_rows)), fer])[winner, rows],
        channel_ber=np.concatenate([np.full((1, n_rows), 0.5), channel_bers])[run_of[winner], rows],
        n_used=np.where(winner > 0, n_used, 0),
    )
