"""§3.2.1: iterative concurrent Equi-SINR power allocation (Figure 6).

Two APs transmit concurrently; each stream's best power allocation depends
on the interference every *other* stream causes, which in turn depends on
those streams' allocations — the circular dependency the paper illustrates
with its AP1/AP2 subcarrier anecdote.  COPA's heuristic:

1. allocate each stream independently assuming the other sender spreads
   its power equally across subcarriers,
2. recompute the interference every stream causes to all others (including
   the −27 dB leakage of dropped subcarriers),
3. re-run the (Equi-SINR flavoured) Algorithm 1 per stream, and
4. iterate until convergence or an iteration cap, keeping the best
   solution seen — the iteration may regress, and is not guaranteed to
   find a global optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..util import masked_row_means
from . import equi_snr, mercury
from .equi_snr import Allocation, BatchAllocation, _check_budget

__all__ = [
    "StreamAllocation",
    "BatchStreamAllocation",
    "StreamAllocator",
    "BatchStreamAllocator",
    "ConcurrentContext",
    "BatchConcurrentContext",
    "ConcurrentAllocation",
    "effective_gains",
    "radiated_powers",
    "radiated_powers_batch",
    "allocate_single",
    "allocate_single_batch",
    "allocate_concurrent",
    "allocate_concurrent_batch",
]


@dataclass
class StreamAllocation:
    """Power allocation for all streams of one AP's transmission."""

    #: (n_sc, n_streams) transmit powers in mW.
    powers: np.ndarray
    #: (n_sc, n_streams) data-carrying mask.
    used: np.ndarray
    #: Per-stream Algorithm-1 results.
    per_stream: List[Allocation]

    @property
    def predicted_goodput_bps(self) -> float:
        return float(sum(a.goodput_bps for a in self.per_stream))

    @property
    def n_streams(self) -> int:
        return self.powers.shape[1]


def radiated_powers(powers: np.ndarray, used: np.ndarray, leakage_linear: float) -> np.ndarray:
    """Actual radiated power per (subcarrier, stream), leakage included.

    A dropped subcarrier cannot radiate exactly zero (§3.2): it leaks
    ``leakage_linear`` times the mean power of its nearest active
    neighbours (the adjacent-carrier leakage of real transceivers).  One
    row of :func:`radiated_powers_batch`.
    """
    return radiated_powers_batch(np.asarray(powers)[None], np.asarray(used)[None], leakage_linear)[0]


def radiated_powers_batch(powers: np.ndarray, used: np.ndarray, leakage_linear: float) -> np.ndarray:
    """:func:`radiated_powers` for every row of a batch of topologies.

    ``powers``/``used`` have shape (n_rows, n_sc, n_streams).  The only
    order-sensitive reduction — the mean over a stream's *used* powers
    that dropped subcarriers without active neighbours fall back to — is
    done with :func:`repro.util.masked_row_means`, which keeps one row's
    pairwise-summation grouping whatever the batch.
    """
    powers = np.asarray(powers, dtype=float)
    used = np.asarray(used, dtype=bool)
    radiated = np.where(used, powers, 0.0)
    for s in range(powers.shape[2]):
        stream_used = used[:, :, s]
        dropped = ~stream_used
        needs_fill = dropped.any(axis=1) & (stream_used.sum(axis=1) > 0)
        if not needs_fill.any():
            continue
        column = powers[:, :, s]
        above = np.roll(column, -1, axis=1)
        below = np.roll(column, 1, axis=1)
        above_used = np.roll(stream_used, -1, axis=1)
        below_used = np.roll(stream_used, 1, axis=1)
        neighbour_sum = np.where(above_used, above, 0.0) + np.where(below_used, below, 0.0)
        neighbour_count = above_used.astype(float) + below_used.astype(float)
        fallback = masked_row_means(column, stream_used)
        neighbour_mean = np.where(
            neighbour_count > 0, neighbour_sum / np.maximum(neighbour_count, 1), fallback[:, None]
        )
        fill = dropped & needs_fill[:, None]
        radiated[:, :, s] = np.where(fill, leakage_linear * neighbour_mean, radiated[:, :, s])
    return radiated


def effective_gains(
    gains: np.ndarray,
    interference: Optional[np.ndarray],
    noise_mw: float,
) -> np.ndarray:
    """Per-(subcarrier, stream) S(I)NR-per-mW: ``g / (I + σ²)``.

    The quantity Algorithm 1 consumes in its Equi-SINR flavour (§3.2.1):
    passing these gains to a plain Equi-SNR allocator equalizes SINR.
    Shared by :func:`allocate_single_batch` and the optimization oracle so
    both agree on the problem being solved before comparing solutions.
    ``gains`` is one stream (n_sc,) or has streams on its last axis,
    (..., n_sc, n_streams); ``interference`` is then (n_sc,) or (..., n_sc).
    """
    gains = np.asarray(gains, dtype=float)
    cells = gains.shape if gains.ndim == 1 else gains.shape[:-1]
    denominator = noise_mw + (
        np.zeros(cells) if interference is None else np.asarray(interference, dtype=float)
    )
    if gains.ndim == 1:
        return gains / denominator
    return gains / denominator[..., None]


#: A per-stream allocator: (effective gains, power budget) → Allocation.
#: ``equi_snr.allocate`` implements Equi-S(I)NR; ``mercury.mercury_allocate``
#: implements the COPA+ mercury/water-filling variant.
StreamAllocator = Callable[[np.ndarray, float], Allocation]


#: Per-stream allocators with a registered batched form.  Any other
#: allocator is lifted: its batched form calls it once per row.
BATCHED_ALLOCATORS = {
    equi_snr.allocate: equi_snr.allocate_batch,
    mercury.mercury_allocate: mercury.mercury_allocate_batch,
}


def _batched(allocator: StreamAllocator) -> BatchStreamAllocator:
    """The batched form of ``allocator``: its registered twin, else a row-by-row lift."""
    twin = BATCHED_ALLOCATORS.get(allocator)
    if twin is not None:
        return twin

    def lifted(gains: np.ndarray, total_power: float) -> BatchAllocation:
        return BatchAllocation.from_rows([allocator(row, total_power) for row in gains])

    return lifted


def allocate_single(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    allocator: StreamAllocator = equi_snr.allocate,
) -> StreamAllocation:
    """Allocate each stream of one transmission with no concurrent sender.

    ``gains`` has shape (n_sc, n_streams): the matched-filter signal gain.
    The power budget is split equally between streams, each then optimized
    independently per Fig. 6.  ``interference`` (n_sc,) optional
    per-subcarrier interference power at the client.  One row of
    :func:`allocate_single_batch`.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_subcarriers, n_streams)")
    return allocate_single_batch(
        gains[None],
        total_power,
        interference=None if interference is None else np.asarray(interference)[None],
        noise_mw=noise_mw,
        allocator=_batched(allocator),
    ).row(0)


@dataclass
class BatchStreamAllocation:
    """Per-AP allocation for a whole batch of topologies.

    The struct-of-arrays counterpart of :class:`StreamAllocation`:
    :meth:`row` materializes topology ``b`` as one :class:`StreamAllocation`.
    ``per_stream`` holds one :class:`BatchAllocation` per stream.
    """

    #: (n_rows, n_sc, n_streams) transmit powers in mW.
    powers: np.ndarray
    #: (n_rows, n_sc, n_streams) data-carrying mask.
    used: np.ndarray
    #: Per-stream batched Algorithm-1 results.
    per_stream: List[BatchAllocation]

    @property
    def n_rows(self) -> int:
        return self.powers.shape[0]

    @property
    def n_streams(self) -> int:
        return self.powers.shape[2]

    def predicted_goodput_bps(self) -> np.ndarray:
        """(n_rows,) replica of ``StreamAllocation.predicted_goodput_bps``.

        Accumulated stream by stream in order, as that property's ``sum()``
        over per-stream goodputs does.
        """
        total = np.zeros(self.n_rows)
        for allocation in self.per_stream:
            total = total + allocation.goodput_bps
        return total

    def n_dropped(self) -> np.ndarray:
        """(n_rows,) total dropped subcarriers across streams."""
        total = np.zeros(self.n_rows, dtype=int)
        for allocation in self.per_stream:
            total = total + allocation.n_dropped()
        return total

    @classmethod
    def from_rows(cls, rows: Sequence[StreamAllocation]) -> "BatchStreamAllocation":
        """Stack per-row :class:`StreamAllocation` results; :meth:`row` inverts it."""
        return cls(
            powers=np.stack([a.powers for a in rows]),
            used=np.stack([a.used for a in rows]),
            per_stream=[
                BatchAllocation.from_rows([a.per_stream[s] for a in rows])
                for s in range(len(rows[0].per_stream))
            ],
        )

    def row(self, b: int) -> StreamAllocation:
        """Materialize row ``b`` as a :class:`StreamAllocation`."""
        return StreamAllocation(
            powers=self.powers[b].copy(),
            used=self.used[b].copy(),
            per_stream=[allocation.row(b) for allocation in self.per_stream],
        )


#: A batched per-stream allocator: ((n_rows, n_sc) effective gains, power
#: budget) → BatchAllocation.  ``equi_snr.allocate_batch`` and
#: ``mercury.mercury_allocate_batch`` are the shipped implementations.
#: Rows must be independent: row ``b`` of the result depends only on row
#: ``b`` of the gains, bit for bit, whatever rows share the call.  The
#: row-by-row lift of :func:`_batched` satisfies this by construction, and
#: :func:`allocate_single_batch` relies on it to allocate all streams of
#: an AP in one call.
BatchStreamAllocator = Callable[[np.ndarray, float], BatchAllocation]


def allocate_single_batch(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    allocator: BatchStreamAllocator = equi_snr.allocate_batch,
) -> BatchStreamAllocation:
    """:func:`allocate_single` for every row of a batch of topologies.

    ``gains`` has shape (n_rows, n_sc, n_streams); ``interference`` is an
    optional (n_rows, n_sc) array.  The budget is split equally between
    streams.  The streams are stacked stream-major into one
    (n_streams · n_rows, n_sc) batch, ``allocator`` runs once over it, and
    the result is split back per stream; row independence of batched
    allocators makes this bit-identical to one call per stream.

    A zero budget gives every stream an empty allocation (no power, no
    MCS, 0 bit/s).  A NaN, infinite or negative budget raises
    ``ValueError``.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3:
        raise ValueError("gains must have shape (n_rows, n_subcarriers, n_streams)")
    if total_power != 0:
        _check_budget(total_power)
    n_rows, n_sc, n_streams = gains.shape
    effective = effective_gains(gains, interference, noise_mw)
    budget = total_power / n_streams
    if budget > 0:
        stacked = allocator(
            effective.transpose(2, 0, 1).reshape(n_streams * n_rows, n_sc), float(budget)
        )
        allocations = [
            BatchAllocation(
                powers=stacked.powers[rows],
                used=stacked.used[rows],
                equalized_snr=stacked.equalized_snr[rows],
                mcs_index=stacked.mcs_index[rows],
                goodput_bps=stacked.goodput_bps[rows],
            )
            for rows in (slice(s * n_rows, (s + 1) * n_rows) for s in range(n_streams))
        ]
    else:
        empty = BatchAllocation(
            powers=np.zeros((n_rows, n_sc)),
            used=np.zeros((n_rows, n_sc), dtype=bool),
            equalized_snr=np.zeros(n_rows),
            mcs_index=np.full(n_rows, -1),
            goodput_bps=np.zeros(n_rows),
        )
        allocations = [empty] * n_streams
    powers = np.stack([a.powers for a in allocations], axis=2)
    used = np.stack([a.used for a in allocations], axis=2)
    return BatchStreamAllocation(powers=powers, used=used, per_stream=allocations)


@dataclass
class ConcurrentContext:
    """Everything the concurrent allocator needs about the two transmissions.

    Index 0/1 identifies the two APs.  ``gains[a]`` is AP a's signal gain
    at its *own* client, shape (n_sc, n_streams_a).  ``coupling[a]`` is the
    per-antenna interference gain of AP a's streams at the *other* AP's
    client, same shape.  All gains are per unit transmit power.
    """

    gains: Sequence[np.ndarray]
    coupling: Sequence[np.ndarray]
    budgets: Sequence[float]
    noise_mw: Sequence[float]
    leakage_linear: float = 10.0 ** (-27.0 / 10.0)

    def __post_init__(self):
        if len(self.gains) != 2 or len(self.coupling) != 2:
            raise ValueError("exactly two APs are supported")
        for a in range(2):
            if self.gains[a].shape != self.coupling[a].shape:
                raise ValueError("gains and coupling must have matching shapes")


@dataclass
class ConcurrentAllocation:
    """Joint allocation for the two concurrent transmissions."""

    allocations: List[StreamAllocation]
    iterations: int
    converged: bool

    @property
    def predicted_aggregate_bps(self) -> float:
        return float(sum(a.predicted_goodput_bps for a in self.allocations))


def allocate_concurrent(
    context: ConcurrentContext,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator: StreamAllocator = equi_snr.allocate,
    collector=None,
) -> ConcurrentAllocation:
    """Run the Figure-6 iteration and return the best allocation found.

    ``collector`` (a :class:`repro.obs.Collector`) records how hard the
    iteration worked: a histogram of iteration counts and convergence
    counters — the §3.2.1 telemetry the observability layer surfaces.
    One row of :func:`allocate_concurrent_batch`.
    """
    batch = BatchConcurrentContext(
        gains=[np.asarray(g)[None] for g in context.gains],
        coupling=[np.asarray(c)[None] for c in context.coupling],
        budgets=context.budgets,
        noise_mw=context.noise_mw,
        leakage_linear=context.leakage_linear,
    )
    allocations, iterations, converged = allocate_concurrent_batch(
        batch, max_iterations, tolerance, _batched(allocator), collector
    )
    return ConcurrentAllocation(
        allocations=[allocation.row(0) for allocation in allocations],
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
    )


@dataclass
class BatchConcurrentContext:
    """Batched :class:`ConcurrentContext`: one row per topology.

    ``gains[a]``/``coupling[a]`` have shape (n_rows, n_sc, n_streams_a);
    budgets and noise floors are shared across the batch (the engine only
    batches topologies with identical configuration).
    """

    gains: Sequence[np.ndarray]
    coupling: Sequence[np.ndarray]
    budgets: Sequence[float]
    noise_mw: Sequence[float]
    leakage_linear: float = 10.0 ** (-27.0 / 10.0)

    def __post_init__(self):
        if len(self.gains) != 2 or len(self.coupling) != 2:
            raise ValueError("exactly two APs are supported")
        for a in range(2):
            if self.gains[a].shape != self.coupling[a].shape:
                raise ValueError("gains and coupling must have matching shapes")

    @property
    def n_rows(self) -> int:
        return self.gains[0].shape[0]


def _merge_batch_allocation(new: BatchAllocation, old: BatchAllocation, take) -> BatchAllocation:
    """Rowwise ``new where take else old`` over every field."""
    return BatchAllocation(
        powers=np.where(take[:, None], new.powers, old.powers),
        used=np.where(take[:, None], new.used, old.used),
        equalized_snr=np.where(take, new.equalized_snr, old.equalized_snr),
        mcs_index=np.where(take, new.mcs_index, old.mcs_index),
        goodput_bps=np.where(take, new.goodput_bps, old.goodput_bps),
    )


def _merge_batch_stream(
    new: BatchStreamAllocation, old: BatchStreamAllocation, take
) -> BatchStreamAllocation:
    return BatchStreamAllocation(
        powers=np.where(take[:, None, None], new.powers, old.powers),
        used=np.where(take[:, None, None], new.used, old.used),
        per_stream=[
            _merge_batch_allocation(n, o, take) for n, o in zip(new.per_stream, old.per_stream)
        ],
    )


def allocate_concurrent_batch(
    context: BatchConcurrentContext,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator: BatchStreamAllocator = equi_snr.allocate_batch,
    collector=None,
):
    """The Figure-6 iteration for every row of a batch of topologies.

    Returns ``(allocations, iterations, converged)`` where ``allocations``
    is a list of two :class:`BatchStreamAllocation` (one per AP) holding
    each row's best-seen solution, and ``iterations``/``converged`` are
    (n_rows,) arrays.  Rows converge independently: a row that meets the
    tolerance is frozen (its best solution, radiated powers and iteration
    count stop updating) while the rest of the batch keeps iterating, so
    every row follows the trajectory it would follow alone.

    ``collector`` receives per-topology telemetry: one iteration-count
    observation and one convergence counter per row, and the rows'
    dropped-subcarrier total.
    """
    n_rows = context.n_rows
    n_sc = context.gains[0].shape[1]

    # Step 1: the other sender is assumed to spread power equally.
    radiated = [
        np.full(
            context.gains[a].shape, context.budgets[a] / (context.gains[a].shape[2] * n_sc)
        )
        for a in range(2)
    ]

    best: Optional[List[BatchStreamAllocation]] = None
    best_aggregate = np.zeros(n_rows)
    previous_powers: Optional[List[np.ndarray]] = None
    active = np.ones(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)

    for iteration in range(1, max_iterations + 1):
        iterations = np.where(active, iteration, iterations)
        allocations: List[BatchStreamAllocation] = []
        for a in range(2):
            interference = np.sum(context.coupling[1 - a] * radiated[1 - a], axis=2)
            allocations.append(
                allocate_single_batch(
                    context.gains[a],
                    context.budgets[a],
                    interference=interference,
                    noise_mw=context.noise_mw[a],
                    allocator=allocator,
                )
            )
        aggregate = np.zeros(n_rows)
        for allocation in allocations:
            aggregate = aggregate + allocation.predicted_goodput_bps()
        if best is None:
            best = allocations
            best_aggregate = aggregate
        else:
            improved = active & (aggregate > best_aggregate)
            best = [
                _merge_batch_stream(allocations[a], best[a], improved) for a in range(2)
            ]
            best_aggregate = np.where(improved, aggregate, best_aggregate)

        new_radiated = [
            radiated_powers_batch(
                allocations[a].powers, allocations[a].used, context.leakage_linear
            )
            for a in range(2)
        ]
        if previous_powers is not None:
            scale = sum(context.budgets)
            change = np.zeros(n_rows)
            for a in range(2):
                change = change + np.abs(new_radiated[a] - previous_powers[a]).reshape(
                    n_rows, -1
                ).sum(axis=1)
            newly_converged = active & (change <= tolerance * scale)
            converged |= newly_converged
            active &= ~newly_converged
        if previous_powers is None:
            previous_powers = new_radiated
            radiated = new_radiated
        else:
            # Frozen rows stop updating: alone, their loop would have ended.
            previous_powers = [
                np.where(active[:, None, None], new_radiated[a], previous_powers[a])
                for a in range(2)
            ]
            radiated = [
                np.where(active[:, None, None], new_radiated[a], radiated[a]) for a in range(2)
            ]
        if not active.any():
            break

    assert best is not None
    if collector is not None:
        total_dropped = np.zeros(n_rows, dtype=int)
        for allocation in best:
            total_dropped = total_dropped + allocation.n_dropped()
        for b in range(n_rows):
            collector.observe("alloc.concurrent_iterations", int(iterations[b]))
            collector.inc("alloc.converged" if converged[b] else "alloc.unconverged")
        collector.inc("alloc.concurrent_dropped_subcarriers", int(total_dropped.sum()))
    return best, iterations, converged
