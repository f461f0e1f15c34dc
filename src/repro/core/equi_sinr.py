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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..util import masked_row_means
from . import equi_snr
from .equi_snr import Allocation, BatchAllocation

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
    neighbours (the adjacent-carrier leakage of real transceivers).
    """
    powers = np.asarray(powers, dtype=float)
    used = np.asarray(used, dtype=bool)
    radiated = np.where(used, powers, 0.0)
    for s in range(powers.shape[1]):
        dropped = ~used[:, s]
        if not dropped.any() or used[:, s].sum() == 0:
            continue
        column = powers[:, s]
        above = np.roll(column, -1)
        below = np.roll(column, 1)
        above_used = np.roll(used[:, s], -1)
        below_used = np.roll(used[:, s], 1)
        neighbour_sum = np.where(above_used, above, 0.0) + np.where(below_used, below, 0.0)
        neighbour_count = above_used.astype(float) + below_used.astype(float)
        fallback = float(column[used[:, s]].mean())
        neighbour_mean = np.where(neighbour_count > 0, neighbour_sum / np.maximum(neighbour_count, 1), fallback)
        radiated[dropped, s] = leakage_linear * neighbour_mean[dropped]
    return radiated


def radiated_powers_batch(powers: np.ndarray, used: np.ndarray, leakage_linear: float) -> np.ndarray:
    """Topology-batched :func:`radiated_powers`, bit-identical per row.

    ``powers``/``used`` have shape (n_rows, n_sc, n_streams).  The only
    order-sensitive reduction — the mean over a stream's *used* powers
    that dropped subcarriers without active neighbours fall back to — is
    done with :func:`repro.util.masked_row_means`, which preserves the
    serial pairwise-summation grouping exactly.
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
    Shared by :func:`allocate_single` and the optimization oracle so both
    agree on the problem being solved before comparing solutions.
    """
    gains = np.asarray(gains, dtype=float)
    n_sc = gains.shape[0]
    denominator = noise_mw + (
        np.zeros(n_sc) if interference is None else np.asarray(interference, dtype=float)
    )
    if gains.ndim == 1:
        return gains / denominator
    return gains / denominator[:, None]


#: A per-stream allocator: (effective gains, power budget) → Allocation.
#: ``equi_snr.allocate`` implements Equi-S(I)NR; ``mercury.mercury_allocate``
#: implements the COPA+ mercury/water-filling variant.
StreamAllocator = Callable[[np.ndarray, float], Allocation]


def _stream_budgets(gains: np.ndarray, total_power: float, split: str) -> np.ndarray:
    """Divide the power budget between streams.

    ``"equal"`` is the paper's choice (each stream optimized independently,
    Fig. 6).  ``"proportional"`` weights budgets by each stream's mean gain
    — a waterfilling-flavoured alternative benchmarked as an ablation.
    """
    n_streams = gains.shape[1]
    if split == "equal":
        return np.full(n_streams, total_power / n_streams)
    if split == "proportional":
        weights = gains.mean(axis=0)
        total_weight = weights.sum()
        if total_weight <= 0:
            return np.full(n_streams, total_power / n_streams)
        return total_power * weights / total_weight
    raise ValueError(f"unknown stream split {split!r}")


def allocate_single(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    allocator: StreamAllocator = equi_snr.allocate,
    stream_split: str = "equal",
) -> StreamAllocation:
    """Allocate each stream of one transmission with no concurrent sender.

    ``gains`` has shape (n_sc, n_streams): the matched-filter signal gain.
    The power budget is split between streams per ``stream_split`` (each
    stream is then optimized independently per Fig. 6).  ``interference``
    (n_sc,) optional per-subcarrier interference power at the client.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_subcarriers, n_streams)")
    n_sc, n_streams = gains.shape
    effective = effective_gains(gains, interference, noise_mw)
    budgets = _stream_budgets(gains, total_power, stream_split)
    empty = Allocation(
        powers=np.zeros(n_sc),
        used=np.zeros(n_sc, dtype=bool),
        equalized_snr=0.0,
        mcs=None,
        goodput_bps=0.0,
    )
    allocations = [
        allocator(effective[:, s], float(budgets[s])) if budgets[s] > 0 else empty
        for s in range(n_streams)
    ]
    powers = np.stack([a.powers for a in allocations], axis=1)
    used = np.stack([a.used for a in allocations], axis=1)
    return StreamAllocation(powers=powers, used=used, per_stream=allocations)


@dataclass
class BatchStreamAllocation:
    """Per-AP allocation for a whole batch of topologies.

    The struct-of-arrays counterpart of :class:`StreamAllocation`: row
    ``b`` of every field is what the serial path computes for topology
    ``b``.  ``per_stream`` holds one :class:`BatchAllocation` per stream.
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

        Accumulated stream by stream in order, mirroring the serial
        ``sum()`` over per-stream goodputs exactly.
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
        """Materialize row ``b`` as the serial :class:`StreamAllocation`."""
        return StreamAllocation(
            powers=self.powers[b].copy(),
            used=self.used[b].copy(),
            per_stream=[allocation.row(b) for allocation in self.per_stream],
        )


#: A batched per-stream allocator: ((n_rows, n_sc) effective gains, power
#: budget) → BatchAllocation.  ``equi_snr.allocate_batch`` and
#: ``mercury.mercury_allocate_batch`` are the shipped implementations.
BatchStreamAllocator = Callable[[np.ndarray, float], BatchAllocation]


def allocate_single_batch(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    allocator: BatchStreamAllocator = equi_snr.allocate_batch,
) -> BatchStreamAllocation:
    """Topology-batched :func:`allocate_single` (equal stream split).

    ``gains`` has shape (n_rows, n_sc, n_streams); ``interference`` is an
    optional (n_rows, n_sc) array.  Row ``b`` of the result is
    bit-identical to ``allocate_single(gains[b], ...)``.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3:
        raise ValueError("gains must have shape (n_rows, n_subcarriers, n_streams)")
    n_rows, n_sc, n_streams = gains.shape
    denominator = noise_mw + (
        np.zeros((n_rows, n_sc)) if interference is None else np.asarray(interference, dtype=float)
    )
    effective = gains / denominator[:, :, None]
    budget = total_power / n_streams
    empty = BatchAllocation(
        powers=np.zeros((n_rows, n_sc)),
        used=np.zeros((n_rows, n_sc), dtype=bool),
        equalized_snr=np.zeros(n_rows),
        mcs_index=np.full(n_rows, -1),
        goodput_bps=np.zeros(n_rows),
    )
    allocations = [
        allocator(effective[:, :, s], float(budget)) if budget > 0 else empty
        for s in range(n_streams)
    ]
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


def _interference_at(context: ConcurrentContext, victim: int, other_radiated: np.ndarray) -> np.ndarray:
    """Interference power (n_sc,) at client ``victim`` given the other AP's radiated powers."""
    other = 1 - victim
    return np.sum(context.coupling[other] * other_radiated, axis=1)


def allocate_concurrent(
    context: ConcurrentContext,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator: StreamAllocator = equi_snr.allocate,
    on_iteration: Optional[Callable[[int, ConcurrentAllocation], None]] = None,
    collector=None,
) -> ConcurrentAllocation:
    """Run the Figure-6 iteration and return the best allocation found.

    ``collector`` (a :class:`repro.obs.Collector`) records how hard the
    iteration worked: a histogram of iteration counts and convergence
    counters — the §3.2.1 telemetry the observability layer surfaces.
    """
    n_sc = context.gains[0].shape[0]

    # Step 1: the other sender is assumed to spread power equally.
    radiated = [
        np.full(context.gains[a].shape, context.budgets[a] / (context.gains[a].shape[1] * n_sc))
        for a in range(2)
    ]

    best: Optional[ConcurrentAllocation] = None
    previous_powers: Optional[List[np.ndarray]] = None
    converged = False
    iterations_run = 0

    for iteration in range(1, max_iterations + 1):
        iterations_run = iteration
        allocations: List[StreamAllocation] = []
        for a in range(2):
            interference = _interference_at(context, victim=a, other_radiated=radiated[1 - a])
            allocations.append(
                allocate_single(
                    context.gains[a],
                    context.budgets[a],
                    interference=interference,
                    noise_mw=context.noise_mw[a],
                    allocator=allocator,
                )
            )
        candidate = ConcurrentAllocation(allocations=allocations, iterations=iteration, converged=False)
        if on_iteration is not None:
            on_iteration(iteration, candidate)
        if best is None or candidate.predicted_aggregate_bps > best.predicted_aggregate_bps:
            best = candidate

        new_radiated = [
            radiated_powers(allocations[a].powers, allocations[a].used, context.leakage_linear)
            for a in range(2)
        ]
        if previous_powers is not None:
            scale = sum(context.budgets)
            change = sum(
                float(np.abs(new_radiated[a] - previous_powers[a]).sum()) for a in range(2)
            )
            if change <= tolerance * scale:
                converged = True
                radiated = new_radiated
                break
        previous_powers = new_radiated
        radiated = new_radiated

    assert best is not None
    if collector is not None:
        collector.observe("alloc.concurrent_iterations", iterations_run)
        collector.inc("alloc.converged" if converged else "alloc.unconverged")
        collector.inc(
            "alloc.concurrent_dropped_subcarriers",
            sum(
                stream.n_dropped
                for allocation in best.allocations
                for stream in allocation.per_stream
            ),
        )
    return ConcurrentAllocation(
        allocations=best.allocations,
        iterations=iterations_run,
        converged=converged,
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
    """Topology-batched Figure-6 iteration, bit-identical per row.

    Returns ``(allocations, iterations, converged)`` where ``allocations``
    is a list of two :class:`BatchStreamAllocation` (one per AP) holding
    each row's best-seen solution, and ``iterations``/``converged`` are
    (n_rows,) arrays.  Rows converge independently: a row that meets the
    tolerance is frozen (its best solution, radiated powers and iteration
    count stop updating) while the rest of the batch keeps iterating, so
    every row sees exactly the serial iteration trajectory.

    ``collector`` receives the same per-topology telemetry the serial
    :func:`allocate_concurrent` records (iteration histogram, convergence
    counters, dropped-subcarrier totals).
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
            # Frozen rows stop updating; the serial loop has already
            # broken out of them.
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
