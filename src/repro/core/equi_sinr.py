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

:func:`allocate_concurrent_batch` is the one implementation: it runs the
iteration for k ≥ 2 players over a batch of topologies, so the paper's
AP pair and an N-AP coordination cluster take the same loop, and
:func:`allocate_concurrent` is its entry for one row.  The iteration
is synchronous, so the k best responses of a round do not depend on
each other: a round is one batched allocator call over every stream of
every player and topology (:func:`allocate_players_batch`), not one
call per player.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..util import masked_row_means
from . import equi_snr, mercury
from .equi_snr import Allocation, BatchAllocation, _check_budget

__all__ = [
    "StreamAllocation",
    "BatchStreamAllocation",
    "StreamAllocator",
    "BatchStreamAllocator",
    "BatchConcurrentContext",
    "ConcurrentAllocation",
    "effective_gains",
    "radiated_powers",
    "radiated_powers_batch",
    "allocate_single",
    "allocate_single_batch",
    "allocate_players_batch",
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

    ``powers``/``used`` have shape (n_rows, n_sc, n_streams).  Every
    (row, stream) column is laid out as its own row of subcarriers and
    all of them go through one pass; the neighbours wrap around the
    subcarrier axis.  The only order-sensitive reduction — the mean over
    a column's *used* powers that dropped subcarriers without active
    neighbours fall back to — is done with
    :func:`repro.util.masked_row_means`, which keeps one row's
    pairwise-summation grouping whatever the batch.
    """
    powers = np.asarray(powers, dtype=float)
    used = np.asarray(used, dtype=bool)
    n_rows, n_sc, n_streams = powers.shape
    columns = powers.transpose(0, 2, 1).reshape(-1, n_sc)
    columns_used = used.transpose(0, 2, 1).reshape(-1, n_sc)
    radiated = np.where(columns_used, columns, 0.0)
    n_used = columns_used.sum(axis=1)
    fill = np.flatnonzero((n_used > 0) & (n_used < n_sc))
    if fill.size:
        column, column_used = columns[fill], columns_used[fill]
        above = np.roll(column, -1, axis=1)
        below = np.roll(column, 1, axis=1)
        above_used = np.roll(column_used, -1, axis=1)
        below_used = np.roll(column_used, 1, axis=1)
        neighbour_sum = np.where(above_used, above, 0.0) + np.where(below_used, below, 0.0)
        neighbour_count = above_used.astype(float) + below_used.astype(float)
        fallback = masked_row_means(column, column_used)
        neighbour_mean = np.where(
            neighbour_count > 0, neighbour_sum / np.maximum(neighbour_count, 1), fallback[:, None]
        )
        radiated[fill] = np.where(column_used, column, leakage_linear * neighbour_mean)
    return np.ascontiguousarray(radiated.reshape(n_rows, n_streams, n_sc).transpose(0, 2, 1))


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

    def lifted(gains: np.ndarray, total_power) -> BatchAllocation:
        budgets = np.broadcast_to(np.asarray(total_power, dtype=float), (len(gains),))
        return BatchAllocation.from_rows(
            [allocator(row, float(budget)) for row, budget in zip(gains, budgets)]
        )

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
#: budget) → BatchAllocation, where the budget is a scalar or one per row,
#: shape (n_rows,).  ``equi_snr.allocate_batch`` and
#: ``mercury.mercury_allocate_batch`` are the shipped implementations.
#: Rows must be independent: row ``b`` of the result depends only on row
#: ``b`` of the gains and its budget, bit for bit, whatever rows share the
#: call.  The row-by-row lift of :func:`_batched` satisfies this by
#: construction, and :func:`allocate_players_batch` relies on it to
#: allocate every stream of every player of a Fig-6 round in one call.
BatchStreamAllocator = Callable[[np.ndarray, object], BatchAllocation]


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
    streams.  The one-player case of :func:`allocate_players_batch`.

    A zero budget gives every stream an empty allocation (no power, no
    MCS, 0 bit/s).  A NaN, infinite or negative budget raises
    ``ValueError``.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3:
        raise ValueError("gains must have shape (n_rows, n_subcarriers, n_streams)")
    (allocation,) = allocate_players_batch(
        [gains], [total_power], [interference], [noise_mw], allocator
    )
    return allocation


def allocate_players_batch(
    gains: Sequence[np.ndarray],
    budgets: Sequence[float],
    interference: Sequence[Optional[np.ndarray]],
    noise_mw: Sequence[float],
    allocator: BatchStreamAllocator = equi_snr.allocate_batch,
) -> List[BatchStreamAllocation]:
    """:func:`allocate_single_batch` for k players in one allocator call.

    Player i has gains (n_rows, n_sc, n_streams_i), budget ``budgets[i]``,
    optional (n_rows, n_sc) ``interference[i]`` and noise floor
    ``noise_mw[i]``; its budget is split equally between its streams.
    Every player's streams are stacked stream-major into one
    (Σ n_streams_i · n_rows, n_sc) batch with per-row budgets
    ``budgets[i] / n_streams_i``, ``allocator`` runs once over it, and the
    result is split back per player and stream; row independence of
    batched allocators makes this bit-identical to one call per player
    and stream.  A zero-budget player's streams stay out of the call and
    get empty allocations (no power, no MCS, 0 bit/s).  A NaN, infinite
    or negative budget raises ``ValueError``.
    """
    for total_power in budgets:
        if total_power != 0:
            _check_budget(total_power)
    n_rows, n_sc = np.shape(gains[0])[:2]
    streams = [np.shape(player_gains)[2] for player_gains in gains]
    live = [i for i, total_power in enumerate(budgets) if total_power > 0]
    if live:
        stacked = allocator(
            np.concatenate(
                [
                    effective_gains(gains[i], interference[i], noise_mw[i])
                    .transpose(2, 0, 1)
                    .reshape(streams[i] * n_rows, n_sc)
                    for i in live
                ]
            ),
            np.concatenate([np.full(streams[i] * n_rows, budgets[i] / streams[i]) for i in live]),
        )
    empty = BatchAllocation(
        powers=np.zeros((n_rows, n_sc)),
        used=np.zeros((n_rows, n_sc), dtype=bool),
        equalized_snr=np.zeros(n_rows),
        mcs_index=np.full(n_rows, -1),
        goodput_bps=np.zeros(n_rows),
    )
    results, start = [], 0
    for i, n_streams in enumerate(streams):
        allocations = [empty] * n_streams
        if i in live:
            allocations = [
                BatchAllocation(
                    powers=stacked.powers[rows],
                    used=stacked.used[rows],
                    equalized_snr=stacked.equalized_snr[rows],
                    mcs_index=stacked.mcs_index[rows],
                    goodput_bps=stacked.goodput_bps[rows],
                )
                for rows in (
                    slice(start + s * n_rows, start + (s + 1) * n_rows) for s in range(n_streams)
                )
            ]
            start += n_streams * n_rows
        powers = np.stack([a.powers for a in allocations], axis=2)
        used = np.stack([a.used for a in allocations], axis=2)
        results.append(BatchStreamAllocation(powers=powers, used=used, per_stream=allocations))
    return results


@dataclass
class BatchConcurrentContext:
    """The Figure-6 problem of k ≥ 2 concurrent transmissions, one row per topology.

    ``gains[i]`` is player i's signal gain at its own client, shape
    (n_rows, n_sc, n_streams_i).  ``coupling[(victim, source)]`` is the
    per-antenna interference gain of the source's streams at the victim's
    client, shaped like ``gains[source]``; a missing edge means the two
    networks do not hear each other.  All gains are per unit transmit
    power.  Budgets and noise floors are per player and shared across the
    batch (the engine only batches topologies with identical
    configuration).  This is the only form of the Figure-6 problem:
    :func:`allocate_concurrent` solves a one-row context, and the
    oracle's equilibrium checks (:mod:`repro.core.oracle`) take one too.
    """

    gains: Sequence[np.ndarray]
    coupling: Dict[Tuple[int, int], np.ndarray]
    budgets: Sequence[float]
    noise_mw: Sequence[float]
    leakage_linear: float = 10.0 ** (-27.0 / 10.0)

    def __post_init__(self):
        if len(self.gains) < 2:
            raise ValueError("an interference graph needs at least two players")
        cells = np.shape(self.gains[0])[:2]
        for gains in self.gains:
            if np.ndim(gains) != 3 or np.shape(gains)[:2] != cells:
                raise ValueError("all players must share the row and subcarrier axes")
        for name, values in (("budgets", self.budgets), ("noise_mw", self.noise_mw)):
            if len(values) != self.n_players:
                raise ValueError(
                    f"{name} must hold one entry per player: {len(values)} for {self.n_players}"
                )
        for (victim, source), edge in self.coupling.items():
            if victim == source:
                raise ValueError("a player cannot interfere with itself")
            if not (0 <= victim < self.n_players and 0 <= source < self.n_players):
                raise ValueError(f"coupling ({victim}, {source}) names a missing player")
            if np.shape(edge) != np.shape(self.gains[source]):
                raise ValueError(
                    f"coupling ({victim}, {source}) must be (n_sc, n_streams_source) per row"
                )

    @property
    def n_players(self) -> int:
        return len(self.gains)

    @property
    def n_rows(self) -> int:
        return self.gains[0].shape[0]

    def interference_at(self, victim: int, radiated: Sequence[np.ndarray]) -> np.ndarray:
        """Total interference power (n_rows, n_sc) at one victim's client.

        The sources are summed in ascending order, so every row sees the
        arithmetic of its own one-row graph.
        """
        total = np.zeros(np.shape(self.gains[victim])[:2])
        for source in range(self.n_players):
            edge = self.coupling.get((victim, source))
            if edge is not None:
                total += np.sum(edge * radiated[source], axis=2)
        return total


@dataclass
class ConcurrentAllocation:
    """Joint allocation for the concurrent transmissions, one per player."""

    allocations: List[StreamAllocation]
    iterations: int
    converged: bool

    @property
    def predicted_aggregate_bps(self) -> float:
        return float(sum(a.predicted_goodput_bps for a in self.allocations))


def allocate_concurrent(
    context: BatchConcurrentContext,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator: StreamAllocator = equi_snr.allocate,
    collector=None,
) -> ConcurrentAllocation:
    """Run the Figure-6 iteration on a one-row context and return the best allocation found.

    ``collector`` (a :class:`repro.obs.Collector`) records how hard the
    iteration worked: a histogram of iteration counts and convergence
    counters — the §3.2.1 telemetry the observability layer surfaces.
    The one-row case of :func:`allocate_concurrent_batch`; a context of
    any other row count raises ``ValueError``.
    """
    if context.n_rows != 1:
        raise ValueError(f"allocate_concurrent takes a one-row context, got {context.n_rows} rows")
    allocations, iterations, converged = allocate_concurrent_batch(
        context, max_iterations, tolerance, _batched(allocator), collector
    )
    return ConcurrentAllocation(
        allocations=[allocation.row(0) for allocation in allocations],
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
    )


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

    Synchronous best-response dynamics over the k players: every player
    starts assuming the others spread their power equally, then each
    iteration re-runs Algorithm 1 for every player against the
    interference implied by the others' last radiated powers, leakage
    included.  The k best responses of a round do not depend on each
    other, so a round makes one allocator call over every stream of every
    player and row (:func:`allocate_players_batch`) and one
    :func:`radiated_powers_batch` pass over all of their columns.

    Returns ``(allocations, iterations, converged)`` where ``allocations``
    is a list of k :class:`BatchStreamAllocation` (one per player) holding
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
    players = range(context.n_players)

    # Step 1: the other senders are assumed to spread power equally.
    radiated = [
        np.full(gains.shape, budget / (gains.shape[2] * n_sc))
        for gains, budget in zip(context.gains, context.budgets)
    ]

    best: Optional[List[BatchStreamAllocation]] = None
    best_aggregate = np.zeros(n_rows)
    previous_powers: Optional[List[np.ndarray]] = None
    active = np.ones(n_rows, dtype=bool)
    converged = np.zeros(n_rows, dtype=bool)
    iterations = np.zeros(n_rows, dtype=int)

    for iteration in range(1, max_iterations + 1):
        iterations = np.where(active, iteration, iterations)
        allocations = allocate_players_batch(
            context.gains,
            context.budgets,
            [context.interference_at(i, radiated) for i in players],
            context.noise_mw,
            allocator,
        )
        aggregate = np.zeros(n_rows)
        for allocation in allocations:
            aggregate = aggregate + allocation.predicted_goodput_bps()
        if best is None:
            best = allocations
            best_aggregate = aggregate
        else:
            improved = active & (aggregate > best_aggregate)
            best = [_merge_batch_stream(allocations[i], best[i], improved) for i in players]
            best_aggregate = np.where(improved, aggregate, best_aggregate)

        every_stream = radiated_powers_batch(
            np.concatenate([allocation.powers for allocation in allocations], axis=2),
            np.concatenate([allocation.used for allocation in allocations], axis=2),
            context.leakage_linear,
        )
        splits = np.cumsum([allocation.n_streams for allocation in allocations])[:-1]
        new_radiated = [
            np.ascontiguousarray(part) for part in np.split(every_stream, splits, axis=2)
        ]
        if previous_powers is not None:
            scale = sum(context.budgets)
            change = np.zeros(n_rows)
            for i in players:
                change = change + np.abs(new_radiated[i] - previous_powers[i]).reshape(
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
                np.where(active[:, None, None], new_radiated[i], previous_powers[i])
                for i in players
            ]
            radiated = [
                np.where(active[:, None, None], new_radiated[i], radiated[i]) for i in players
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
