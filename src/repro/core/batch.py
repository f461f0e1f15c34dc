"""The COPA strategy engine (§3.3, Figure 8) for a batch of topologies.

:class:`BatchedStrategyEngine` is the one implementation of the strategy
menu: it builds the transmit designs, allocates power, measures and
predicts every scheme's throughput and makes the COPA and COPA-fair
choices for B channel realizations of a cluster of k ≥ 1 (AP, client)
pairs at once.  :class:`repro.core.strategy.StrategyEngine` is a one-row
call of it; :func:`run_batch` evaluates a homogeneous group of runner
tasks as B rows.

The rows are stacked into ``(B, n_sc, n_rx, n_tx)`` channel tensors,
flattened to ``(B * n_sc, n_rx, n_tx)`` so the per-subcarrier gufunc
kernels in :mod:`repro.phy.mimo` evaluate every topology in single NumPy
calls.  A row's result never depends on which rows share its batch, bit
for bit:

* NumPy's batched linalg (``svd``, ``solve``, ``matmul``) are per-2D-slice
  gufuncs — stacking more slices never changes a slice's result;
* elementwise ufuncs are value-wise, so a leading batch axis is free;
* the only order-sensitive reductions (masked means/sums in the
  allocators and rate model) go through
  :func:`repro.util.masked_row_apply`, which replicates the one-row
  pairwise-summation grouping exactly.

The cluster size k shapes the menu.  Nulling designs null the stacked
antennas of every other client; sequential schemes give each client 1/k
of the airtime; SDA (§3.4) is a two-AP protocol and runs only at k = 2;
a lone AP (k = 1) is offered CSMA and COPA-SEQ only.  The Figure-6
concurrent allocation is one batched call of
:func:`~repro.core.equi_sinr.allocate_concurrent_batch` over the k
players of all B rows, whatever k.

Any per-stream allocator and rate selector works.  Equi-SNR, mercury
and ``best_rate`` are one-row calls of their batched forms, which the
engine runs directly (:data:`BATCHED_ALLOCATORS`, ``best_rate_batch``).
Any other callable (an ablation allocator, ``per_subcarrier_rates``, a
user's) is lifted — called once per row, keeping each row's returned
object.

The engine starts from measured CSI (:func:`measure_csi`), so its caller
owns the randomness: :func:`run_batch` measures each row from the task
seed alone, ``StrategyEngine`` with the caller's generator.

Every runner task goes through :func:`run_batch`, alone or in a group,
under every cluster policy.  A task becomes one row per coordination
cluster (:mod:`repro.core.clustering`): the default ``"fixed"`` policy
is one cluster of all N APs, so k = N here; a topology that the
``"threshold"`` or ``"greedy"`` policy splits gives one row per cluster,
whose outcomes :func:`repro.core.ncell.combine_clusters` stitches back
together.

Observability is batch-granular: one ``engine.run`` span covers all B
rows, every span the engine opens carries ``rows=B``, and counters are
incremented in bulk with the same totals as B one-row runs.

An engine evaluates the allocator-independent half of the menu once:
the designs, their stream gains and Figure-6 contexts, and the
equal-power CSMA and Null schemes.  A second :meth:`~BatchedStrategyEngine.run`
with another allocator (the COPA+ pass) reuses them, so its
``engine.run`` span has no ``design``, ``scheme:csma`` or ``scheme:null``
child.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mac.timing import MacOverheadModel
from ..obs.collector import Collector, active
from ..phy.channel import ChannelSet
from ..phy.constants import TX_POWER_DBM
from ..phy.mimo import (
    interference_covariance,
    max_nulled_streams,
    mmse_sinr,
    nulling_precoder,
    svd_beamformer,
    tx_noise_covariance,
)
from ..phy.noise import ImperfectionModel
from ..phy.rates import best_rate, best_rate_batch
from ..util import dbm_to_mw
from . import equi_snr, mercury
from .clustering import DEFAULT_CLUSTER_POLICY, form_clusters
from .equi_sinr import (
    BATCHED_ALLOCATORS,
    BatchConcurrentContext,
    BatchStreamAllocation,
    StreamAllocator,
    allocate_concurrent_batch,
    allocate_single_batch,
    _batched,
    radiated_powers_batch,
)
from .ncell import combine_clusters, restrict_channels
from .strategy import (
    SCHEME_CONC_BF,
    SCHEME_CONC_NULL,
    SCHEME_CONC_SDA,
    SCHEME_COPA_SEQ,
    SCHEME_CSMA,
    SCHEME_NULL,
    SchemeResult,
    StrategyOutcome,
    average_results,
    choose_scheme,
)

__all__ = [
    "BATCHED_ALLOCATORS",
    "BatchDesign",
    "BatchedStrategyEngine",
    "batchable",
    "group_key",
    "measure_csi",
    "partition_tasks",
    "run_batch",
]

# ---------------------------------------------------------------------------
# Task partitioning (duck-typed over repro.sim.runner.TopologyTask so the
# core layer never imports the sim layer).
# ---------------------------------------------------------------------------


def batchable(task) -> bool:
    """Can this task join a batched engine dispatch?

    Two kinds of task run on their own: one with a fault armed for its
    ``(index, attempt)`` (an unarmed plan fires nothing, so its task
    batches beside clean ones), and one whose links differ in shape, as
    when its APs or clients differ in antenna count (the stacked tensors
    need one shape).  Every other task batches, whatever its AP count,
    cluster policy, allocator, rate selector or observation.
    """
    plan = getattr(task, "fault_plan", None)
    if plan is not None and plan.active(task.index, task.attempt) is not None:
        return False
    channels = task.channels
    aps, clients = channels.topology.aps, channels.topology.clients
    shape = (channels.n_subcarriers, clients[0].n_antennas, aps[0].n_antennas)
    return all(channels.channel(ap.name, c.name).shape == shape for ap in aps for c in clients)


def group_key(task) -> tuple:
    """Everything that must match for two tasks to share one engine batch."""
    topology = task.channels.topology
    return (
        len(topology.aps),
        topology.aps[0].n_antennas,
        topology.clients[0].n_antennas,
        task.channels.n_subcarriers,
        float(task.channels.noise_floor_mw),
        float(task.coherence_s),
        task.imperfections,
        bool(task.include_copa_plus),
        task.options,
    )


def partition_tasks(tasks: Sequence, max_batch: Optional[int] = None):
    """Split tasks into batchable groups and per-task leftovers.

    Returns ``(batches, singles)``: ``batches`` is a list of task lists,
    each homogeneous under :func:`group_key` (and split into runs of at
    most ``max_batch`` when given); ``singles`` holds every task that
    :func:`batchable` sends to a unit of its own.  Together they cover the
    input exactly once; callers reassemble results by task index.
    """
    singles: List = []
    keyed: Dict[tuple, List] = {}
    order: List[tuple] = []
    for task in tasks:
        if not batchable(task):
            singles.append(task)
            continue
        key = group_key(task)
        if key not in keyed:
            keyed[key] = []
            order.append(key)
        keyed[key].append(task)
    batches: List[List] = []
    for key in order:
        group = keyed[key]
        size = len(group) if max_batch is None else max(1, int(max_batch))
        for start in range(0, len(group), size):
            batches.append(group[start : start + size])
    return batches, singles


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------


def measure_csi(
    channels: ChannelSet, imperfections: ImperfectionModel, rng: np.random.Generator
) -> Dict[Tuple[int, int], np.ndarray]:
    """What the APs know: noisy CSI of every (AP, client) link (§3.1).

    Keyed by (AP index, client index) and drawn from ``rng`` in nested
    AP-then-client order, once per coherence interval.
    """
    topology = channels.topology
    return {
        (i, j): channels.measured_csi(ap.name, client.name, imperfections, rng)
        for i, ap in enumerate(topology.aps)
        for j, client in enumerate(topology.clients)
    }


@dataclasses.dataclass
class BatchDesign:
    """One AP's transmit design for every row of a batch.

    The batched :class:`~repro.core.precoding.TransmissionDesign`:
    ``precoder`` is flattened over (B, n_sc); ``active_rx`` is ``None``
    for all-antennas designs or a (B, n_active) index array (SDA keeps a
    different antenna per topology).
    """

    #: AP index within the cluster.
    ap: int
    #: Client index within the cluster.
    client: int
    #: (B * n_sc, n_tx, n_streams) unit-column precoders.
    precoder: np.ndarray
    active_rx: Optional[np.ndarray] = None

    @property
    def n_streams(self) -> int:
        return self.precoder.shape[2]


class BatchedStrategyEngine:
    """Evaluates the strategy menu for B channel realizations of one cluster.

    ``channels`` holds the B topologies' true channels, all with the same
    k (AP, client) pairs and antenna counts; ``csi`` the matching
    :func:`measure_csi` results.  The other parameters are
    :class:`~repro.core.strategy.StrategyEngine`'s.  :meth:`run` returns
    one :class:`StrategyOutcome` per row.
    """

    def __init__(
        self,
        channels: Sequence[ChannelSet],
        csi: Sequence[Dict[Tuple[int, int], np.ndarray]],
        imperfections: Optional[ImperfectionModel] = None,
        overhead_model: Optional[MacOverheadModel] = None,
        coherence_s: float = 0.030,
        tx_power_dbm: float = TX_POWER_DBM,
        allocator: StreamAllocator = equi_snr.allocate,
        max_iterations: int = 8,
        rate_selector=best_rate,
        collector: Optional[Collector] = None,
        oracle_check: bool = False,
    ):
        channels = list(channels)
        if not channels or len(csi) != len(channels):
            raise ValueError("BatchedStrategyEngine needs one CSI measurement per topology")
        self.channels = channels
        self.collector = active(collector)
        self.imperfections = imperfections if imperfections is not None else ImperfectionModel()
        self.overhead_model = overhead_model if overhead_model is not None else MacOverheadModel()
        self.overheads = self.overhead_model.overheads(coherence_s)
        self.tx_power_mw = float(dbm_to_mw(tx_power_dbm))
        self.allocator = allocator
        self.max_iterations = max_iterations
        self.rate_selector = rate_selector
        self.oracle_check = oracle_check
        self.noise_floor_mw = float(channels[0].noise_floor_mw)

        topology = channels[0].topology
        self.k = len(topology.aps)
        self.n_tx = topology.aps[0].n_antennas
        self.n_rx = topology.clients[0].n_antennas
        self.n_sc = csi[0][(0, 0)].shape[0]
        self.B = len(channels)

        # Stacked channels, keyed by (AP index, client index).
        self.csi: Dict[Tuple[int, int], np.ndarray] = {
            link: np.stack([row[link] for row in csi]) for link in csi[0]
        }
        self.true: Dict[Tuple[int, int], np.ndarray] = {
            (i, j): np.stack(
                [
                    c.channel(c.topology.aps[i].name, c.topology.clients[j].name)
                    for c in channels
                ]
            )
            for i, j in csi[0]
        }
        # The allocator-independent half of the menu, filled by the first run.
        self._fixed: Dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # channel access
    # ------------------------------------------------------------------

    def _flat(self, array: np.ndarray) -> np.ndarray:
        """(B, n_sc, ...) → (B * n_sc, ...): feed the per-slice gufuncs."""
        return array.reshape((array.shape[0] * array.shape[1],) + array.shape[2:])

    def _gather(
        self, link: Tuple[int, int], active_rx: Optional[np.ndarray], true_channel: bool
    ) -> np.ndarray:
        """Channel restricted to the active receive antennas, per row."""
        source = self.true[link] if true_channel else self.csi[link]
        if active_rx is None:
            return source
        index = np.asarray(active_rx)[:, None, :, None]
        return np.take_along_axis(source, index, axis=2)

    def _others(self, i: int) -> List[int]:
        return [j for j in range(self.k) if j != i]

    # ------------------------------------------------------------------
    # design construction (from CSI — what the APs can actually compute)
    # ------------------------------------------------------------------

    def beamforming_designs(self) -> List[BatchDesign]:
        """SVD transmit beamforming toward each AP's own client."""
        n_streams = min(self.n_rx, self.n_tx)
        return [
            BatchDesign(
                ap=i, client=i, precoder=svd_beamformer(self._flat(self.csi[(i, i)]), n_streams)
            )
            for i in range(self.k)
        ]

    def nulling_designs(self) -> List[BatchDesign]:
        """Each AP nulls every other client's stacked antennas, full or reduced rank."""
        limit = max_nulled_streams(self.n_tx, self.n_rx, self._victim_antennas())
        designs = []
        for i in range(self.k):
            victims = np.concatenate([self.csi[(i, j)] for j in self._others(i)], axis=2)
            precoder = nulling_precoder(self._flat(self.csi[(i, i)]), self._flat(victims), limit)
            designs.append(BatchDesign(ap=i, client=i, precoder=precoder))
        return designs

    def sda_designs(self, leader: int) -> List[BatchDesign]:
        """§3.4's shut-down-antenna designs with AP ``leader`` leading (k = 2).

        The follower's client keeps only its strongest antenna (by CSI
        power); the leader nulls that one antenna at full rank while the
        follower sends a reduced-rank transmission nulled at all of the
        leader client's antennas.  Index order is [AP1, AP2].
        """
        follower = 1 - leader
        follower_own = self.csi[(follower, follower)]
        # Per-row strongest antenna, reduced over each row's contiguous slice.
        keep = np.array(
            [
                int(np.argmax(np.sum(np.abs(follower_own[b]) ** 2, axis=(0, 2))))
                for b in range(self.B)
            ]
        )
        keep_rx = keep[:, None]
        leader_precoder = nulling_precoder(
            self._flat(self.csi[(leader, leader)]),
            self._flat(self._gather((leader, follower), keep_rx, False)),
            max_nulled_streams(self.n_tx, self.n_rx, 1),
        )
        follower_precoder = nulling_precoder(
            self._flat(self._gather((follower, follower), keep_rx, False)),
            self._flat(self.csi[(follower, leader)]),
            max_nulled_streams(self.n_tx, 1, self.n_rx),
        )
        pair: List[Optional[BatchDesign]] = [None, None]
        pair[leader] = BatchDesign(ap=leader, client=leader, precoder=leader_precoder)
        pair[follower] = BatchDesign(
            ap=follower, client=follower, precoder=follower_precoder, active_rx=keep_rx
        )
        return pair  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # gains and coupling (batched precoding.stream_gains / cross_coupling)
    # ------------------------------------------------------------------

    def _stream_gains(self, design: BatchDesign) -> np.ndarray:
        channel = self._flat(self._gather((design.ap, design.client), design.active_rx, False))
        effective = np.matmul(channel, design.precoder)
        gains = np.sum(np.abs(effective) ** 2, axis=1)
        return gains.reshape(self.B, self.n_sc, design.n_streams)

    def _coupling(self, designs: Sequence[BatchDesign], victim: int, source: int) -> np.ndarray:
        """Interference gain of ``source``'s streams at ``victim``'s client.

        Mean received power per active victim antenna and unit transmit
        power, plus the residual floor: nulls computed from noisy CSI
        bottom out at the estimation error, and the allocator must plan
        for it (§2.2).
        """
        design = designs[source]
        channel = self._flat(self._gather((source, victim), designs[victim].active_rx, False))
        effective = np.matmul(channel, design.precoder)
        coupled = np.sum(np.abs(effective) ** 2, axis=1) / effective.shape[1]
        coupled = coupled.reshape(self.B, self.n_sc, design.n_streams)
        entry_power = (np.abs(self.csi[(source, victim)]) ** 2).reshape(self.B, -1).mean(axis=1)
        residual = self.imperfections.csi_error_linear * entry_power
        return coupled + residual[:, None, None]

    def concurrent_context(self, designs: Sequence[BatchDesign]) -> BatchConcurrentContext:
        """Every row's Figure-6 problem under ``designs``, from CSI.

        Player i carries its stream gains and edge (victim, source) the
        source's coupling at the victim, for every ordered pair.
        """
        return BatchConcurrentContext(
            gains=[self._stream_gains(design) for design in designs],
            coupling={
                (victim, source): self._coupling(designs, victim, source)
                for victim in range(self.k)
                for source in self._others(victim)
            },
            budgets=[self.tx_power_mw] * self.k,
            noise_mw=[self.noise_floor_mw] * self.k,
            leakage_linear=self.imperfections.carrier_leakage_linear,
        )

    # ------------------------------------------------------------------
    # power allocation
    # ------------------------------------------------------------------

    def equal_allocation(self, design: BatchDesign) -> BatchStreamAllocation:
        """Status-quo 802.11: the power budget spread evenly everywhere."""
        n_s = design.n_streams
        powers = np.full((self.B, self.n_sc, n_s), self.tx_power_mw / (n_s * self.n_sc))
        used = np.ones((self.B, self.n_sc, n_s), dtype=bool)
        return BatchStreamAllocation(powers=powers, used=used, per_stream=[])

    def _sequential_allocation(
        self, gains: np.ndarray, allocator: StreamAllocator
    ) -> BatchStreamAllocation:
        """Equi-SNR (Algorithm 1) per stream of one design's ``gains``, no
        concurrent interference."""
        allocation = allocate_single_batch(
            gains, self.tx_power_mw, noise_mw=self.noise_floor_mw, allocator=_batched(allocator)
        )
        if self.oracle_check:
            # Shadow mode: record agreement, never fail the engine.  The
            # concurrent path is covered offline by the differential
            # harness (repro.core.differential), whose problems are exactly
            # reproducible.
            from .oracle import shadow_check_single

            collector = self.collector if self.collector.enabled else None
            for b in range(self.B):
                shadow_check_single(
                    gains[b],
                    self.tx_power_mw,
                    allocation.row(b),
                    allocator,
                    noise_mw=self.noise_floor_mw,
                    collector=collector,
                )
        return allocation

    def concurrent_allocation(
        self, context: BatchConcurrentContext, allocator: Optional[StreamAllocator] = None
    ) -> List[BatchStreamAllocation]:
        """The Fig. 6 iterative Equi-SINR joint allocation of every row of
        ``context`` (a :meth:`concurrent_context`).

        ``allocator`` defaults to the engine's.  The k players of all B
        rows iterate in one batched call, whatever k.
        """
        allocator = allocator if allocator is not None else self.allocator
        allocations, _, _ = allocate_concurrent_batch(
            context,
            max_iterations=self.max_iterations,
            allocator=_batched(allocator),
            collector=self.collector if self.collector.enabled else None,
        )
        return allocations

    def _note_allocations(self, allocations: Sequence[BatchStreamAllocation]) -> None:
        """Feed dropped-subcarrier counts from Algorithm 1 into the metrics."""
        if not self.collector.enabled:
            return
        streams = 0
        dropped = 0
        for allocation in allocations:
            streams += self.B * len(allocation.per_stream)
            for stream in allocation.per_stream:
                dropped += int(stream.n_dropped().sum())
        self.collector.inc("alloc.streams", streams)
        self.collector.inc("alloc.dropped_subcarriers", dropped)

    # ------------------------------------------------------------------
    # throughput evaluation
    # ------------------------------------------------------------------

    def _rate_of(
        self,
        receiver: int,
        designs: Sequence[BatchDesign],
        allocations: Sequence[BatchStreamAllocation],
        concurrent: bool,
        true_channel: bool,
    ) -> list:
        """Each row's rate selection for client ``receiver`` under one scheme."""
        design = designs[receiver]
        alloc = allocations[receiver]
        n_s = design.n_streams
        n_flat = self.B * self.n_sc
        leakage = self.imperfections.carrier_leakage_linear
        evm = self.imperfections.tx_evm_linear

        h_own = self._flat(
            self._gather((design.ap, design.client), design.active_rx, true_channel)
        )
        n_active = h_own.shape[1]
        effective = np.matmul(h_own, design.precoder)
        data_powers = np.where(alloc.used, alloc.powers, 0.0).reshape(n_flat, n_s)
        own_radiated = radiated_powers_batch(alloc.powers, alloc.used, leakage).reshape(
            n_flat, n_s
        )

        covariance = self.noise_floor_mw * np.broadcast_to(
            np.eye(n_active, dtype=complex), (n_flat, n_active, n_active)
        ).copy()
        # Own transmitter's EVM noise reaches the own client too.
        covariance += tx_noise_covariance(h_own, own_radiated.sum(axis=1), evm)
        interferers = self._others(receiver) if concurrent else []
        for other_index in interferers:
            other = designs[other_index]
            other_alloc = allocations[other_index]
            other_radiated = radiated_powers_batch(
                other_alloc.powers, other_alloc.used, leakage
            ).reshape(n_flat, other.n_streams)
            h_cross_rows = self._gather((other.ap, design.client), design.active_rx, true_channel)
            h_cross = self._flat(h_cross_rows)
            eff_cross = np.matmul(h_cross, other.precoder)
            covariance += interference_covariance(eff_cross, other_radiated)
            covariance += tx_noise_covariance(h_cross, other_radiated.sum(axis=1), evm)
            if not true_channel:
                # Prediction mode: through its own CSI the other AP's nulls
                # look infinitely deep, but the AP knows its null depth is
                # limited by CSI estimation error (§2.2): add the expected
                # residual, error variance × total power per victim antenna.
                # Each row's entry power is a mean over its active-antenna
                # slice in (rx, sc, tx) order — the order a one-row fancy
                # index lays that slice out in memory.
                cross_power = np.abs(h_cross_rows) ** 2
                entry_power = (
                    cross_power.transpose(0, 2, 1, 3).reshape(self.B, -1).mean(axis=1)
                )
                residual = (
                    self.imperfections.csi_error_linear
                    * np.repeat(entry_power, self.n_sc)
                    * other_radiated.sum(axis=1)
                )
                covariance += residual[:, None, None] * np.eye(n_active)[None, :, :]

        sinr = mmse_sinr(effective, data_powers, covariance).reshape(self.B, self.n_sc, n_s)
        if self.rate_selector is best_rate:
            selection = best_rate_batch(sinr, used=alloc.used)
            return [selection.row(b) for b in range(self.B)]
        return [self.rate_selector(sinr[b], used=alloc.used[b]) for b in range(self.B)]

    def _scheme_rows(
        self,
        name: str,
        designs: Sequence[BatchDesign],
        allocations: Sequence[BatchStreamAllocation],
        concurrent: bool,
        overhead: float,
        true_channel: bool,
    ) -> List[SchemeResult]:
        rates = [
            self._rate_of(i, designs, allocations, concurrent, true_channel)
            for i in range(self.k)
        ]
        factor = self.overhead_model.net_throughput_factor(overhead)

        def throughput(rate) -> float:
            if concurrent:
                return rate.goodput_bps * factor
            # Sequential senders take turns: each client's airtime share is
            # 1/k over the k transmitters (1/2 in the paper's topologies).
            return rate.goodput_bps * factor / float(self.k)

        return [
            SchemeResult(
                name=name,
                concurrent=concurrent,
                client_throughput_bps=tuple(throughput(r[b]) for r in rates),
                rates=tuple(r[b] for r in rates),
                allocations=tuple(a.row(b) for a in allocations),
            )
            for b in range(self.B)
        ]

    def _both(self, name, designs, allocations, concurrent, overhead):
        """(measured, predicted) result rows of one scheme."""
        col = self.collector
        with col.span("measure", scheme=str(name), rows=self.B):
            actual = self._scheme_rows(name, designs, allocations, concurrent, overhead, True)
        with col.span("predict", scheme=str(name), rows=self.B):
            predicted = self._scheme_rows(name, designs, allocations, concurrent, overhead, False)
        if col.enabled:
            col.inc(f"engine.scheme.{name}", self.B)
            for result in actual:
                col.observe(f"scheme.{name}.measured_mbps", result.aggregate_mbps)
        return actual, predicted

    # ------------------------------------------------------------------
    # the allocator-independent half of the menu, once per engine
    # ------------------------------------------------------------------

    def _once(self, key: tuple, compute):
        """``compute()`` on this engine's first request for ``key``; that
        same result on every later one (see :meth:`run`)."""
        if key not in self._fixed:
            self._fixed[key] = compute()
        return self._fixed[key]

    def _design_set(
        self, key: tuple, build
    ) -> Tuple[List[BatchDesign], Optional[BatchConcurrentContext]]:
        """Design set ``key`` = (kind, ...) from ``build()`` and, at k ≥ 2,
        its Figure-6 context."""

        def compute():
            with self.collector.span("design", kind=key[0], rows=self.B):
                designs = build()
            return designs, (self.concurrent_context(designs) if self.k >= 2 else None)

        return self._once(("design",) + key, compute)

    def _equal_power(
        self, name: str, key: tuple, designs: Sequence[BatchDesign], concurrent: bool, overhead
    ) -> Tuple[List[SchemeResult], List[SchemeResult]]:
        """(measured, predicted) rows of equal-power scheme ``name`` on
        design set ``key``."""

        def evaluate():
            with self.collector.span(f"scheme:{name}", rows=self.B):
                with self.collector.span("allocate", rows=self.B):
                    equal = [self.equal_allocation(d) for d in designs]
                return self._both(name, designs, equal, concurrent, overhead)

        return self._once(("scheme", name) + key, evaluate)

    # ------------------------------------------------------------------
    # scheme menu
    # ------------------------------------------------------------------

    def _victim_antennas(self) -> int:
        return (self.k - 1) * self.n_rx

    def _full_nulling_feasible(self) -> bool:
        """Can each AP send full rank while nulling every victim antenna?"""
        full_rank = min(self.n_tx, self.n_rx)
        return (
            self.k >= 2
            and max_nulled_streams(self.n_tx, self.n_rx, self._victim_antennas()) >= full_rank
        )

    def _reduced_nulling_feasible(self) -> bool:
        return (
            self.k >= 2 and max_nulled_streams(self.n_tx, self.n_rx, self._victim_antennas()) >= 1
        )

    def _sda_applicable(self) -> bool:
        """SDA helps a pair when full nulling is overconstrained but shutting
        one victim antenna restores enough degrees of freedom (§3.4).

        Both roles must be feasible: the leader nulls the follower client's
        single remaining antenna, *and* the follower (reduced rank) must
        still null all of the leader client's antennas — so e.g. two
        2-antenna APs with 2-antenna clients cannot use SDA.
        """
        if self.k != 2 or self._full_nulling_feasible() or self.n_rx < 2:
            return False
        leader_ok = max_nulled_streams(self.n_tx, self.n_rx, 1) >= 1
        follower_ok = max_nulled_streams(self.n_tx, 1, self.n_rx) >= 1
        return leader_ok and follower_ok

    def _concurrent(
        self,
        name: str,
        designs: Sequence[BatchDesign],
        context: BatchConcurrentContext,
        allocator: StreamAllocator,
    ) -> Tuple[List[SchemeResult], List[SchemeResult]]:
        """(measured, predicted) rows of a Figure-6 allocated scheme."""
        with self.collector.span(f"scheme:{name}", rows=self.B):
            with self.collector.span("allocate", rows=self.B):
                allocations = self.concurrent_allocation(context, allocator)
            self._note_allocations(allocations)
            return self._both(name, designs, allocations, True, self.overheads.copa_concurrent)

    def run(self, allocator: Optional[StreamAllocator] = None) -> List[StrategyOutcome]:
        """Evaluate the full menu for every row; one outcome per row.

        ``allocator`` overrides the engine's per-stream allocator for this
        run (:func:`run_batch`'s COPA+ mercury pass reuses the measured
        CSI this way).

        Half of the menu does not depend on the allocator: the transmit
        designs with their stream gains and Figure-6 contexts, and the
        equal-power schemes (CSMA, vanilla Null and each leader role's
        Null+SDA baseline) with their measured and predicted rates.  The
        engine's first run evaluates that half and every later run reuses
        it, bit for bit: it depends only on the engine's channels and CSI,
        a run draws no randomness, and a :class:`SchemeResult` is frozen.
        A later run evaluates only the allocated schemes (COPA-SEQ,
        conc_bf, conc_null, conc_sda), so its ``engine.run`` span has no
        ``design`` child, no ``scheme:csma`` or ``scheme:null`` span and
        no ``engine.scheme.*`` count of those two schemes.
        """
        allocator = allocator if allocator is not None else self.allocator
        schemes_rows: List[Dict[str, SchemeResult]] = [{} for _ in range(self.B)]
        predictions_rows: List[Dict[str, SchemeResult]] = [{} for _ in range(self.B)]
        ovh = self.overheads
        col = self.collector

        def store(name, both):
            actual, predicted = both
            for b in range(self.B):
                schemes_rows[b][name] = actual[b]
                predictions_rows[b][name] = predicted[b]

        with col.span(
            "engine.run",
            allocator=getattr(allocator, "__name__", str(allocator)),
            antennas=f"{self.n_tx}x{self.n_rx}",
            rows=self.B,
        ):
            bf, bf_context = self._design_set(("beamforming",), self.beamforming_designs)
            store(
                SCHEME_CSMA,
                self._equal_power(SCHEME_CSMA, ("beamforming",), bf, False, ovh.csma),
            )

            gains = self._once(
                ("gains", "beamforming"), lambda: [self._stream_gains(d) for d in bf]
            )
            with col.span(f"scheme:{SCHEME_COPA_SEQ}", rows=self.B):
                with col.span("allocate", rows=self.B):
                    seq_alloc = [self._sequential_allocation(g, allocator) for g in gains]
                self._note_allocations(seq_alloc)
                store(
                    SCHEME_COPA_SEQ,
                    self._both(SCHEME_COPA_SEQ, bf, seq_alloc, False, ovh.copa_sequential),
                )

            if self.k >= 2:
                store(SCHEME_CONC_BF, self._concurrent(SCHEME_CONC_BF, bf, bf_context, allocator))

            if self._reduced_nulling_feasible():
                null_designs, null_context = self._design_set(("nulling",), self.nulling_designs)
                if self._full_nulling_feasible():
                    # Vanilla nulling baseline: equal power, no selection.
                    store(
                        SCHEME_NULL,
                        self._equal_power(
                            SCHEME_NULL, ("nulling",), null_designs, True, ovh.copa_concurrent
                        ),
                    )
                store(
                    SCHEME_CONC_NULL,
                    self._concurrent(SCHEME_CONC_NULL, null_designs, null_context, allocator),
                )

            if self._sda_applicable():
                roles = []
                for leader in range(2):
                    with col.span("sda.role", leader=leader, rows=self.B):
                        key = ("sda", leader)
                        designs, context = self._design_set(key, lambda: self.sda_designs(leader))
                        # Vanilla Null+SDA baseline (equal power)...
                        baseline = self._equal_power(
                            SCHEME_NULL, key, designs, True, ovh.copa_concurrent
                        )
                        # ...and COPA's allocated SDA strategy.
                        allocated = self._concurrent(SCHEME_CONC_SDA, designs, context, allocator)
                    roles.append((baseline, allocated))
                # Reported as the average over the two leader roles.
                for b in range(self.B):
                    for index, name in enumerate((SCHEME_NULL, SCHEME_CONC_SDA)):
                        schemes_rows[b][name] = average_results(
                            name, [role[index][0][b] for role in roles]
                        )
                        predictions_rows[b][name] = average_results(
                            name, [role[index][1][b] for role in roles]
                        )

            with col.span("choose", rows=self.B):
                copa = [choose_scheme(predictions_rows[b], fair=False) for b in range(self.B)]
                fair = [choose_scheme(predictions_rows[b], fair=True) for b in range(self.B)]
            if col.enabled:
                col.inc("engine.runs", self.B)
                for choice in copa:
                    col.inc(f"engine.choice.{choice}")
                for choice in fair:
                    col.inc(f"engine.fair_choice.{choice}")

        return [
            StrategyOutcome(
                schemes=schemes_rows[b],
                predictions=predictions_rows[b],
                copa_choice=copa[b],
                copa_fair_choice=fair[b],
            )
            for b in range(self.B)
        ]


def run_batch(
    tasks: Sequence, collector: Optional[Collector] = None
) -> List[Tuple[StrategyOutcome, Optional[StrategyOutcome]]]:
    """Evaluate a homogeneous task group; returns (outcome, plus_outcome) pairs.

    Each task becomes one engine row per coordination cluster, formed by
    :func:`~repro.core.clustering.form_clusters` under the tasks' policy.
    A task of one cluster is one row on its own channels, its CSI
    measured with a fresh ``default_rng(task.seed)``.  A split task's
    cluster ``c`` is a row on :func:`~repro.core.ncell.restrict_channels`,
    measured with child seed ``c`` of ``default_rng(task.seed)``, and
    :func:`~repro.core.ncell.combine_clusters` stitches its rows back
    into one :class:`~repro.core.ncell.GraphStrategyOutcome`.  Rows of
    one cluster size run as one engine call; a row's result does not
    depend on its neighbours, so a task's result does not depend on the
    group it runs in, and a group of one is the runner's per-topology
    evaluation.  The COPA+ pass is a second run of the same engine with
    mercury's allocator: it reuses each row's CSI (a re-measurement would
    draw the identical estimate) and the allocator-independent half of
    the menu (see :meth:`BatchedStrategyEngine.run`), so it evaluates
    only COPA-SEQ, conc_bf, conc_null and conc_sda.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("run_batch needs at least one task")
    key = group_key(tasks[0])
    if any(group_key(task) != key for task in tasks[1:]):
        raise ValueError("tasks are not homogeneous; partition with partition_tasks() first")
    first = tasks[0]
    imperfections = first.imperfections if first.imperfections is not None else ImperfectionModel()
    policy = first.options.cluster_policy or DEFAULT_CLUSTER_POLICY
    clusterings = [
        form_clusters(task.channels.topology, policy, first.options.cluster_threshold_db)
        for task in tasks
    ]
    col = active(collector)
    if col.enabled:
        col.inc("engine.ncell.runs", len(tasks))
        for clusters in clusterings:
            col.observe("engine.ncell.clusters", len(clusters))

    # Rows keyed by cluster size: (task position, cluster position, channels, CSI).
    rows: Dict[int, List[tuple]] = {}
    seeds: List[Tuple[int, ...]] = []
    for t, (task, clusters) in enumerate(zip(tasks, clusterings)):
        if len(clusters) == 1:
            seeds.append(())
            members = [(task.channels, np.random.default_rng(task.seed))]
        else:
            # Independent child streams per cluster, derived from the task
            # seed in cluster order.
            drawn = np.random.default_rng(task.seed).integers(0, 2**63 - 1, size=len(clusters))
            seeds.append(tuple(int(seed) for seed in drawn))
            members = [
                (restrict_channels(task.channels, cluster), np.random.default_rng(seed))
                for cluster, seed in zip(clusters, seeds[-1])
            ]
        for c, (channels, rng) in enumerate(members):
            rows.setdefault(len(channels.topology.aps), []).append(
                (t, c, channels, measure_csi(channels, imperfections, rng))
            )

    outcomes = [[None] * len(clusters) for clusters in clusterings]
    plus = [[None] * len(clusters) for clusters in clusterings]
    for group in rows.values():
        engine = BatchedStrategyEngine(
            [row[2] for row in group],
            [row[3] for row in group],
            imperfections=imperfections,
            coherence_s=first.coherence_s,
            collector=collector,
            **first.options.engine_kwargs(),
        )
        passes = [(outcomes, None)]
        if first.include_copa_plus:
            passes.append((plus, mercury.mercury_allocate))
        for table, allocator in passes:
            for (t, c, _, _), outcome in zip(group, engine.run(allocator=allocator)):
                table[t][c] = outcome

    def combined(t: int, per_cluster: list):
        if per_cluster[0] is None or len(per_cluster) == 1:
            return per_cluster[0]
        return combine_clusters(clusterings[t], per_cluster, seeds[t])

    return [(combined(t, outcomes[t]), combined(t, plus[t])) for t in range(len(tasks))]
