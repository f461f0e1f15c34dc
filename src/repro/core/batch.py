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
concurrent allocation runs batched at k = 2 and as N-player
best-response dynamics (:func:`repro.core.oracle.allocate_graph`), one
interference graph per row, at k ≥ 3.

Any per-stream allocator and rate selector works.  One with a batched
twin (:data:`BATCHED_ALLOCATORS`, ``best_rate_batch`` for ``best_rate``)
runs batched; any other is lifted — called once per row, keeping each
row's returned object (``per_subcarrier_rates``' selections, say).

The engine starts from measured CSI (:func:`measure_csi`), so its caller
owns the randomness: :func:`run_batch` measures each task with a fresh
``default_rng(task.seed)``, ``StrategyEngine`` with the caller's
generator.  Observability is batch-granular: one ``engine.run`` span
covers all B rows, and counters are incremented in bulk with the same
totals as B one-row runs.
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
from .equi_snr import BatchAllocation
from .equi_sinr import (
    BatchConcurrentContext,
    BatchStreamAllocation,
    StreamAllocator,
    allocate_concurrent_batch,
    allocate_single_batch,
    radiated_powers_batch,
)
from .oracle import GraphPlayer, InterferenceGraph, allocate_graph
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

#: Per-stream allocators with a batched twin.  Any other allocator is
#: lifted: the engine calls it once per row.
BATCHED_ALLOCATORS = {
    equi_snr.allocate: equi_snr.allocate_batch,
    mercury.mercury_allocate: mercury.mercury_allocate_batch,
}


# ---------------------------------------------------------------------------
# Task partitioning (duck-typed over repro.sim.runner.TopologyTask so the
# core layer never imports the sim layer).
# ---------------------------------------------------------------------------


def batchable(task) -> bool:
    """Can this task join a batched engine dispatch?

    Requires: no fault injection, no per-task observation (its trace
    stays per topology), no explicit cluster policy (N-cell dispatch is
    per-topology), and the 2-AP/2-client topology with uniform antenna
    counts (the stacked tensors need one shape).  N>2 tasks therefore
    always classify to the per-topology path, where
    ``evaluate_topology`` routes them through the interference-graph
    engine.  Any allocator and rate selector batches.
    """
    options = task.options
    if getattr(task, "fault_plan", None) is not None or getattr(task, "observe", False):
        return False
    if getattr(options, "cluster_policy", None) is not None:
        return False
    topology = task.channels.topology
    aps, clients = topology.aps, topology.clients
    if len(aps) != 2 or len(clients) != 2:
        return False
    n_tx = aps[0].n_antennas
    n_rx = clients[0].n_antennas
    if any(ap.n_antennas != n_tx for ap in aps) or any(c.n_antennas != n_rx for c in clients):
        return False
    shape = (task.channels.n_subcarriers, n_rx, n_tx)
    return all(
        task.channels.channel(ap.name, client.name).shape == shape
        for ap in aps
        for client in clients
    )


def group_key(task) -> tuple:
    """Everything that must match for two tasks to share one engine batch."""
    topology = task.channels.topology
    return (
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
    must go through the per-topology path.  Together they cover the
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


def _lift_allocator(allocator: StreamAllocator):
    """A batched per-stream allocator calling ``allocator`` once per row."""

    def lifted(gains: np.ndarray, total_power: float) -> BatchAllocation:
        return BatchAllocation.from_rows([allocator(row, total_power) for row in gains])

    return lifted


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

    def interference_graphs(self, designs: Sequence[BatchDesign]) -> List[InterferenceGraph]:
        """Each row's k-player interference graph under ``designs``, from CSI.

        Players carry their stream gains and edge (victim, source) the
        source's coupling at the victim — the k-player form of the
        Figure-6 context.
        """
        gains = [self._stream_gains(design) for design in designs]
        coupling = {
            (victim, source): self._coupling(designs, victim, source)
            for victim in range(self.k)
            for source in self._others(victim)
        }
        graphs = []
        for b, channels in enumerate(self.channels):
            players = [
                GraphPlayer(
                    name=channels.topology.aps[design.ap].name,
                    gains=gains[i][b],
                    budget=self.tx_power_mw,
                    noise_mw=self.noise_floor_mw,
                )
                for i, design in enumerate(designs)
            ]
            graphs.append(
                InterferenceGraph(
                    players=players,
                    coupling={edge: value[b] for edge, value in coupling.items()},
                    leakage_linear=self.imperfections.carrier_leakage_linear,
                )
            )
        return graphs

    # ------------------------------------------------------------------
    # power allocation
    # ------------------------------------------------------------------

    def equal_allocation(self, design: BatchDesign) -> BatchStreamAllocation:
        """Status-quo 802.11: the power budget spread evenly everywhere."""
        n_s = design.n_streams
        powers = np.full((self.B, self.n_sc, n_s), self.tx_power_mw / (n_s * self.n_sc))
        used = np.ones((self.B, self.n_sc, n_s), dtype=bool)
        return BatchStreamAllocation(powers=powers, used=used, per_stream=[])

    @staticmethod
    def _batched(allocator: StreamAllocator):
        twin = BATCHED_ALLOCATORS.get(allocator)
        return twin if twin is not None else _lift_allocator(allocator)

    def _sequential_allocation(
        self, design: BatchDesign, allocator: StreamAllocator
    ) -> BatchStreamAllocation:
        """Equi-SNR (Algorithm 1) per stream, no concurrent interference."""
        gains = self._stream_gains(design)
        allocation = allocate_single_batch(
            gains, self.tx_power_mw, noise_mw=self.noise_floor_mw, allocator=self._batched(allocator)
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
        self, designs: Sequence[BatchDesign], allocator: Optional[StreamAllocator] = None
    ) -> List[BatchStreamAllocation]:
        """The Fig. 6 iterative Equi-SINR joint allocation of every row.

        ``allocator`` defaults to the engine's.  Two APs iterate batched;
        larger clusters run the k-player best-response dynamics row by row.
        """
        allocator = allocator if allocator is not None else self.allocator
        collector = self.collector if self.collector.enabled else None
        if self.k == 2:
            context = BatchConcurrentContext(
                gains=[self._stream_gains(design) for design in designs],
                coupling=[self._coupling(designs, 1 - i, i) for i in range(2)],
                budgets=[self.tx_power_mw, self.tx_power_mw],
                noise_mw=[self.noise_floor_mw] * 2,
                leakage_linear=self.imperfections.carrier_leakage_linear,
            )
            allocations, _, _ = allocate_concurrent_batch(
                context,
                max_iterations=self.max_iterations,
                allocator=self._batched(allocator),
                collector=collector,
            )
            return allocations
        rows = [
            allocate_graph(
                graph,
                max_iterations=self.max_iterations,
                allocator=allocator,
                collector=collector,
            ).allocations
            for graph in self.interference_graphs(designs)
        ]
        return [BatchStreamAllocation.from_rows([row[i] for row in rows]) for i in range(self.k)]

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
        with col.span("measure", scheme=str(name), batch=self.B):
            actual = self._scheme_rows(name, designs, allocations, concurrent, overhead, True)
        with col.span("predict", scheme=str(name), batch=self.B):
            predicted = self._scheme_rows(name, designs, allocations, concurrent, overhead, False)
        if col.enabled:
            col.inc(f"engine.scheme.{name}", self.B)
            for result in actual:
                col.observe(f"scheme.{name}.measured_mbps", result.aggregate_mbps)
        return actual, predicted

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

    def run(self, allocator: Optional[StreamAllocator] = None) -> List[StrategyOutcome]:
        """Evaluate the full menu for every row; one outcome per row.

        ``allocator`` overrides the engine's per-stream allocator for this
        run (:func:`run_batch`'s COPA+ mercury pass reuses the measured
        CSI this way).
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
            topologies=self.B,
        ):
            with col.span("design", kind="beamforming"):
                bf = self.beamforming_designs()

            with col.span(f"scheme:{SCHEME_CSMA}"):
                with col.span("allocate"):
                    equal_bf = [self.equal_allocation(d) for d in bf]
                store(SCHEME_CSMA, self._both(SCHEME_CSMA, bf, equal_bf, False, ovh.csma))

            with col.span(f"scheme:{SCHEME_COPA_SEQ}"):
                with col.span("allocate"):
                    seq_alloc = [self._sequential_allocation(d, allocator) for d in bf]
                self._note_allocations(seq_alloc)
                store(
                    SCHEME_COPA_SEQ,
                    self._both(SCHEME_COPA_SEQ, bf, seq_alloc, False, ovh.copa_sequential),
                )

            if self.k >= 2:
                with col.span(f"scheme:{SCHEME_CONC_BF}"):
                    with col.span("allocate"):
                        conc_bf_alloc = self.concurrent_allocation(bf, allocator)
                    self._note_allocations(conc_bf_alloc)
                    store(
                        SCHEME_CONC_BF,
                        self._both(SCHEME_CONC_BF, bf, conc_bf_alloc, True, ovh.copa_concurrent),
                    )

            if self._reduced_nulling_feasible():
                with col.span("design", kind="nulling"):
                    null_designs = self.nulling_designs()
                if self._full_nulling_feasible():
                    # Vanilla nulling baseline: equal power, no selection.
                    with col.span(f"scheme:{SCHEME_NULL}"):
                        with col.span("allocate"):
                            equal_null = [self.equal_allocation(d) for d in null_designs]
                        store(
                            SCHEME_NULL,
                            self._both(
                                SCHEME_NULL, null_designs, equal_null, True, ovh.copa_concurrent
                            ),
                        )
                with col.span(f"scheme:{SCHEME_CONC_NULL}"):
                    with col.span("allocate"):
                        conc_null_alloc = self.concurrent_allocation(null_designs, allocator)
                    self._note_allocations(conc_null_alloc)
                    store(
                        SCHEME_CONC_NULL,
                        self._both(
                            SCHEME_CONC_NULL, null_designs, conc_null_alloc, True, ovh.copa_concurrent
                        ),
                    )

            if self._sda_applicable():
                sda_actual, sda_predicted = [], []
                for leader in range(2):
                    with col.span("sda.role", leader=leader):
                        with col.span("design", kind="sda"):
                            designs = self.sda_designs(leader)
                        # Vanilla Null+SDA baseline (equal power)...
                        with col.span(f"scheme:{SCHEME_NULL}"):
                            with col.span("allocate"):
                                equal = [self.equal_allocation(d) for d in designs]
                            a_eq, p_eq = self._both(
                                SCHEME_NULL, designs, equal, True, ovh.copa_concurrent
                            )
                        # ...and COPA's allocated SDA strategy.
                        with col.span(f"scheme:{SCHEME_CONC_SDA}"):
                            with col.span("allocate"):
                                alloc = self.concurrent_allocation(designs, allocator)
                            self._note_allocations(alloc)
                            a, p = self._both(
                                SCHEME_CONC_SDA, designs, alloc, True, ovh.copa_concurrent
                            )
                    sda_actual.append((a_eq, a))
                    sda_predicted.append((p_eq, p))
                # Reported as the average over the two leader roles.
                for b in range(self.B):
                    schemes_rows[b][SCHEME_NULL] = average_results(
                        SCHEME_NULL, [role[0][b] for role in sda_actual]
                    )
                    predictions_rows[b][SCHEME_NULL] = average_results(
                        SCHEME_NULL, [role[0][b] for role in sda_predicted]
                    )
                    schemes_rows[b][SCHEME_CONC_SDA] = average_results(
                        SCHEME_CONC_SDA, [role[1][b] for role in sda_actual]
                    )
                    predictions_rows[b][SCHEME_CONC_SDA] = average_results(
                        SCHEME_CONC_SDA, [role[1][b] for role in sda_predicted]
                    )

            with col.span("choose", batch=self.B):
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

    Each task's CSI is measured with a fresh ``default_rng(task.seed)``,
    exactly as the per-topology path measures it.  The COPA+ pass reuses
    that CSI: a re-measurement would draw the identical estimate.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("run_batch needs at least one task")
    key = group_key(tasks[0])
    if any(group_key(task) != key for task in tasks[1:]):
        raise ValueError("tasks are not homogeneous; partition with partition_tasks() first")
    first = tasks[0]
    imperfections = first.imperfections if first.imperfections is not None else ImperfectionModel()
    engine = BatchedStrategyEngine(
        [task.channels for task in tasks],
        [
            measure_csi(task.channels, imperfections, np.random.default_rng(task.seed))
            for task in tasks
        ],
        imperfections=imperfections,
        coherence_s=first.coherence_s,
        collector=collector,
        **first.options.engine_kwargs(),
    )
    outcomes = engine.run()
    plus: List[Optional[StrategyOutcome]] = [None] * len(outcomes)
    if first.include_copa_plus:
        plus = list(engine.run(allocator=mercury.mercury_allocate))
    return list(zip(outcomes, plus))
