"""Batched multi-topology strategy engine, bit-identical to the serial one.

:class:`repro.core.strategy.StrategyEngine` evaluates one channel
realization at a time; a sweep over hundreds of topologies therefore pays
hundreds of small-array NumPy dispatches per scheme (SVD, matmul, solve,
allocator inner loops).  This module restacks that hot path: a whole
batch of topologies becomes ``(B, n_sc, n_rx, n_tx)`` channel tensors,
flattened to ``(B * n_sc, n_rx, n_tx)`` so the per-subcarrier gufunc
kernels in :mod:`repro.phy.mimo` — which were always vectorized over
their leading axis — evaluate every topology in single NumPy calls.

**The contract is bit-identity**: :func:`run_batch` over tasks
``[t0, .., tB]`` returns exactly the :class:`StrategyOutcome` objects the
serial engine produces for each task, bit for bit.  The building blocks
that make this possible:

* NumPy's batched linalg (``svd``, ``solve``, ``matmul``) are per-2D-slice
  gufuncs — stacking more slices never changes a slice's result;
* elementwise ufuncs are value-wise, so a leading batch axis is free;
* the only order-sensitive reductions (masked means/sums in the
  allocators and rate model) go through
  :func:`repro.util.masked_row_apply`, which replicates the serial
  pairwise-summation grouping exactly;
* CSI is measured per task with a fresh ``default_rng(task.seed)`` in the
  serial engine's exact draw order, so the randomness is untouched.

Batching changes observability granularity — one ``engine.batch`` span
covers all B topologies, and counters are incremented in bulk — so
:func:`repro.sim.runner.run_tasks` only routes *unobserved* tasks through
this engine; observed runs keep their exact per-topology trace shape via
the per-task path (``partition_tasks`` enforces this).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mac.timing import MacOverheadModel
from ..obs.collector import Collector, active
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
from ..phy.rates import BatchRateSelection, best_rate_batch
from ..util import dbm_to_mw
from . import equi_snr, mercury
from .equi_sinr import (
    BatchConcurrentContext,
    BatchStreamAllocation,
    allocate_concurrent_batch,
    allocate_single_batch,
    radiated_powers_batch,
)
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
    "BatchedStrategyEngine",
    "batchable",
    "group_key",
    "partition_tasks",
    "run_batch",
]

#: Serial per-stream allocators with a registered batched twin.  Tasks
#: whose ``options.allocator`` is not in this map (custom/ablation
#: allocators) fall back to per-topology evaluation.
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

    Requires: no fault injection, no per-task observation (batching would
    change the trace shape), default rate selector, an allocator with a
    batched twin, no explicit cluster policy (N-cell dispatch is
    per-topology), and the engine's 2-AP/2-client topology with uniform
    antenna counts (the stacked tensors need one shape).  N>2 tasks
    therefore always classify to the per-topology path, where
    ``evaluate_topology`` routes them through the interference-graph
    engine.
    """
    options = task.options
    if getattr(task, "fault_plan", None) is not None or getattr(task, "observe", False):
        return False
    if options.rate_selector is not None:
        return False
    if options.allocator is not None and options.allocator not in BATCHED_ALLOCATORS:
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
    must go through the serial per-topology path.  Together they cover
    the input exactly once; callers reassemble results by task index.
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
# The batched engine.
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _BatchDesign:
    """Batched :class:`~repro.core.precoding.TransmissionDesign`.

    ``precoder`` is flattened over (B, n_sc); ``active_rx`` is ``None``
    for all-antennas designs or a (B, n_active) index array (SDA keeps a
    different antenna per topology).
    """

    ap: int
    client: int
    #: (B * n_sc, n_tx, n_streams) unit-column precoders.
    precoder: np.ndarray
    active_rx: Optional[np.ndarray] = None

    @property
    def n_streams(self) -> int:
        return self.precoder.shape[2]


class BatchedStrategyEngine:
    """Evaluates the strategy menu for a batch of channel realizations.

    ``tasks`` is a homogeneous group (see :func:`group_key`) of
    :class:`repro.sim.runner.TopologyTask`-shaped objects.  :meth:`run`
    returns one :class:`StrategyOutcome` per task, bit-identical to what
    the serial :class:`~repro.core.strategy.StrategyEngine` produces for
    that task's seed.

    The collector, when enabled, records *batch-granular* spans (one
    ``engine.batch`` span, one span per scheme) and bulk counters with
    the same totals as B serial runs — but not the serial per-topology
    trace shape; observed runner tasks therefore bypass this engine.
    """

    def __init__(self, tasks: Sequence, collector: Optional[Collector] = None):
        tasks = list(tasks)
        if not tasks:
            raise ValueError("BatchedStrategyEngine needs at least one task")
        key = group_key(tasks[0])
        for task in tasks[1:]:
            if group_key(task) != key:
                raise ValueError(
                    "tasks are not homogeneous; partition with partition_tasks() first"
                )
        self.tasks = tasks
        self.collector = active(collector)
        first = tasks[0]
        self.options = first.options
        self.imperfections = (
            first.imperfections if first.imperfections is not None else ImperfectionModel()
        )
        self.overhead_model = MacOverheadModel()
        self.overheads = self.overhead_model.overheads(first.coherence_s)
        tx_power_dbm = (
            self.options.tx_power_dbm if self.options.tx_power_dbm is not None else TX_POWER_DBM
        )
        self.tx_power_mw = float(dbm_to_mw(tx_power_dbm))
        self.max_iterations = (
            self.options.max_iterations if self.options.max_iterations is not None else 8
        )
        self.oracle_check = bool(self.options.oracle_check)
        self.noise_floor_mw = float(first.channels.noise_floor_mw)

        topology = first.channels.topology
        self.n_tx = topology.aps[0].n_antennas
        self.n_rx = topology.clients[0].n_antennas
        sample = first.channels.channel(topology.aps[0].name, topology.clients[0].name)
        self.n_sc = sample.shape[0]
        self.B = len(tasks)

        # Stacked channels, keyed by (AP index, client index).  CSI draws
        # replicate the serial engine exactly: per task, a fresh
        # default_rng(seed) measuring every (ap, client) link in the
        # serial nested-loop order.
        shape = (self.B, self.n_sc, self.n_rx, self.n_tx)
        self.true: Dict[Tuple[int, int], np.ndarray] = {}
        self.csi: Dict[Tuple[int, int], np.ndarray] = {}
        for i in range(2):
            for j in range(2):
                self.true[(i, j)] = np.empty(shape, dtype=complex)
                self.csi[(i, j)] = np.empty(shape, dtype=complex)
        for b, task in enumerate(tasks):
            topo = task.channels.topology
            ap_names = [ap.name for ap in topo.aps]
            client_names = [c.name for c in topo.clients]
            rng = np.random.default_rng(task.seed)
            for i, ap in enumerate(ap_names):
                for j, client in enumerate(client_names):
                    self.csi[(i, j)][b] = task.channels.measured_csi(
                        ap, client, self.imperfections, rng
                    )
                    self.true[(i, j)][b] = task.channels.channel(ap, client)

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

    # ------------------------------------------------------------------
    # design construction (from CSI — what the APs can actually compute)
    # ------------------------------------------------------------------

    def _bf_designs(self) -> List[_BatchDesign]:
        n_streams = min(self.n_rx, self.n_tx)
        return [
            _BatchDesign(ap=i, client=i, precoder=svd_beamformer(self._flat(self.csi[(i, i)]), n_streams))
            for i in range(2)
        ]

    def _null_designs(self) -> List[_BatchDesign]:
        limit = max_nulled_streams(self.n_tx, self.n_rx, self.n_rx)
        designs = []
        for i in range(2):
            precoder = nulling_precoder(
                self._flat(self.csi[(i, i)]), self._flat(self.csi[(i, 1 - i)]), limit
            )
            designs.append(_BatchDesign(ap=i, client=i, precoder=precoder))
        return designs

    def _sda_design_pair(self, leader: int) -> List[_BatchDesign]:
        """SDA designs with AP ``leader`` leading; index order is [AP1, AP2]."""
        follower = 1 - leader
        follower_own = self.csi[(follower, follower)]
        # Per-row best antenna: same multi-axis reduction as the serial
        # _best_antenna, evaluated on each row's contiguous slice.
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
        pair: List[Optional[_BatchDesign]] = [None, None]
        pair[leader] = _BatchDesign(ap=leader, client=leader, precoder=leader_precoder)
        pair[follower] = _BatchDesign(
            ap=follower, client=follower, precoder=follower_precoder, active_rx=keep_rx
        )
        return pair  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # gains and coupling (batched precoding.stream_gains / cross_coupling)
    # ------------------------------------------------------------------

    def _stream_gains(self, design: _BatchDesign) -> np.ndarray:
        channel = self._flat(self._gather((design.ap, design.client), design.active_rx, False))
        effective = np.matmul(channel, design.precoder)
        gains = np.sum(np.abs(effective) ** 2, axis=1)
        return gains.reshape(self.B, self.n_sc, design.n_streams)

    def _cross_coupling(
        self, design: _BatchDesign, victim: int, victim_active_rx: Optional[np.ndarray]
    ) -> np.ndarray:
        channel = self._flat(self._gather((design.ap, victim), victim_active_rx, False))
        effective = np.matmul(channel, design.precoder)
        n_rx_active = effective.shape[1]
        coupling = np.sum(np.abs(effective) ** 2, axis=1) / n_rx_active
        return coupling.reshape(self.B, self.n_sc, design.n_streams)

    # ------------------------------------------------------------------
    # power allocation
    # ------------------------------------------------------------------

    def _equal_allocation(self, design: _BatchDesign) -> BatchStreamAllocation:
        """Status-quo 802.11: the power budget spread evenly everywhere."""
        n_s = design.n_streams
        powers = np.full((self.B, self.n_sc, n_s), self.tx_power_mw / (n_s * self.n_sc))
        used = np.ones((self.B, self.n_sc, n_s), dtype=bool)
        return BatchStreamAllocation(powers=powers, used=used, per_stream=[])

    def _sequential_allocation(
        self, design: _BatchDesign, batch_allocator, serial_allocator
    ) -> BatchStreamAllocation:
        """Equi-SNR (Algorithm 1) per stream, no concurrent interference."""
        gains = self._stream_gains(design)
        allocation = allocate_single_batch(
            gains, self.tx_power_mw, noise_mw=self.noise_floor_mw, allocator=batch_allocator
        )
        if self.oracle_check:
            from .oracle import shadow_check_single

            collector = self.collector if self.collector.enabled else None
            for b in range(self.B):
                shadow_check_single(
                    gains[b],
                    self.tx_power_mw,
                    allocation.row(b),
                    serial_allocator,
                    noise_mw=self.noise_floor_mw,
                    collector=collector,
                )
        return allocation

    def _concurrent_allocation(
        self, designs: Sequence[_BatchDesign], batch_allocator
    ) -> List[BatchStreamAllocation]:
        """The Fig. 6 iterative Equi-SINR joint allocation, all rows at once."""
        gains = []
        coupling = []
        for i in range(2):
            design = designs[i]
            gains.append(self._stream_gains(design))
            coupled = self._cross_coupling(design, 1 - i, designs[1 - i].active_rx)
            # Nulls computed from noisy CSI bottom out at the estimation-error
            # floor; the allocator must plan for that residual (§2.2).
            victim_csi = self.csi[(i, 1 - i)]
            entry_power = (np.abs(victim_csi) ** 2).reshape(self.B, -1).mean(axis=1)
            residual = self.imperfections.csi_error_linear * entry_power
            coupling.append(coupled + residual[:, None, None])
        context = BatchConcurrentContext(
            gains=gains,
            coupling=coupling,
            budgets=[self.tx_power_mw, self.tx_power_mw],
            noise_mw=[self.noise_floor_mw] * 2,
            leakage_linear=self.imperfections.carrier_leakage_linear,
        )
        allocations, _, _ = allocate_concurrent_batch(
            context,
            max_iterations=self.max_iterations,
            allocator=batch_allocator,
            collector=self.collector if self.collector.enabled else None,
        )
        return allocations

    def _note_allocations(self, allocations: Sequence[BatchStreamAllocation]) -> None:
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
        designs: Sequence[_BatchDesign],
        allocations: Sequence[BatchStreamAllocation],
        concurrent: bool,
        true_channel: bool,
    ) -> BatchRateSelection:
        """Batched rate selection for client ``receiver`` under one scheme."""
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
        covariance += tx_noise_covariance(h_own, own_radiated.sum(axis=1), evm)
        if concurrent:
            other = designs[1 - receiver]
            other_alloc = allocations[1 - receiver]
            other_radiated = radiated_powers_batch(
                other_alloc.powers, other_alloc.used, leakage
            ).reshape(n_flat, other.n_streams)
            h_cross_rows = self._gather((other.ap, design.client), design.active_rx, true_channel)
            h_cross = self._flat(h_cross_rows)
            eff_cross = np.matmul(h_cross, other.precoder)
            covariance += interference_covariance(eff_cross, other_radiated)
            covariance += tx_noise_covariance(h_cross, other_radiated.sum(axis=1), evm)
            if not true_channel:
                # Prediction mode: the expected nulling residual from CSI
                # estimation error (§2.2), with each row's entry power
                # taken over the same active-antenna slice as serially.
                # The serial slice comes from fancy indexing and is laid
                # out antenna-major, so its flat np.mean sums elements in
                # (rx, sc, tx) memory order; transpose to match that
                # summation order bit for bit.
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

        sinr = mmse_sinr(effective, data_powers, covariance)
        return best_rate_batch(sinr.reshape(self.B, self.n_sc, n_s), used=alloc.used)

    def _scheme_rows(
        self,
        name: str,
        designs: Sequence[_BatchDesign],
        allocations: Sequence[BatchStreamAllocation],
        concurrent: bool,
        overhead: float,
        true_channel: bool,
    ) -> List[SchemeResult]:
        rates = [
            self._rate_of(i, designs, allocations, concurrent, true_channel) for i in range(2)
        ]
        factor = self.overhead_model.net_throughput_factor(overhead)
        if concurrent:
            throughput = [r.goodput_bps * factor for r in rates]
        else:
            # Sequential senders take turns: each client gets half the airtime.
            throughput = [r.goodput_bps * factor / 2.0 for r in rates]
        return [
            SchemeResult(
                name=name,
                concurrent=concurrent,
                client_throughput_bps=(float(throughput[0][b]), float(throughput[1][b])),
                rates=(rates[0].row(b), rates[1].row(b)),
                allocations=(allocations[0].row(b), allocations[1].row(b)),
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

    def _full_nulling_feasible(self) -> bool:
        full_rank = min(self.n_tx, self.n_rx)
        return max_nulled_streams(self.n_tx, self.n_rx, self.n_rx) >= full_rank

    def _reduced_nulling_feasible(self) -> bool:
        return max_nulled_streams(self.n_tx, self.n_rx, self.n_rx) >= 1

    def _sda_applicable(self) -> bool:
        if self._full_nulling_feasible() or self.n_rx < 2:
            return False
        leader_ok = max_nulled_streams(self.n_tx, self.n_rx, 1) >= 1
        follower_ok = max_nulled_streams(self.n_tx, 1, self.n_rx) >= 1
        return leader_ok and follower_ok

    def run(self, allocator=None) -> List[StrategyOutcome]:
        """Evaluate the full menu for every task; one outcome per task.

        ``allocator`` overrides the options' serial per-stream allocator
        (used by :func:`run_batch` for the COPA+ mercury pass); it must
        have a batched twin in :data:`BATCHED_ALLOCATORS`.
        """
        serial_allocator = allocator
        if serial_allocator is None:
            serial_allocator = (
                self.options.allocator if self.options.allocator is not None else equi_snr.allocate
            )
        batch_allocator = BATCHED_ALLOCATORS[serial_allocator]

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
            "engine.batch",
            allocator=getattr(serial_allocator, "__name__", str(serial_allocator)),
            antennas=f"{self.n_tx}x{self.n_rx}",
            topologies=self.B,
        ):
            with col.span("design", kind="beamforming"):
                bf = self._bf_designs()

            with col.span(f"scheme:{SCHEME_CSMA}"):
                with col.span("allocate"):
                    equal_bf = [self._equal_allocation(d) for d in bf]
                store(SCHEME_CSMA, self._both(SCHEME_CSMA, bf, equal_bf, False, ovh.csma))

            with col.span(f"scheme:{SCHEME_COPA_SEQ}"):
                with col.span("allocate"):
                    seq_alloc = [
                        self._sequential_allocation(bf[i], batch_allocator, serial_allocator)
                        for i in range(2)
                    ]
                self._note_allocations(seq_alloc)
                store(
                    SCHEME_COPA_SEQ,
                    self._both(SCHEME_COPA_SEQ, bf, seq_alloc, False, ovh.copa_sequential),
                )

            with col.span(f"scheme:{SCHEME_CONC_BF}"):
                with col.span("allocate"):
                    conc_bf_alloc = self._concurrent_allocation(bf, batch_allocator)
                self._note_allocations(conc_bf_alloc)
                store(
                    SCHEME_CONC_BF,
                    self._both(SCHEME_CONC_BF, bf, conc_bf_alloc, True, ovh.copa_concurrent),
                )

            if self._reduced_nulling_feasible():
                with col.span("design", kind="nulling"):
                    null_designs = self._null_designs()
                if self._full_nulling_feasible():
                    with col.span(f"scheme:{SCHEME_NULL}"):
                        with col.span("allocate"):
                            equal_null = [self._equal_allocation(d) for d in null_designs]
                        store(
                            SCHEME_NULL,
                            self._both(
                                SCHEME_NULL, null_designs, equal_null, True, ovh.copa_concurrent
                            ),
                        )
                with col.span(f"scheme:{SCHEME_CONC_NULL}"):
                    with col.span("allocate"):
                        conc_null_alloc = self._concurrent_allocation(null_designs, batch_allocator)
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
                            designs = self._sda_design_pair(leader)
                        with col.span(f"scheme:{SCHEME_NULL}"):
                            with col.span("allocate"):
                                equal = [self._equal_allocation(d) for d in designs]
                            a_eq, p_eq = self._both(
                                SCHEME_NULL, designs, equal, True, ovh.copa_concurrent
                            )
                        with col.span(f"scheme:{SCHEME_CONC_SDA}"):
                            with col.span("allocate"):
                                alloc = self._concurrent_allocation(designs, batch_allocator)
                            self._note_allocations(alloc)
                            a, p = self._both(
                                SCHEME_CONC_SDA, designs, alloc, True, ovh.copa_concurrent
                            )
                    sda_actual.append((a_eq, a))
                    sda_predicted.append((p_eq, p))
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

    The COPA+ pass reuses the engine's measured CSI — the serial path
    re-measures with a fresh ``default_rng(task.seed)``, which draws the
    identical estimate, so sharing it preserves bit-identity.
    """
    engine = BatchedStrategyEngine(tasks, collector=collector)
    outcomes = engine.run()
    plus: List[Optional[StrategyOutcome]] = [None] * len(outcomes)
    if engine.tasks[0].include_copa_plus:
        plus = list(engine.run(allocator=mercury.mercury_allocate))
    return list(zip(outcomes, plus))
