"""N-AP interference-graph strategy engine with dynamic clustering.

COPA's engine (:class:`repro.core.strategy.StrategyEngine`) coordinates
one cluster of interfering (AP, client) networks.  This module applies
it to N networks partitioned into coordination clusters
(:mod:`repro.core.clustering`):

* **within a cluster** the full COPA machinery runs — sequential power
  allocation, concurrent beamforming/nulling (at k ≥ 3 APs with the
  N-player best-response dynamics from the PR-6 oracle,
  :func:`repro.core.oracle.allocate_graph`), and the incentive-compatible
  strategy choice;
* **across clusters** networks fall back to plain CSMA: clusters take
  turns on the medium and do not interfere (idealized carrier sense, the
  same idealization the paper applies to its sequential schemes).

The runner uses this engine (and records ``engine.ncell`` spans) only
under the ``"threshold"`` and ``"greedy"`` policies; the default
``"fixed"`` one is :func:`repro.core.batch.run_batch` at k = N.

Reduction guarantees, enforced by ``tests/core/test_ncell_reduction.py``:

* N = 2 in a single cluster delegates verbatim to the 2-AP engine with
  the caller's RNG, so it is **bit-identical by construction**;
* a cluster of exactly two APs inside a larger topology runs the same
  2-AP menu (SDA roles included) on the restricted channel set;
* a cluster of one AP degenerates to CSMA/COPA-SEQ — no concurrent
  schemes, no interference.

Airtime model (documented in EXPERIMENTS.md): for sequential schemes all
N transmitters contend individually, so a cluster of ``k`` APs carries
``k/N`` of the airtime (its per-client values are already divided by
``k``).  For concurrent schemes each cluster transmits as one unit and
the ``n_clusters`` units split the medium evenly, so every cluster's
share is ``1/n_clusters``.  Both factors are exactly ``1.0`` for a single
cluster, which is why the single-cluster path can return the inner
engine's outcome unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..mac.timing import MacOverheadModel
from ..obs.collector import Collector, active
from ..phy.channel import ChannelSet
from ..phy.constants import TX_POWER_DBM
from ..phy.noise import ImperfectionModel
from ..phy.rates import best_rate
from ..phy.topology import Topology
from . import equi_snr
from .clustering import DEFAULT_CLUSTER_POLICY, form_clusters
from .equi_sinr import StreamAllocator
from .schemes import Scheme
from .strategy import SchemeResult, StrategyEngine, StrategyOutcome

__all__ = [
    "GraphStrategyEngine",
    "GraphStrategyOutcome",
    "restrict_channels",
]

#: Concurrent entries of the Figure-8 menu: combined across clusters only
#: when every cluster of two or more APs produced them.
_CONCURRENT_SCHEMES = (Scheme.NULL, Scheme.CONC_BF, Scheme.CONC_NULL, Scheme.CONC_SDA)

#: What a singleton cluster transmits while a concurrent combined scheme
#: is on the air: its best sequential behaviour (equal power for the
#: vanilla-nulling baseline, allocated power otherwise).
_SINGLETON_FALLBACK = {
    Scheme.NULL: Scheme.CSMA,
    Scheme.CONC_BF: Scheme.COPA_SEQ,
    Scheme.CONC_NULL: Scheme.COPA_SEQ,
    Scheme.CONC_SDA: Scheme.COPA_SEQ,
}


def restrict_channels(channels: ChannelSet, members: Sequence[int]) -> ChannelSet:
    """The sub-:class:`ChannelSet` seen by one cluster of AP indices.

    Keeps the member APs, their clients, and every channel/link-gain
    entry whose endpoints both survive; order follows the original
    topology so restriction commutes with AP relabeling.
    """

    topology = channels.topology
    aps = [topology.aps[i] for i in members]
    clients = [topology.clients[i] for i in members]
    kept = {node.name for node in aps} | {node.name for node in clients}
    sub_topology = Topology(
        aps=aps,
        clients=clients,
        link_gain_db={
            pair: gain
            for pair, gain in topology.link_gain_db.items()
            if pair[0] in kept and pair[1] in kept
        },
    )
    sub_channels = {
        pair: array
        for pair, array in channels.channels.items()
        if pair[0] in kept and pair[1] in kept
    }
    return ChannelSet(
        topology=sub_topology,
        channels=sub_channels,
        noise_floor_mw=channels.noise_floor_mw,
        n_subcarriers=channels.n_subcarriers,
    )


@dataclass
class GraphStrategyOutcome:
    """Outcome of an N-AP run combined across coordination clusters.

    Presents the same read surface as :class:`StrategyOutcome`
    (``schemes``, ``predictions``, ``copa``/``copa_fair`` and the choice
    labels) so experiment aggregation, reporting, caching and the service
    compose unchanged; additionally exposes the clustering and each
    cluster's full outcome for drill-down.
    """

    #: Cluster memberships as tuples of AP indices into the topology.
    clusters: Tuple[Tuple[int, ...], ...]
    #: Per-cluster outcomes, aligned with ``clusters``.
    cluster_outcomes: Tuple[StrategyOutcome, ...]
    #: Child seeds used for the per-cluster engines ((),) for one cluster).
    cluster_seeds: Tuple[int, ...]
    #: Combined measured results per scheme, global client order.
    schemes: Dict[str, SchemeResult]
    #: Combined CSI-predicted results per scheme.
    predictions: Dict[str, SchemeResult]
    #: Per-cluster COPA choices, aligned with ``clusters``.
    copa_choices: Tuple[str, ...]
    copa_fair_choices: Tuple[str, ...]
    #: Combined measured result of the per-cluster COPA choices.
    copa_result: SchemeResult
    copa_fair_result: SchemeResult

    @property
    def copa(self) -> SchemeResult:
        return self.copa_result

    @property
    def copa_fair(self) -> SchemeResult:
        return self.copa_fair_result

    @property
    def copa_choice(self) -> str:
        return "+".join(self.copa_choices)

    @property
    def copa_fair_choice(self) -> str:
        return "+".join(self.copa_fair_choices)


class GraphStrategyEngine:
    """Evaluates the COPA strategy menu over an N-AP interference graph.

    Forms coordination clusters from the topology's link gains (no RNG
    involved), runs one :class:`StrategyEngine` per cluster on its
    restricted channels, and combines the per-cluster menus under the
    CSMA-across-clusters airtime model described in the module docstring.

    With a single cluster the inner outcome is returned unchanged; in
    particular N = 2 with one cluster constructs the 2-AP engine with
    the caller's RNG, making it bit-identical to the 2-AP path by
    construction.
    """

    def __init__(
        self,
        channels: ChannelSet,
        imperfections: Optional[ImperfectionModel] = None,
        rng: Optional[np.random.Generator] = None,
        overhead_model: Optional[MacOverheadModel] = None,
        coherence_s: float = 0.030,
        tx_power_dbm: float = TX_POWER_DBM,
        allocator: StreamAllocator = equi_snr.allocate,
        max_iterations: int = 8,
        rate_selector=best_rate,
        collector: Optional[Collector] = None,
        oracle_check: bool = False,
        cluster_policy: str = DEFAULT_CLUSTER_POLICY,
        cluster_threshold_db: Optional[float] = None,
        max_cluster_size: Optional[int] = None,
    ):
        self.channels = channels
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._raw_collector = collector
        self.collector = active(collector)
        self.cluster_policy = cluster_policy
        self.cluster_threshold_db = cluster_threshold_db
        # Stored verbatim and forwarded to the per-cluster engines so
        # their defaulting matches a directly-constructed StrategyEngine.
        self._engine_kwargs = dict(
            imperfections=imperfections,
            overhead_model=overhead_model,
            coherence_s=coherence_s,
            tx_power_dbm=tx_power_dbm,
            allocator=allocator,
            max_iterations=max_iterations,
            rate_selector=rate_selector,
            oracle_check=oracle_check,
        )
        self.n_aps = len(channels.topology.aps)
        # Clustering reads only topology link gains: it never consumes the
        # RNG, so the single-cluster delegate sees the exact caller stream.
        self.clusters = form_clusters(
            channels.topology,
            policy=cluster_policy,
            threshold_db=cluster_threshold_db,
            max_cluster_size=max_cluster_size,
        )

    # -- engine construction --------------------------------------------

    def _engine_for(self, channels: ChannelSet, rng: np.random.Generator) -> StrategyEngine:
        return StrategyEngine(
            channels, rng=rng, collector=self._raw_collector, **self._engine_kwargs
        )

    def run(self):
        """Evaluate all clusters and combine their menus.

        Returns the inner :class:`StrategyOutcome` unchanged for a single
        cluster, a :class:`GraphStrategyOutcome` otherwise.
        """
        col = self.collector
        with col.span(
            "engine.ncell",
            aps=self.n_aps,
            clusters=len(self.clusters),
            policy=self.cluster_policy,
        ):
            if col.enabled:
                col.inc("engine.ncell.runs")
                col.observe("engine.ncell.clusters", len(self.clusters))
            if len(self.clusters) == 1:
                return self._engine_for(self.channels, self.rng).run()
            # Independent child streams per cluster: derived from the task
            # RNG in cluster order, so results are reproducible from the
            # task seed alone and invariant to evaluation order.
            seeds = self.rng.integers(0, 2**63 - 1, size=len(self.clusters))
            outcomes = []
            for cluster, seed in zip(self.clusters, seeds):
                sub = restrict_channels(self.channels, cluster)
                outcomes.append(
                    self._engine_for(sub, np.random.default_rng(int(seed))).run()
                )
            return self._combine(outcomes, tuple(int(s) for s in seeds))

    # -- combination across clusters ------------------------------------

    def _share(self, concurrent: bool, cluster: Tuple[int, ...]) -> float:
        if concurrent:
            return 1.0 / len(self.clusters)
        return len(cluster) / float(self.n_aps)

    def _combined_result(
        self,
        name: str,
        concurrent: bool,
        per_cluster: Sequence[SchemeResult],
        per_cluster_shares: Optional[Sequence[float]] = None,
    ) -> SchemeResult:
        """Stitch per-cluster results into one global-client-order result."""
        n_clients = len(self.channels.topology.clients)
        throughput = [0.0] * n_clients
        rates: List = [None] * n_clients
        allocations: List = [None] * n_clients
        have_allocations = all(r.allocations is not None for r in per_cluster)
        for cluster, result, share in zip(
            self.clusters,
            per_cluster,
            per_cluster_shares
            if per_cluster_shares is not None
            else [self._share(concurrent, c) for c in self.clusters],
        ):
            for local, global_idx in enumerate(cluster):
                throughput[global_idx] = result.client_throughput_bps[local] * share
                rates[global_idx] = result.rates[local]
                if have_allocations:
                    allocations[global_idx] = result.allocations[local]
        return SchemeResult(
            name=name,
            concurrent=concurrent,
            client_throughput_bps=tuple(throughput),
            rates=tuple(rates),
            allocations=tuple(allocations) if have_allocations else None,
        )

    def _cluster_scheme(self, outcome: StrategyOutcome, scheme: str, predicted: bool):
        table = outcome.predictions if predicted else outcome.schemes
        if scheme in table:
            return table[scheme]
        return table[_SINGLETON_FALLBACK[scheme]]

    def _combine(
        self, outcomes: Sequence[StrategyOutcome], seeds: Tuple[int, ...]
    ) -> GraphStrategyOutcome:
        schemes: Dict[str, SchemeResult] = {}
        predictions: Dict[str, SchemeResult] = {}

        for scheme in (Scheme.CSMA, Scheme.COPA_SEQ):
            for predicted, table in ((False, schemes), (True, predictions)):
                table[scheme] = self._combined_result(
                    scheme,
                    False,
                    [o.predictions[scheme] if predicted else o.schemes[scheme] for o in outcomes],
                )

        coordinated = [len(cluster) >= 2 for cluster in self.clusters]
        for scheme in _CONCURRENT_SCHEMES:
            available = any(coordinated) and all(
                scheme in outcome.schemes
                for outcome, multi in zip(outcomes, coordinated)
                if multi
            )
            if not available:
                continue
            for predicted, table in ((False, schemes), (True, predictions)):
                table[scheme] = self._combined_result(
                    scheme,
                    True,
                    [self._cluster_scheme(o, scheme, predicted) for o in outcomes],
                )

        copa_choices = tuple(o.copa_choice for o in outcomes)
        copa_fair_choices = tuple(o.copa_fair_choice for o in outcomes)
        # Each cluster transmits its own chosen strategy; its airtime share
        # follows the chosen strategy's contention type.
        copa_result = self._combined_result(
            "copa",
            any(o.copa.concurrent for o in outcomes),
            [o.copa for o in outcomes],
            [self._share(o.copa.concurrent, c) for o, c in zip(outcomes, self.clusters)],
        )
        copa_fair_result = self._combined_result(
            "copa_fair",
            any(o.copa_fair.concurrent for o in outcomes),
            [o.copa_fair for o in outcomes],
            [self._share(o.copa_fair.concurrent, c) for o, c in zip(outcomes, self.clusters)],
        )
        return GraphStrategyOutcome(
            clusters=self.clusters,
            cluster_outcomes=tuple(outcomes),
            cluster_seeds=seeds,
            schemes=schemes,
            predictions=predictions,
            copa_choices=copa_choices,
            copa_fair_choices=copa_fair_choices,
            copa_result=copa_result,
            copa_fair_result=copa_fair_result,
        )
