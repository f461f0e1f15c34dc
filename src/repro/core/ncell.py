"""N-AP coordination clusters: restricted channels and combined outcomes.

COPA's engine coordinates one cluster of interfering (AP, client)
networks.  The N-cell generalization partitions N networks into
coordination clusters (:mod:`repro.core.clustering`):

* **within a cluster** the full COPA machinery runs — sequential power
  allocation, concurrent beamforming/nulling (the Figure-6 iteration over
  the cluster's k APs, batched like every other cluster size), and the
  incentive-compatible strategy choice;
* **across clusters** networks fall back to plain CSMA: clusters take
  turns on the medium and do not interfere (idealized carrier sense, the
  same idealization the paper applies to its sequential schemes).

:func:`repro.core.batch.run_batch` evaluates every cluster policy.  A
topology of one cluster — every topology under the default ``"fixed"``
policy — is one engine row on its own channels.  A topology that the
``"threshold"`` or ``"greedy"`` policy splits becomes one row per
cluster, on :func:`restrict_channels`, and :func:`combine_clusters`
stitches the rows' outcomes into one :class:`GraphStrategyOutcome`.

Reduction guarantees, enforced by ``tests/core/test_ncell_reduction.py``:

* N = 2 in a single cluster is the 2-AP engine's row, so it is
  **bit-identical by construction**;
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
cluster, which is why a single-cluster topology keeps its row's outcome
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..phy.channel import ChannelSet
from ..phy.topology import Topology
from .schemes import Scheme
from .strategy import SchemeResult, StrategyOutcome

__all__ = [
    "GraphStrategyOutcome",
    "combine_clusters",
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
    #: Child seeds of the per-cluster CSI measurements, aligned with ``clusters``.
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


def combine_clusters(
    clusters: Tuple[Tuple[int, ...], ...],
    outcomes: Sequence[StrategyOutcome],
    seeds: Tuple[int, ...],
) -> GraphStrategyOutcome:
    """Stitch per-cluster outcomes into one N-AP outcome.

    ``clusters`` partition the N APs (:func:`repro.core.clustering.form_clusters`),
    ``outcomes`` are the clusters' menus in the same order and ``seeds``
    the child seeds their CSI was measured with.  Each result is scaled
    by its cluster's airtime share under the CSMA-across-clusters model
    of the module docstring and placed at the global client indices.
    """
    n_aps = sum(len(cluster) for cluster in clusters)

    def share(concurrent: bool, cluster: Tuple[int, ...]) -> float:
        if concurrent:
            return 1.0 / len(clusters)
        return len(cluster) / float(n_aps)

    def stitch(
        name: str,
        concurrent: bool,
        per_cluster: Sequence[SchemeResult],
        shares: Optional[Sequence[float]] = None,
    ) -> SchemeResult:
        throughput = [0.0] * n_aps
        rates: List = [None] * n_aps
        allocations: List = [None] * n_aps
        have_allocations = all(r.allocations is not None for r in per_cluster)
        if shares is None:
            shares = [share(concurrent, cluster) for cluster in clusters]
        for cluster, result, cluster_share in zip(clusters, per_cluster, shares):
            for local, global_idx in enumerate(cluster):
                throughput[global_idx] = result.client_throughput_bps[local] * cluster_share
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

    def cluster_scheme(outcome: StrategyOutcome, scheme: str, predicted: bool) -> SchemeResult:
        table = outcome.predictions if predicted else outcome.schemes
        return table[scheme] if scheme in table else table[_SINGLETON_FALLBACK[scheme]]

    schemes: Dict[str, SchemeResult] = {}
    predictions: Dict[str, SchemeResult] = {}
    for scheme in (Scheme.CSMA, Scheme.COPA_SEQ):
        for predicted, table in ((False, schemes), (True, predictions)):
            table[scheme] = stitch(
                scheme,
                False,
                [o.predictions[scheme] if predicted else o.schemes[scheme] for o in outcomes],
            )

    coordinated = [len(cluster) >= 2 for cluster in clusters]
    for scheme in _CONCURRENT_SCHEMES:
        available = any(coordinated) and all(
            scheme in outcome.schemes
            for outcome, multi in zip(outcomes, coordinated)
            if multi
        )
        if not available:
            continue
        for predicted, table in ((False, schemes), (True, predictions)):
            table[scheme] = stitch(
                scheme, True, [cluster_scheme(o, scheme, predicted) for o in outcomes]
            )

    # Each cluster transmits its own chosen strategy; its airtime share
    # follows the chosen strategy's contention type.
    copa_result = stitch(
        "copa",
        any(o.copa.concurrent for o in outcomes),
        [o.copa for o in outcomes],
        [share(o.copa.concurrent, c) for o, c in zip(outcomes, clusters)],
    )
    copa_fair_result = stitch(
        "copa_fair",
        any(o.copa_fair.concurrent for o in outcomes),
        [o.copa_fair for o in outcomes],
        [share(o.copa_fair.concurrent, c) for o, c in zip(outcomes, clusters)],
    )
    return GraphStrategyOutcome(
        clusters=clusters,
        cluster_outcomes=tuple(outcomes),
        cluster_seeds=seeds,
        schemes=schemes,
        predictions=predictions,
        copa_choices=tuple(o.copa_choice for o in outcomes),
        copa_fair_choices=tuple(o.copa_fair_choice for o in outcomes),
        copa_result=copa_result,
        copa_fair_result=copa_fair_result,
    )
