"""Cluster-formation policies for the N-AP interference-graph engine.

COPA coordinates a pair of interfering APs; the N-cell generalization
(`repro.core.ncell`) coordinates *within* a cluster of APs and falls back
to plain CSMA *across* clusters.  This module decides the clusters.

Clustering is a pure function of the sampled topology's link gains — it
consumes no randomness — so cluster membership is reproducible from the
topology alone and never perturbs the engine's RNG stream.

Policies
--------
``fixed``
    One cluster containing every AP (full coordination).  This is the
    default and makes the N=2 case collapse to the 2-AP engine.
``threshold``
    Single-linkage connected components over the cross-gain graph: APs
    *i* and *j* share an edge when the stronger of the two cross links
    (AP_i -> C_j, AP_j -> C_i) is at least ``threshold_db``.
``greedy``
    Average-linkage agglomerative merging: repeatedly merge the pair of
    clusters with the highest mean pairwise cross-gain while that mean
    stays at or above ``threshold_db`` (optionally capped by
    ``max_cluster_size``).

All tie-breaks are deterministic (smallest AP index first) and clusters
are returned sorted, so the output is a pure function of its inputs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

__all__ = [
    "CLUSTER_POLICIES",
    "DEFAULT_CLUSTER_POLICY",
    "DEFAULT_CLUSTER_THRESHOLD_DB",
    "cross_gain_db",
    "form_clusters",
]

#: Valid values for ``EngineOptions.cluster_policy`` / ``--cluster-policy``.
CLUSTER_POLICIES: Tuple[str, ...] = ("fixed", "threshold", "greedy")

DEFAULT_CLUSTER_POLICY = "fixed"

#: Cross links weaker than this are treated as negligible for
#: coordination purposes.  At the default 15 dBm transmit power a
#: -80 dB link lands at -65 dBm — far above the -101 dBm noise floor,
#: but weak enough on the reference office floor (20 m x 13 m,
#: path-loss exponent 3.1) that it only occurs across heavy shadowing
#: or obstructions, which is exactly when CSMA across clusters is the
#: better trade than paying the coordination overhead.
DEFAULT_CLUSTER_THRESHOLD_DB = -80.0


def cross_gain_db(topology, i: int, j: int) -> float:
    """Symmetric coupling strength between AP pair ``(i, j)``.

    Defined as the stronger of the two interfering links
    AP_i -> client_j and AP_j -> client_i, in dB.
    """

    ap_i = topology.aps[i].name
    ap_j = topology.aps[j].name
    client_i = topology.clients[i].name
    client_j = topology.clients[j].name
    return max(topology.gain_db(ap_i, client_j), topology.gain_db(ap_j, client_i))


def _normalise(clusters: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    ordered = [tuple(sorted(members)) for members in clusters if members]
    return tuple(sorted(ordered, key=lambda members: members[0]))


def _threshold_clusters(topology, threshold_db: float) -> Tuple[Tuple[int, ...], ...]:
    n_aps = len(topology.aps)
    parent = list(range(n_aps))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n_aps):
        for j in range(i + 1, n_aps):
            if cross_gain_db(topology, i, j) >= threshold_db:
                root_i, root_j = find(i), find(j)
                if root_i != root_j:
                    parent[max(root_i, root_j)] = min(root_i, root_j)

    components: dict = {}
    for i in range(n_aps):
        components.setdefault(find(i), []).append(i)
    return _normalise(components.values())


def _greedy_clusters(
    topology,
    threshold_db: float,
    max_cluster_size: Optional[int],
) -> Tuple[Tuple[int, ...], ...]:
    n_aps = len(topology.aps)
    clusters = [[i] for i in range(n_aps)]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                size = len(clusters[a]) + len(clusters[b])
                if max_cluster_size is not None and size > max_cluster_size:
                    continue
                pairs = [
                    cross_gain_db(topology, i, j)
                    for i in clusters[a]
                    for j in clusters[b]
                ]
                mean_gain = sum(pairs) / len(pairs)
                if mean_gain < threshold_db:
                    continue
                key = (-mean_gain, min(clusters[a]), min(clusters[b]))
                if best is None or key < best[0]:
                    best = (key, a, b)
        if best is None:
            break
        _, a, b = best
        clusters[a] = sorted(clusters[a] + clusters[b])
        del clusters[b]
    return _normalise(clusters)


def form_clusters(
    topology,
    policy: str = DEFAULT_CLUSTER_POLICY,
    threshold_db: Optional[float] = None,
    max_cluster_size: Optional[int] = None,
) -> Tuple[Tuple[int, ...], ...]:
    """Partition the topology's APs into coordination clusters.

    Returns a tuple of clusters; each cluster is a sorted tuple of AP
    indices into ``topology.aps`` and clusters are ordered by their
    smallest member.  Every AP appears in exactly one cluster.
    """

    if policy not in CLUSTER_POLICIES:
        raise ValueError(
            f"unknown cluster policy {policy!r}; expected one of {CLUSTER_POLICIES}"
        )
    if threshold_db is None:
        threshold_db = DEFAULT_CLUSTER_THRESHOLD_DB
    n_aps = len(topology.aps)
    if n_aps != len(topology.clients):
        raise ValueError("topology must pair each AP with exactly one client")
    if policy == "fixed":
        return (tuple(range(n_aps)),)
    if policy == "threshold":
        return _threshold_clusters(topology, float(threshold_db))
    return _greedy_clusters(topology, float(threshold_db), max_cluster_size)
