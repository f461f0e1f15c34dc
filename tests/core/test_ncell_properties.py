"""Oracle-checked properties of the N-AP interference-graph engine.

Seeded sweeps over random N ∈ {3, 4, 6} office topologies build the
strategy engine's concurrent interference graph and hold it against the
PR-6 optimization oracle (:mod:`repro.core.oracle`):

* **equilibrium tolerance** — ``equilibrium_gaps`` regrets stay inside
  the documented policy (EXPERIMENTS.md, "Equilibrium tolerance"): every
  per-player regret is finite and inside the structural ``[0, 1]`` band,
  and a graph with no coupling reaches (near-)zero regret.  The Figure-6
  best-response dynamics deliberately keep the best *aggregate* iterate,
  which on dense office graphs parks individual players far from their
  best response — regrets near 1.0 are expected and documented, so a
  small-epsilon Nash bound would be dishonest here (the existing
  ``test_differential_oracle`` suite asserts the same band).
* **incentive structure** — ``incentive_gaps`` yields one coherent entry
  per player whose ``compatible()`` verdict matches the raw throughputs.
* **invariance / invariants** — ``allocate_graph`` is AP-permutation
  equivariant (it is a synchronous/Jacobi iteration, so player order
  cannot matter), clustering is label-equivariant, and every per-player
  allocation keeps the power-budget and drop invariants generalized from
  ``test_allocator_properties.py``.
"""

import math

import numpy as np
import pytest

from repro.core.clustering import form_clusters
from repro.core.strategy import StrategyEngine
from repro.core.oracle import (
    InterferenceGraph,
    allocate_graph,
    equilibrium_gaps,
    incentive_gaps,
)
from repro.sim.config import DEFAULT_CONFIG

#: The sweep grid: AP counts crossed with topology/CSI seeds.
N_VALUES = (3, 4, 6)
SEEDS = (0, 1, 2)

#: Documented equilibrium-tolerance policy (EXPERIMENTS.md): regrets are
#: structural — always inside [0, 1] — because the Figure-6 dynamics
#: optimize the aggregate, not per-player equilibria.  Uncoupled players
#: must sit at their solo optimum up to the iteration's own tolerance.
REGRET_TOLERANCE = 1.0
ISOLATED_REGRET_TOLERANCE = 1e-9

#: Budget slack copied from test_allocator_properties.py.
BUDGET_SLACK = 1.0 + 1e-9


def _cluster_engine(n_aps, seed, ap_antennas=4, client_antennas=2):
    """The one-row engine of a single N-AP cluster."""
    config = DEFAULT_CONFIG
    rng = np.random.default_rng(seed)
    topology = config.topology_generator().sample(
        rng, ap_antennas, client_antennas, n_aps=n_aps
    )
    channels = config.channel_model().realize(topology, rng)
    return StrategyEngine(
        channels,
        imperfections=config.imperfections(),
        rng=np.random.default_rng(seed + 100),
    ).batch


def _engine_graph(n_aps, seed):
    engine = _cluster_engine(n_aps, seed)
    (graph,) = engine.interference_graphs(engine.beamforming_designs())
    return graph


# ---------------------------------------------------------------------------
# Equilibrium gaps: the documented tolerance policy.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_aps", N_VALUES)
@pytest.mark.parametrize("seed", SEEDS)
def test_equilibrium_gaps_within_documented_tolerance(n_aps, seed):
    graph = _engine_graph(n_aps, seed)
    allocation = allocate_graph(graph)
    gaps = equilibrium_gaps(graph, allocation.allocations)

    assert len(gaps) == n_aps
    assert [gap.player for gap in gaps] == [p.name for p in graph.players]
    for gap in gaps:
        assert math.isfinite(gap.regret)
        assert math.isfinite(gap.current_bps)
        assert math.isfinite(gap.best_response_bps)
        assert 0.0 <= gap.regret <= REGRET_TOLERANCE
        assert gap.best_response_bps > 0.0
        # regret is the normalized shortfall against the best response.
        expected = max(0.0, gap.best_response_bps - gap.current_bps)
        expected /= gap.best_response_bps
        assert gap.regret == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n_aps", N_VALUES)
def test_uncoupled_graph_reaches_zero_regret(n_aps):
    """No coupling, no leakage: everyone's joint play IS the best response."""
    base = _engine_graph(n_aps, seed=0)
    isolated = InterferenceGraph(
        players=base.players, coupling={}, leakage_linear=0.0
    )
    allocation = allocate_graph(isolated)
    assert allocation.converged
    for gap in equilibrium_gaps(isolated, allocation.allocations):
        assert gap.regret <= ISOLATED_REGRET_TOLERANCE


# ---------------------------------------------------------------------------
# Incentive gaps: structural coherence against the raw numbers.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_aps", N_VALUES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_incentive_gaps_cohere_with_throughputs(n_aps, seed):
    graph = _engine_graph(n_aps, seed)
    allocation = allocate_graph(graph)
    gaps = incentive_gaps(graph, allocation.allocations)

    assert len(gaps) == n_aps
    assert [gap.player for gap in gaps] == [p.name for p in graph.players]
    for gap in gaps:
        assert gap.sequential_bps > 0.0
        assert gap.concurrent_bps >= 0.0
        assert gap.compatible(slack=0.0) == (
            gap.concurrent_bps >= gap.sequential_bps
        )
        # A generous slack must only ever widen the compatible set.
        assert gap.compatible(slack=1.0) or gap.concurrent_bps < 0.0


# ---------------------------------------------------------------------------
# Permutation equivariance.
# ---------------------------------------------------------------------------


def _permuted_graph(graph, perm):
    """Relabel players so new index j holds old player perm[j]."""
    inverse = {old: new for new, old in enumerate(perm)}
    players = [graph.players[old] for old in perm]
    coupling = {
        (inverse[victim], inverse[source]): matrix
        for (victim, source), matrix in graph.coupling.items()
    }
    return InterferenceGraph(
        players=players, coupling=coupling, leakage_linear=graph.leakage_linear
    )


@pytest.mark.parametrize("n_aps", N_VALUES)
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_allocate_graph_is_permutation_equivariant(n_aps, seed):
    graph = _engine_graph(n_aps, seed)
    perm = list(np.random.default_rng(seed + 999).permutation(n_aps))
    permuted = _permuted_graph(graph, perm)

    base = allocate_graph(graph)
    other = allocate_graph(permuted)

    assert base.iterations == other.iterations
    assert base.converged == other.converged
    for new_idx, old_idx in enumerate(perm):
        np.testing.assert_allclose(
            other.allocations[new_idx].powers,
            base.allocations[old_idx].powers,
            rtol=1e-9,
            atol=1e-12,
        )
        np.testing.assert_array_equal(
            other.allocations[new_idx].used, base.allocations[old_idx].used
        )


@pytest.mark.parametrize("n_aps", N_VALUES)
@pytest.mark.parametrize("policy", ("threshold", "greedy"))
def test_clustering_is_label_equivariant(n_aps, policy):
    """Relabeling the APs relabels the clusters — nothing else moves."""
    config = DEFAULT_CONFIG
    rng = np.random.default_rng(42)
    topology = config.topology_generator().sample(rng, 4, 2, n_aps=n_aps)
    perm = list(np.random.default_rng(7).permutation(n_aps))
    from repro.phy.topology import Topology

    permuted = Topology(
        aps=[topology.aps[old] for old in perm],
        clients=[topology.clients[old] for old in perm],
        link_gain_db=dict(topology.link_gain_db),
    )
    inverse = {old: new for new, old in enumerate(perm)}

    threshold = -70.0
    base = form_clusters(topology, policy=policy, threshold_db=threshold)
    relabeled = form_clusters(permuted, policy=policy, threshold_db=threshold)

    expected = sorted(
        tuple(sorted(inverse[member] for member in cluster)) for cluster in base
    )
    assert sorted(tuple(sorted(c)) for c in relabeled) == expected


# ---------------------------------------------------------------------------
# Budget / drop invariants (generalized from test_allocator_properties.py).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_aps", N_VALUES)
@pytest.mark.parametrize("seed", SEEDS)
def test_graph_allocations_keep_budget_and_drop_invariants(n_aps, seed):
    graph = _engine_graph(n_aps, seed)
    allocation = allocate_graph(graph)
    assert len(allocation.allocations) == n_aps
    for player, alloc in zip(graph.players, allocation.allocations):
        powers = np.asarray(alloc.powers)
        used = np.asarray(alloc.used)
        assert powers.shape == player.gains.shape
        assert used.shape == player.gains.shape
        # Never negative, never over budget (per subcarrier-summed total).
        assert np.all(powers >= 0.0)
        assert float(powers.sum()) <= player.budget * BUDGET_SLACK
        # Dropped streams carry exactly zero power.
        assert np.all(powers[~used] == 0.0)
