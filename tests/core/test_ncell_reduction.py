"""N = 2 reduction proofs for the interference-graph strategy engine.

The contract (see :mod:`repro.core.ncell`): the N-AP engine with a single
cluster is the legacy 2-AP engine — not approximately, *bit-identically*.
The single-cluster path hands the caller's RNG straight to a legacy
:class:`StrategyEngine` and returns its outcome object unchanged, so any
divergence here means the delegation broke.

Three layers of proof:

* engine level — same channels, same RNG seed, every scheme's measured
  and predicted results exactly equal across all three antenna
  configurations;
* experiment level — ``run_experiment`` with ``cluster_policy="fixed"``
  (which routes through :class:`GraphStrategyEngine`) reproduces the
  default path exactly for every measured series of all three paper
  scenarios;
* degeneracy — a cluster of size 1 collapses to the contention-only menu
  (CSMA / COPA-SEQ, nothing concurrent), and the combined outcome is
  exactly the per-cluster outcomes stitched at sequential airtime shares.
"""

import numpy as np
import pytest

from repro.core.ncell import GraphStrategyEngine, restrict_channels
from repro.core.options import EngineOptions
from repro.core.schemes import Scheme
from repro.core.strategy import StrategyEngine, StrategyOutcome
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.experiment import (
    CONSTRAINED_4X2,
    OVERCONSTRAINED_3X2,
    SINGLE_ANTENNA,
    run_experiment,
)

#: The paper's three antenna configurations (§4.1).
ANTENNAS = {"1x1": (1, 1), "4x2": (4, 2), "3x2": (3, 2)}
SEEDS = (0, 1, 2)


def _channels(seed, ap_antennas, client_antennas, n_aps=2):
    config = DEFAULT_CONFIG
    rng = np.random.default_rng(seed)
    topology = config.topology_generator().sample(
        rng, ap_antennas, client_antennas, n_aps=n_aps
    )
    return config.channel_model().realize(topology, rng)


def _assert_results_identical(lhs, rhs):
    assert lhs.name == rhs.name
    assert lhs.concurrent == rhs.concurrent
    assert lhs.client_throughput_bps == rhs.client_throughput_bps
    assert lhs.aggregate_bps == rhs.aggregate_bps
    assert (lhs.allocations is None) == (rhs.allocations is None)
    if lhs.allocations is not None:
        for left, right in zip(lhs.allocations, rhs.allocations):
            assert np.array_equal(left.powers, right.powers)
            assert np.array_equal(left.used, right.used)


def _assert_outcomes_identical(lhs, rhs):
    assert set(lhs.schemes) == set(rhs.schemes)
    assert set(lhs.predictions) == set(rhs.predictions)
    for table in ("schemes", "predictions"):
        for scheme, result in getattr(lhs, table).items():
            _assert_results_identical(result, getattr(rhs, table)[scheme])
    assert lhs.copa_choice == rhs.copa_choice
    assert lhs.copa_fair_choice == rhs.copa_fair_choice
    _assert_results_identical(lhs.copa, rhs.copa)
    _assert_results_identical(lhs.copa_fair, rhs.copa_fair)


# ---------------------------------------------------------------------------
# Engine level: GraphStrategyEngine at N = 2 IS the legacy engine.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ANTENNAS))
@pytest.mark.parametrize("seed", SEEDS)
def test_graph_engine_is_bit_identical_at_n2(name, seed):
    ap_antennas, client_antennas = ANTENNAS[name]
    channels = _channels(seed, ap_antennas, client_antennas)
    imperfections = DEFAULT_CONFIG.imperfections()

    legacy = StrategyEngine(
        channels, imperfections=imperfections, rng=np.random.default_rng(seed + 1)
    ).run()
    graph = GraphStrategyEngine(
        channels, imperfections=imperfections, rng=np.random.default_rng(seed + 1)
    ).run()

    # Single cluster returns the inner legacy outcome object unchanged.
    assert isinstance(graph, StrategyOutcome)
    _assert_outcomes_identical(graph, legacy)


def test_graph_engine_defaults_to_one_fixed_cluster():
    channels = _channels(0, 4, 2)
    engine = GraphStrategyEngine(channels)
    assert engine.clusters == ((0, 1),)


# ---------------------------------------------------------------------------
# Experiment level: routing through the graph engine changes nothing at N=2.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec", [SINGLE_ANTENNA, CONSTRAINED_4X2, OVERCONSTRAINED_3X2], ids=lambda s: s.name
)
def test_experiment_series_identical_under_fixed_cluster_policy(spec):
    config = DEFAULT_CONFIG.with_(n_topologies=3)
    base = run_experiment(spec, config)
    routed = run_experiment(
        spec, config, options=EngineOptions(cluster_policy="fixed")
    )
    series = base.available_series()
    assert series == routed.available_series()
    assert series  # every scenario measures at least csma/copa_seq/copa
    for key in series:
        np.testing.assert_array_equal(
            base.series_mbps(key), routed.series_mbps(key), err_msg=key
        )


# ---------------------------------------------------------------------------
# Degeneracy: singleton clusters fall back to contention.
# ---------------------------------------------------------------------------


def test_singleton_clusters_degenerate_to_contention_menu():
    """threshold 0 dB splits a 2-AP topology into two singleton clusters."""
    channels = _channels(0, 4, 2)
    imperfections = DEFAULT_CONFIG.imperfections()
    engine = GraphStrategyEngine(
        channels,
        imperfections=imperfections,
        rng=np.random.default_rng(5),
        cluster_policy="threshold",
        cluster_threshold_db=0.0,
    )
    assert engine.clusters == ((0,), (1,))
    outcome = engine.run()

    # A cluster of size 1 has nobody to coordinate with: the combined menu
    # holds only the sequential schemes — nothing concurrent survives.
    assert set(outcome.schemes) == {Scheme.CSMA, Scheme.COPA_SEQ}
    assert set(outcome.predictions) == {Scheme.CSMA, Scheme.COPA_SEQ}
    for choices in (outcome.copa_choices, outcome.copa_fair_choices):
        assert all(choice in (Scheme.CSMA, Scheme.COPA_SEQ) for choice in choices)
    assert not outcome.copa.concurrent
    assert not outcome.copa_fair.concurrent


def test_singleton_combination_is_exact_airtime_stitching():
    """Combined singleton results are the isolated runs at k/N airtime."""
    channels = _channels(0, 4, 2)
    imperfections = DEFAULT_CONFIG.imperfections()
    engine = GraphStrategyEngine(
        channels,
        imperfections=imperfections,
        rng=np.random.default_rng(5),
        cluster_policy="threshold",
        cluster_threshold_db=0.0,
    )
    outcome = engine.run()
    assert len(outcome.cluster_seeds) == 2

    for index, (cluster, seed) in enumerate(
        zip(outcome.clusters, outcome.cluster_seeds)
    ):
        sub = restrict_channels(channels, cluster)
        isolated = StrategyEngine(
            sub, imperfections=imperfections, rng=np.random.default_rng(seed)
        ).run()
        # Stored per-cluster outcome is exactly the isolated replay...
        _assert_outcomes_identical(isolated, outcome.cluster_outcomes[index])
        # ...and the combined sequential results are the isolated values at
        # the cluster's k/N = 1/2 airtime share, stitched by global index.
        for scheme in (Scheme.CSMA, Scheme.COPA_SEQ):
            for local, global_idx in enumerate(cluster):
                assert outcome.schemes[scheme].client_throughput_bps[global_idx] == (
                    isolated.schemes[scheme].client_throughput_bps[local] * 0.5
                )


def test_isolated_menu_has_no_interference_terms():
    """A 1-AP cluster never offers nulling or concurrent schemes."""
    channels = _channels(3, 4, 2)
    sub = restrict_channels(channels, (0,))
    assert len(sub.topology.aps) == 1
    engine = StrategyEngine(
        sub,
        imperfections=DEFAULT_CONFIG.imperfections(),
        rng=np.random.default_rng(7),
    )
    assert engine.batch.k == 1
    outcome = engine.run()
    assert set(outcome.schemes) == {Scheme.CSMA, Scheme.COPA_SEQ}
    assert set(outcome.predictions) == {Scheme.CSMA, Scheme.COPA_SEQ}
    assert outcome.copa_choice in (Scheme.CSMA, Scheme.COPA_SEQ)
    # Alone on the medium: the sequential airtime share is the whole of it,
    # so COPA-SEQ's measured throughput is its rate after MAC overhead.
    copa_seq = outcome.schemes[Scheme.COPA_SEQ]
    factor = engine.batch.overhead_model.net_throughput_factor(
        engine.batch.overheads.copa_sequential
    )
    assert copa_seq.client_throughput_bps == (copa_seq.rates[0].goodput_bps * factor,)
