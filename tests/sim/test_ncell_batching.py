"""Batched dispatch of mixed 2-, 3- and 4-AP task lists.

Every cluster policy batches: ``partition_tasks`` groups tasks by AP
count (and options), and ``run_batch`` turns each task into one engine
row per coordination cluster.  The default and ``"fixed"`` policies form
one cluster of all N APs; the ``"threshold"`` and ``"greedy"`` policies
may split a topology, so one unit can hold split and whole topologies
side by side.  The regression proven here: a mixed task list dispatched
through ``run_tasks`` is bit-identical to one-task units
(``chunk_size=1``) and to direct per-task evaluation, in the original
task order, serially and on a pool.
"""

import dataclasses

import pytest

from repro.core.batch import batchable, group_key, partition_tasks
from repro.core.clustering import form_clusters
from repro.core.ncell import GraphStrategyOutcome
from repro.core.options import EngineOptions
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets
from repro.sim.runner import build_tasks, evaluate_topology, run_tasks

from tests.core.test_batch import assert_same_outcome

CONFIG = SimConfig(n_topologies=2)
SPECS = [
    ScenarioSpec(f"1x1-n{n}", 1, 1, include_copa_plus=False, n_aps=n) for n in (2, 3, 4)
]


def n_aps(task) -> int:
    return len(task.channels.topology.aps)


@pytest.fixture(scope="module")
def mixed_tasks():
    """2-, 3- and 4-AP topologies interleaved in one task list."""
    by_count = [generate_channel_sets(spec, CONFIG) for spec in SPECS]
    interleaved = [sets[t] for t in range(CONFIG.n_topologies) for sets in by_count]
    return build_tasks(
        interleaved,
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
    )


def with_policy(tasks, policy):
    return [dataclasses.replace(t, options=EngineOptions(cluster_policy=policy)) for t in tasks]


def assert_same_records(records_a, records_b):
    assert [r.index for r in records_a] == [r.index for r in records_b]
    for a, b in zip(records_a, records_b):
        assert type(a.outcome) is type(b.outcome)
        assert_same_outcome(a.outcome, b.outcome)


class TestClassification:
    @pytest.mark.parametrize("policy", [None, "fixed", "threshold", "greedy"])
    def test_n_ap_tasks_group_by_ap_count(self, mixed_tasks, policy):
        tasks = with_policy(mixed_tasks, policy)
        assert all(batchable(task) for task in tasks)
        assert len({group_key(task) for task in tasks}) == 3
        batches, singles = partition_tasks(tasks)
        assert singles == []
        assert [[t.index for t in group] for group in batches] == [[0, 3], [1, 4], [2, 5]]
        assert [{n_aps(t) for t in group} for group in batches] == [{2}, {3}, {4}]


class TestMixedDispatchBitIdentity:
    def test_batched_run_matches_forced_per_topology(self, mixed_tasks):
        for policy in (None, "fixed"):
            tasks = with_policy(mixed_tasks, policy)
            batched, stats = run_tasks(tasks, workers=1)
            single, single_stats = run_tasks(tasks, workers=1, chunk_size=1)
            assert stats.batch_size == 2 and single_stats.batch_size == 1
            assert_same_records(batched, single)

    def test_batched_run_matches_direct_evaluation(self, mixed_tasks):
        batched, _ = run_tasks(mixed_tasks, workers=1)
        direct = [evaluate_topology(task).record for task in mixed_tasks]
        assert_same_records(batched, direct)

    def test_pooled_run_matches_serial(self, mixed_tasks):
        pooled, stats = run_tasks(mixed_tasks, workers=2, chunk_size=2)
        serial, _ = run_tasks(mixed_tasks, workers=1, chunk_size=1)
        assert stats.parallel and stats.batch_size == 2
        assert_same_records(pooled, serial)

    def test_fixed_policy_matches_default(self, mixed_tasks):
        default, _ = run_tasks(mixed_tasks, workers=1)
        fixed, _ = run_tasks(with_policy(mixed_tasks, "fixed"), workers=1)
        assert_same_records(default, fixed)


#: Splits some of the mixed topologies and keeps others whole.
SPLIT_THRESHOLD_DB = -65.0


class TestSplitTopologiesShareUnits:
    """Split and whole topologies of one AP count run in one unit."""

    @pytest.fixture(scope="class", params=["threshold", "greedy"])
    def split_tasks(self, request, mixed_tasks):
        options = EngineOptions(
            cluster_policy=request.param, cluster_threshold_db=SPLIT_THRESHOLD_DB
        )
        return [
            dataclasses.replace(task, options=options, include_copa_plus=True)
            for task in mixed_tasks
        ]

    def test_a_unit_holds_split_and_whole_topologies(self, split_tasks):
        options = split_tasks[0].options
        batches, singles = partition_tasks(split_tasks)
        assert singles == []
        sizes = [
            {
                len(form_clusters(t.channels.topology, options.cluster_policy, SPLIT_THRESHOLD_DB))
                for t in group
            }
            for group in batches
        ]
        assert any(1 in counts and len(counts) > 1 for counts in sizes), sizes

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_shared_units_match_one_task_units(self, split_tasks, workers):
        batched, stats = run_tasks(split_tasks, workers=workers, chunk_size=2)
        single, single_stats = run_tasks(split_tasks, workers=1, chunk_size=1)
        assert stats.batch_size == 2 and single_stats.batch_size == 1
        assert stats.parallel == (workers > 1)
        assert_same_records(batched, single)
        for a, b in zip(batched, single):
            assert_same_outcome(a.plus_outcome, b.plus_outcome)
        kinds = {type(record.outcome) for record in batched}
        assert GraphStrategyOutcome in kinds and len(kinds) == 2


class TestMultiClusterThroughRunner:
    """An N-AP task with a splitting threshold runs the combined engine."""

    def test_threshold_task_produces_combined_outcome(self):
        config = SimConfig(n_topologies=5)
        quads = generate_channel_sets(
            ScenarioSpec("4x2-n4", 4, 2, include_copa_plus=False, n_aps=4), config
        )
        options = EngineOptions(
            cluster_policy="threshold", cluster_threshold_db=-68.0
        )
        tasks = build_tasks(
            [quads[1]],  # seeded topology known to split into two pairs
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            options=options,
        )
        assert batchable(tasks[0])
        records, _ = run_tasks(tasks, workers=1)
        outcome = records[0].outcome
        assert isinstance(outcome, GraphStrategyOutcome)
        assert outcome.clusters == ((0, 2), (1, 3))
        replay = evaluate_topology(tasks[0]).record.outcome
        assert replay.clusters == outcome.clusters
        assert_same_outcome(outcome, replay)
