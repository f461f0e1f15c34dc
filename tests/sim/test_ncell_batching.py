"""Batched dispatch of mixed 2-AP / N-AP task lists (PR-10 satellite).

``partition_tasks`` must classify every N > 2 task — and every task with
an explicit cluster policy — to the serial per-topology path, where
``evaluate_topology`` routes it through the interference-graph engine;
the surviving 2-AP tasks keep riding the PR-7 batched engine.  The
regression proven here: a mixed task list dispatched through
``run_tasks`` (batching on) is bit-identical to the forced per-topology
path and to direct per-task evaluation, in the original task order.
"""

import numpy as np
import pytest

from repro.core.batch import batchable, partition_tasks
from repro.core.ncell import GraphStrategyOutcome
from repro.core.options import EngineOptions
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets
from repro.sim.runner import build_tasks, evaluate_topology, run_tasks

from tests.core.test_batch import assert_same_outcome

CONFIG = SimConfig(n_topologies=2)
SPEC_2AP = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
SPEC_4AP = ScenarioSpec("1x1-n4", 1, 1, include_copa_plus=False, n_aps=4)


@pytest.fixture(scope="module")
def mixed_tasks():
    """2-AP and 4-AP topologies interleaved in one task list."""
    pairs = generate_channel_sets(SPEC_2AP, CONFIG)
    quads = generate_channel_sets(SPEC_4AP, CONFIG)
    interleaved = [pairs[0], quads[0], pairs[1], quads[1]]
    return build_tasks(
        interleaved,
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
    )


def assert_same_records(records_a, records_b):
    assert [r.index for r in records_a] == [r.index for r in records_b]
    for a, b in zip(records_a, records_b):
        assert type(a.outcome) is type(b.outcome)
        assert_same_outcome(a.outcome, b.outcome)


class TestClassification:
    def test_n_ap_tasks_classify_to_singles(self, mixed_tasks):
        batches, singles = partition_tasks(mixed_tasks)
        n_aps = lambda task: len(task.channels.topology.aps)
        assert all(n_aps(task) == 2 for group in batches for task in group)
        assert sorted(task.index for task in singles) == [
            task.index for task in mixed_tasks if n_aps(task) != 2
        ]
        # Together they cover the input exactly once.
        total = [task.index for group in batches for task in group]
        total += [task.index for task in singles]
        assert sorted(total) == [task.index for task in mixed_tasks]

    def test_cluster_policy_tasks_classify_to_singles(self, mixed_tasks):
        import dataclasses

        two_ap = next(
            task for task in mixed_tasks if len(task.channels.topology.aps) == 2
        )
        assert batchable(two_ap)
        routed = dataclasses.replace(
            two_ap, options=EngineOptions(cluster_policy="fixed")
        )
        assert not batchable(routed)
        batches, singles = partition_tasks([routed])
        assert not batches and singles == [routed]


class TestMixedDispatchBitIdentity:
    def test_batched_run_matches_forced_per_topology(self, mixed_tasks):
        batched, stats = run_tasks(mixed_tasks, workers=1)
        serial, _ = run_tasks(mixed_tasks, workers=1, chunk_size=1)
        assert_same_records(batched, serial)

    def test_batched_run_matches_direct_evaluation(self, mixed_tasks):
        batched, _ = run_tasks(mixed_tasks, workers=1)
        direct = [evaluate_topology(task).record for task in mixed_tasks]
        assert_same_records(batched, direct)

    def test_pooled_run_matches_serial(self, mixed_tasks):
        pooled, stats = run_tasks(mixed_tasks, workers=2)
        serial, _ = run_tasks(mixed_tasks, workers=1)
        assert_same_records(pooled, serial)
        assert stats.parallel


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
        assert not batchable(tasks[0])
        records, _ = run_tasks(tasks, workers=1)
        outcome = records[0].outcome
        assert isinstance(outcome, GraphStrategyOutcome)
        assert outcome.clusters == ((0, 2), (1, 3))
        replay = evaluate_topology(tasks[0]).record.outcome
        assert replay.clusters == outcome.clusters
        assert_same_outcome(outcome, replay)
