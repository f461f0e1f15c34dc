"""Batched strategy engine: partitioning rules and bit-identity.

The contract pinned here: for every batchable task,
:func:`repro.core.batch.run_batch` over B rows returns the *same bits* as
B one-row runs of the per-topology
:func:`repro.sim.runner.evaluate_topology` — every scheme, every
prediction, every per-stream allocation array, every rate decision, and
the COPA/COPA-fair choices derived from them.  (That the one-row engine
still reproduces the original serial engine is pinned separately, by
``test_engine_digests.py``.)  ``pytest.approx`` would hide exactly the
class of bug this suite exists to catch, so all comparisons are exact.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import batch, mercury
from repro.core.batch import (
    BATCHED_ALLOCATORS,
    BatchedStrategyEngine,
    batchable,
    group_key,
    measure_csi,
    partition_tasks,
    run_batch,
)
from repro.core.equi_snr import allocate_power_only, allocate_selection_only
from repro.core.multi_decoder import per_subcarrier_rates
from repro.core.options import EngineOptions
from repro.obs.collector import Collector
from repro.phy.channel import ChannelModel
from repro.phy.topology import TopologyGenerator
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets
from repro.sim.faults import FaultKind, FaultPlan
from repro.sim.runner import build_tasks, evaluate_topology


def make_tasks(spec, n_topologies=3, options=None, **kwargs):
    config = SimConfig(n_topologies=n_topologies)
    return build_tasks(
        generate_channel_sets(spec, config),
        base_seed=config.seed,
        coherence_s=config.coherence_s,
        imperfections=config.imperfections(),
        include_copa_plus=spec.include_copa_plus,
        options=options,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Exact structural equality helpers (shared with the runner-level suite).
# ---------------------------------------------------------------------------


def assert_same_allocation(a, b):
    assert (a is None) == (b is None)
    if a is None:
        return
    np.testing.assert_array_equal(a.powers, b.powers)
    np.testing.assert_array_equal(a.used, b.used)
    assert len(a.per_stream) == len(b.per_stream)
    for sa, sb in zip(a.per_stream, b.per_stream):
        np.testing.assert_array_equal(sa.powers, sb.powers)
        np.testing.assert_array_equal(sa.used, sb.used)
        assert sa.equalized_snr == sb.equalized_snr
        assert sa.mcs == sb.mcs
        assert sa.goodput_bps == sb.goodput_bps


def assert_same_rate(a, b):
    """Equal selections of the same type (``RateSelection`` or the §4.6
    ``MultiDecoderSelection``), field by field."""
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        left, right = getattr(a, field.name), getattr(b, field.name)
        if isinstance(left, np.ndarray):
            np.testing.assert_array_equal(left, right)
        else:
            assert left == right


def assert_same_scheme(a, b):
    assert a.name == b.name
    assert a.concurrent == b.concurrent
    assert a.client_throughput_bps == b.client_throughput_bps
    assert (a.rates is None) == (b.rates is None)
    if a.rates is not None:
        assert len(a.rates) == len(b.rates)
        for ra, rb in zip(a.rates, b.rates):
            assert_same_rate(ra, rb)
    assert (a.allocations is None) == (b.allocations is None)
    if a.allocations is not None:
        assert len(a.allocations) == len(b.allocations)
        for aa, ab in zip(a.allocations, b.allocations):
            assert_same_allocation(aa, ab)


def assert_same_outcome(a, b):
    """Equal outcomes, including each cluster of a split topology's."""
    assert type(a) is type(b)
    if hasattr(a, "cluster_outcomes"):
        assert a.clusters == b.clusters
        assert a.cluster_seeds == b.cluster_seeds
        for ca, cb in zip(a.cluster_outcomes, b.cluster_outcomes):
            assert_same_outcome(ca, cb)
    assert a.copa_choice == b.copa_choice
    assert a.copa_fair_choice == b.copa_fair_choice
    assert set(a.schemes) == set(b.schemes)
    assert set(a.predictions) == set(b.predictions)
    for key in a.schemes:
        assert_same_scheme(a.schemes[key], b.schemes[key])
    for key in a.predictions:
        assert_same_scheme(a.predictions[key], b.predictions[key])


def assert_same_records(records_a, records_b):
    assert [r.index for r in records_a] == [r.index for r in records_b]
    for a, b in zip(records_a, records_b):
        assert_same_outcome(a.outcome, b.outcome)
        assert (a.plus_outcome is None) == (b.plus_outcome is None)
        if a.plus_outcome is not None:
            assert_same_outcome(a.plus_outcome, b.plus_outcome)


def assert_batch_matches_one_row(tasks):
    batches, singles = partition_tasks(tasks)
    assert not singles and len(batches) == 1
    for task, (outcome, plus) in zip(tasks, run_batch(batches[0])):
        serial = evaluate_topology(task).record
        assert_same_outcome(outcome, serial.outcome)
        assert (plus is None) == (serial.plus_outcome is None)
        if plus is not None:
            assert_same_outcome(plus, serial.plus_outcome)


# ---------------------------------------------------------------------------
# Partitioning.
# ---------------------------------------------------------------------------


class TestBatchable:
    def test_default_tasks_are_batchable(self):
        tasks = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False))
        assert all(batchable(task) for task in tasks)

    def test_only_tasks_with_an_armed_fault_are_not(self):
        tasks = make_tasks(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            n_topologies=5,
            fault_plan=FaultPlan.at([0], FaultKind.CRASH),
        )
        assert [batchable(task) for task in tasks] == [False, True, True, True, True]

    def test_spent_fault_is_batchable_on_the_retry(self):
        (task,) = make_tasks(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            n_topologies=1,
            fault_plan=FaultPlan.at([0], FaultKind.CRASH, trips=1),
        )
        assert not batchable(task)
        assert batchable(dataclasses.replace(task, attempt=1))

    def test_observed_tasks_are_batchable(self):
        """Observation never changes the dispatch unit, only its trace."""
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        plain, observed = make_tasks(spec), make_tasks(spec, observe=True)
        assert all(batchable(task) for task in observed)
        assert [group_key(task) for task in observed] == [group_key(task) for task in plain]

    def test_mixed_antenna_counts_are_not(self):
        uniform = TopologyGenerator().sample(np.random.default_rng(5), 4, 2)
        mixed = dataclasses.replace(
            uniform, aps=[uniform.aps[0], dataclasses.replace(uniform.aps[1], n_antennas=2)]
        )
        tasks = build_tasks(
            [ChannelModel().realize(t, np.random.default_rng(6)) for t in (uniform, mixed)],
            base_seed=0,
            coherence_s=0.030,
            imperfections=SimConfig().imperfections(),
        )
        assert [batchable(task) for task in tasks] == [True, False]

    def test_custom_rate_selector_is_batchable(self):
        tasks = make_tasks(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            options=EngineOptions(rate_selector=per_subcarrier_rates),
        )
        assert all(batchable(task) for task in tasks)

    def test_registered_allocator_twin_is_batchable(self):
        assert mercury.mercury_allocate in BATCHED_ALLOCATORS
        tasks = make_tasks(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            options=EngineOptions(allocator=mercury.mercury_allocate),
        )
        assert all(batchable(task) for task in tasks)

    def test_unregistered_allocator_is_batchable(self):
        def custom_allocator(*args, **kwargs):  # pragma: no cover - never called
            raise NotImplementedError

        assert custom_allocator not in BATCHED_ALLOCATORS
        tasks = make_tasks(
            ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
            options=EngineOptions(allocator=custom_allocator),
        )
        assert all(batchable(task) for task in tasks)


class TestPartition:
    def test_homogeneous_tasks_form_one_batch(self):
        tasks = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), 4)
        batches, singles = partition_tasks(tasks)
        assert singles == []
        assert [task.index for batch in batches for task in batch] == [0, 1, 2, 3]
        assert len(batches) == 1

    def test_max_batch_splits_runs(self):
        tasks = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), 5)
        batches, singles = partition_tasks(tasks, max_batch=2)
        assert singles == []
        assert [len(batch) for batch in batches] == [2, 2, 1]

    def test_mixed_geometries_group_separately(self):
        ones = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), 2)
        fours = make_tasks(ScenarioSpec("4x2", 4, 2, include_copa_plus=False), 2)
        batches, singles = partition_tasks(ones + fours)
        assert singles == []
        assert len(batches) == 2
        assert group_key(ones[0]) != group_key(fours[0])

    def test_unbatchable_tasks_become_singles(self):
        """Only armed faults leave the batch; a cluster policy groups apart."""
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        good = make_tasks(spec, 2)
        faulted = make_tasks(spec, 2, fault_plan=FaultPlan.at([0, 1], FaultKind.CRASH))
        clustered = make_tasks(spec, 2, options=EngineOptions(cluster_policy="threshold"))
        batches, singles = partition_tasks(good + faulted + clustered)
        assert singles == faulted
        assert batches == [good, clustered]

    def test_coverage_is_exact(self):
        tasks = make_tasks(ScenarioSpec("3x2", 3, 2, include_copa_plus=False), 4)
        tasks[1] = dataclasses.replace(tasks[1], options=EngineOptions(cluster_policy="greedy"))
        tasks[3] = dataclasses.replace(tasks[3], options=EngineOptions(cluster_policy="greedy"))
        tasks[2] = dataclasses.replace(tasks[2], fault_plan=FaultPlan.at([2], FaultKind.CRASH))
        batches, singles = partition_tasks(tasks)
        assert [[task.index for task in batch] for batch in batches] == [[0], [1, 3]]
        assert [task.index for task in singles] == [2]
        indices = sorted(
            [task.index for batch in batches for task in batch]
            + [task.index for task in singles]
        )
        assert indices == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Bit-identity: B rows against B one-row runs.
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec("1x1", 1, 1, include_copa_plus=True),
            ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
            ScenarioSpec("3x2", 3, 2, include_copa_plus=True),
        ],
        ids=["1x1+plus", "4x2", "3x2+plus"],
    )
    def test_every_scenario_matches_serial_bit_for_bit(self, spec):
        assert_batch_matches_one_row(make_tasks(spec))

    def test_weakened_interference_matches_serial(self):
        spec = ScenarioSpec(
            "4x2", 4, 2, interference_offset_db=-10.0, include_copa_plus=False
        )
        assert_batch_matches_one_row(make_tasks(spec, 2))

    def test_mercury_allocator_batch_matches_serial(self):
        spec = ScenarioSpec("3x2", 3, 2, include_copa_plus=False)
        assert_batch_matches_one_row(
            make_tasks(spec, 2, options=EngineOptions(allocator=mercury.mercury_allocate))
        )

    @pytest.mark.parametrize(
        "spec, options",
        [
            (
                ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
                EngineOptions(allocator=allocate_power_only),
            ),
            (
                ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
                EngineOptions(allocator=allocate_selection_only),
            ),
            (
                ScenarioSpec("3x2", 3, 2, include_copa_plus=True),
                EngineOptions(rate_selector=per_subcarrier_rates),
            ),
        ],
        ids=["power-only", "selection-only", "per-subcarrier-rates+plus"],
    )
    def test_lifted_allocator_and_selector_match_one_row(self, spec, options):
        """Allocators and selectors without a batched twin run row by row;
        B rows still equal B one-row runs, selection types included."""
        assert_batch_matches_one_row(make_tasks(spec, 2, options=options))

    def test_oracle_check_batch_matches_serial(self):
        """Shadow oracle validation must neither change results nor crash
        the batched dispatch."""
        spec = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
        assert_batch_matches_one_row(
            make_tasks(spec, 2, options=EngineOptions(oracle_check=True))
        )

    def test_batch_position_does_not_change_results(self):
        """A topology's bits must not depend on which rows share its batch."""
        tasks = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), 4)
        full = run_batch(tasks)
        tail = run_batch(tasks[2:])
        for (a, _), (b, _) in zip(full[2:], tail):
            assert_same_outcome(a, b)

    @pytest.mark.parametrize(
        "options",
        [
            EngineOptions(max_iterations=1),
            EngineOptions(max_iterations=4),
            EngineOptions(tx_power_dbm=10.0),
            EngineOptions(tx_power_dbm=25.0),
        ],
        ids=["iter1", "iter4", "tx10dBm", "tx25dBm"],
    )
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec("1x1", 1, 1, include_copa_plus=True),
            ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
        ],
        ids=["1x1+plus", "4x2"],
    )
    def test_engine_options_match_serial(self, spec, options):
        assert_batch_matches_one_row(make_tasks(spec, 2, options=options))

    def test_batch_span_attributes(self):
        """The ``engine.run`` span describes the run: allocator,
        antenna configuration and batch size, nothing else."""
        tasks = make_tasks(ScenarioSpec("3x2", 3, 2, include_copa_plus=False), 2)
        collector = Collector()
        run_batch(tasks, collector=collector)
        (span,) = [s for s in collector.spans if s.name == "engine.run"]
        assert span.attrs == {"allocator": "allocate", "antennas": "3x2", "rows": 2}

    def test_every_engine_span_carries_its_rows(self):
        tasks = make_tasks(ScenarioSpec("3x2", 3, 2, include_copa_plus=True), 3)
        collector = Collector()
        run_batch(tasks, collector=collector)
        assert {span.name for span in collector.spans} >= {"sda.role", "choose", "measure"}
        assert all(span.attrs["rows"] == 3 for span in collector.spans)

    def test_collector_counts_batched_runs(self):
        tasks = make_tasks(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), 3)
        collector = Collector()
        run_batch(tasks, collector=collector)
        assert collector.metrics.counters["engine.runs"] == 3


# ---------------------------------------------------------------------------
# The COPA+ pass reuses the allocator-independent half of the menu.
# ---------------------------------------------------------------------------

#: 3x2 walks the SDA search; 4x2 offers vanilla Null.  Both run COPA+,
#: kept small by one Fig-6 iteration.
PLUS_SCENARIOS = [
    ScenarioSpec("3x2", 3, 2, include_copa_plus=True),
    ScenarioSpec("4x2", 4, 2, include_copa_plus=True),
]
PLUS_OPTIONS = EngineOptions(max_iterations=1)


def fresh_engine(tasks):
    """A new engine over ``tasks``, its CSI measured as ``run_batch`` does."""
    first = tasks[0]
    return BatchedStrategyEngine(
        [task.channels for task in tasks],
        [
            measure_csi(task.channels, task.imperfections, np.random.default_rng(task.seed))
            for task in tasks
        ],
        imperfections=first.imperfections,
        coherence_s=first.coherence_s,
        **first.options.engine_kwargs(),
    )


class TestCopaPlusReuse:
    @pytest.mark.parametrize("spec", PLUS_SCENARIOS, ids=lambda spec: spec.name)
    def test_both_passes_equal_two_fresh_engines(self, spec):
        """Each pass of one engine equals a fresh engine run with its
        allocator alone."""
        tasks = make_tasks(spec, 2, options=PLUS_OPTIONS)
        plain = fresh_engine(tasks).run()
        plus = fresh_engine(tasks).run(allocator=mercury.mercury_allocate)
        for (outcome, plus_outcome), a, b in zip(run_batch(tasks), plain, plus):
            assert_same_outcome(outcome, a)
            assert_same_outcome(plus_outcome, b)

    @pytest.mark.parametrize(
        "spec, calls",
        [
            # Two beamformers; two nulling precoders, two per SDA leader role.
            (PLUS_SCENARIOS[0], {"svd_beamformer": 2, "nulling_precoder": 6}),
            # Two beamformers, two nulling precoders.
            (PLUS_SCENARIOS[1], {"svd_beamformer": 2, "nulling_precoder": 2}),
        ],
        ids=[spec.name for spec in PLUS_SCENARIOS],
    )
    def test_designs_are_built_once_per_engine(self, spec, calls, monkeypatch):
        counted = {name: 0 for name in calls}

        def counting(name):
            design = getattr(batch, name)

            def wrapper(*args, **kwargs):
                counted[name] += 1
                return design(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(batch, name, counting(name))
        run_batch(make_tasks(spec, 2, options=PLUS_OPTIONS))
        assert counted == calls
