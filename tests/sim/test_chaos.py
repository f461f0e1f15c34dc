"""Chaos suite: every fault class, zero tolerance for drifting results.

The contract under test is the strongest one the runner makes: whatever
faults are injected — crashes, hangs, corrupt results, pool breakage —
at whatever (seeded) random indices, on the serial *and* the parallel
path, the final :class:`ExperimentResult` is **bit-identical** to a
fault-free run.  Retries are pure seed replays, so fault tolerance is
invisible in the data and visible only in the telemetry.

Also pinned here: the RunnerStats counter arithmetic under combined
fault injection (so retry/timeout/fallback semantics can't silently
drift) and checkpoint interrupt-resume equivalence.
"""

import numpy as np
import pytest

from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim.faults import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    SimulatedPoolBreak,
)
from repro.sim.runner import (
    RetryPolicy,
    RunnerError,
    build_tasks,
    evaluate_topology,
    run_tasks,
)

SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
N_TOPOLOGIES = 5
CONFIG = SimConfig(n_topologies=N_TOPOLOGIES)

#: Instant backoff so the suite never actually sleeps between retries.
NO_SLEEP = RetryPolicy(max_retries=2, sleep=lambda s: None)
#: Pool-path timeout: generously above a ~0.1 s topology evaluation,
#: comfortably below the 4 s default hang.
TIMEOUT = RetryPolicy(max_retries=2, task_timeout_s=1.0, sleep=lambda s: None)


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference every chaos run must reproduce exactly."""
    return run_experiment(SPEC, CONFIG, workers=1)


def assert_identical(result, reference):
    """Bit-identical series and identical strategy choices."""
    assert result.available_series() == reference.available_series()
    for key in reference.available_series():
        np.testing.assert_array_equal(
            result.series_mbps(key),
            reference.series_mbps(key),
            err_msg=f"series {key!r} drifted under fault injection",
        )
    for ours, theirs in zip(result.records, reference.records):
        assert ours.index == theirs.index
        assert ours.outcome.copa_choice == theirs.outcome.copa_choice
        assert ours.outcome.copa_fair_choice == theirs.outcome.copa_fair_choice


class TestFaultPlans:
    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(seed=42, n_tasks=30, kind=FaultKind.CRASH, n_faults=5)
        b = FaultPlan.random(seed=42, n_tasks=30, kind=FaultKind.CRASH, n_faults=5)
        assert a.indices() == b.indices()
        assert len(a.indices()) == 5

    def test_different_seeds_differ(self):
        a = FaultPlan.random(seed=1, n_tasks=30, kind=FaultKind.CRASH, n_faults=5)
        b = FaultPlan.random(seed=2, n_tasks=30, kind=FaultKind.CRASH, n_faults=5)
        assert a.indices() != b.indices()

    def test_fault_only_fires_below_trips(self):
        plan = FaultPlan.at([3], FaultKind.CRASH, trips=2)
        assert plan.active(3, 0) is not None
        assert plan.active(3, 1) is not None
        assert plan.active(3, 2) is None
        assert plan.active(4, 0) is None

    def test_crash_fires_through_evaluate_topology(self):
        import dataclasses

        tasks = build_tasks(
            generate_channel_sets(SPEC, SimConfig(n_topologies=1)),
            base_seed=CONFIG.seed,
            coherence_s=CONFIG.coherence_s,
            imperfections=CONFIG.imperfections(),
            fault_plan=FaultPlan.at([0], FaultKind.CRASH),
        )
        with pytest.raises(InjectedCrash):
            evaluate_topology(tasks[0])
        # The retry attempt replays clean.
        retry = dataclasses.replace(tasks[0], attempt=1)
        assert evaluate_topology(retry).record.index == 0

    def test_pool_break_is_indistinguishable_from_real_breakage(self):
        from concurrent.futures.process import BrokenProcessPool

        assert issubclass(SimulatedPoolBreak, BrokenProcessPool)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CRASH, trips=0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CRASH, when="midway")
        with pytest.raises(ValueError):
            FaultPlan.random(seed=0, n_tasks=3, kind=FaultKind.CRASH, n_faults=4)


#: Serial (whole batched groups), a pool of single tasks, and a pool of
#: batched pairs.  Faulted tasks are single units on every path; the
#: clean ones batch beside them wherever the chunk size allows.
DISPATCH = {
    "serial": {"workers": 1},
    "parallel": {"workers": 3},
    "pool-batched": {"workers": 2, "chunk_size": 2},
}


class TestChaosEquivalence:
    """Every fault class × every path → bit-identical results."""

    @pytest.mark.parametrize("dispatch", sorted(DISPATCH))
    @pytest.mark.parametrize("seed", [11, 23])
    def test_crash(self, baseline, dispatch, seed):
        plan = FaultPlan.random(seed=seed, n_tasks=N_TOPOLOGIES, kind=FaultKind.CRASH, n_faults=2)
        kwargs = DISPATCH[dispatch]
        result = run_experiment(SPEC, CONFIG, policy=NO_SLEEP, fault_plan=plan, **kwargs)
        assert_identical(result, baseline)
        assert result.stats.retries == 2
        assert result.stats.parallel == (kwargs["workers"] > 1)
        if dispatch != "parallel":
            assert result.stats.batch_size > 1

    @pytest.mark.parametrize("dispatch", sorted(DISPATCH))
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_observation_changes_neither_units_nor_results(self, baseline, dispatch, when):
        plan = FaultPlan.random(
            seed=11, n_tasks=N_TOPOLOGIES, kind=FaultKind.CRASH, n_faults=2, when=when
        )
        kwargs = dict(DISPATCH[dispatch], policy=NO_SLEEP, fault_plan=plan)
        plain = run_experiment(SPEC, CONFIG, **kwargs)
        collector = Collector()
        observed = run_experiment(SPEC, CONFIG, collector=collector, **kwargs)
        assert_identical(observed, baseline)
        assert observed.stats.batch_size == plain.stats.batch_size
        assert observed.stats.retries == plain.stats.retries == 2
        # Only accepted units are grafted: every topology's row once.
        engine_runs = [span for span in collector.spans if span.name == "engine.run"]
        assert sum(span.attrs["rows"] for span in engine_runs) == N_TOPOLOGIES

    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_crash_after_worker_emitted_spans(self, baseline, workers):
        """A worker that dies *after* doing the work is still a clean retry."""
        plan = FaultPlan.random(
            seed=5, n_tasks=N_TOPOLOGIES, kind=FaultKind.CRASH, when="after"
        )
        result = run_experiment(SPEC, CONFIG, workers=workers, policy=NO_SLEEP, fault_plan=plan)
        assert_identical(result, baseline)
        assert result.stats.retries == 1

    @pytest.mark.parametrize("dispatch", sorted(DISPATCH))
    @pytest.mark.parametrize("seed", [7, 19])
    def test_corrupt_result(self, baseline, dispatch, seed):
        plan = FaultPlan.random(seed=seed, n_tasks=N_TOPOLOGIES, kind=FaultKind.CORRUPT)
        result = run_experiment(
            SPEC, CONFIG, policy=NO_SLEEP, fault_plan=plan, **DISPATCH[dispatch]
        )
        assert_identical(result, baseline)
        assert result.stats.retries == 1
        if dispatch != "parallel":
            assert result.stats.batch_size > 1

    def test_hang_parallel_times_out_and_replays(self, baseline):
        plan = FaultPlan.random(seed=3, n_tasks=N_TOPOLOGIES, kind=FaultKind.HANG, hang_s=4.0)
        result = run_experiment(SPEC, CONFIG, workers=2, policy=TIMEOUT, fault_plan=plan)
        assert_identical(result, baseline)
        assert result.stats.timeouts == 1
        assert result.stats.retries == 1
        assert result.stats.parallel

    def test_hang_serial_is_detected_post_hoc(self, baseline):
        """The serial path can't pre-empt; it records the overrun and keeps
        the (valid) completed result — no retry, no drift."""
        plan = FaultPlan.random(seed=3, n_tasks=N_TOPOLOGIES, kind=FaultKind.HANG, hang_s=1.5)
        policy = RetryPolicy(max_retries=2, task_timeout_s=1.0, sleep=lambda s: None)
        result = run_experiment(SPEC, CONFIG, workers=1, policy=policy, fault_plan=plan)
        assert_identical(result, baseline)
        assert result.stats.timeouts == 1
        assert result.stats.retries == 0

    @pytest.mark.parametrize("seed", [2, 31])
    def test_pool_break_parallel_degrades_to_serial(self, baseline, seed):
        plan = FaultPlan.random(seed=seed, n_tasks=N_TOPOLOGIES, kind=FaultKind.POOL_BREAK)
        result = run_experiment(SPEC, CONFIG, workers=2, policy=NO_SLEEP, fault_plan=plan)
        assert_identical(result, baseline)
        assert result.stats.fallbacks == 1
        assert result.stats.retries == 1
        # The pool genuinely ran before it broke.
        assert result.stats.parallel
        assert "re-dispatching" in result.stats.fallback_reason

    def test_pool_break_serial_is_an_ordinary_retry(self, baseline):
        plan = FaultPlan.random(seed=2, n_tasks=N_TOPOLOGIES, kind=FaultKind.POOL_BREAK)
        result = run_experiment(SPEC, CONFIG, workers=1, policy=NO_SLEEP, fault_plan=plan)
        assert_identical(result, baseline)
        assert result.stats.fallbacks == 0
        assert result.stats.retries == 1

    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_persistent_fault_raises_after_all_others_finish(self, workers):
        """Retries exhausted → RunnerError, but every survivor completed."""
        plan = FaultPlan.at([2], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError) as excinfo:
            run_experiment(
                SPEC,
                CONFIG,
                workers=workers,
                policy=RetryPolicy(max_retries=1, sleep=lambda s: None),
                fault_plan=plan,
            )
        error = excinfo.value
        assert set(error.failures) == {2}
        assert "InjectedCrash" in error.failures[2]
        assert error.total == N_TOPOLOGIES
        assert [record.index for record in error.records] == [0, 1, 3, 4]

    def test_interrupted_run_resumed_from_journal_matches_exactly(self, baseline, tmp_path):
        path = str(tmp_path / "chaos.ckpt")
        plan = FaultPlan.at([3], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError):
            run_experiment(
                SPEC,
                CONFIG,
                workers=1,
                policy=RetryPolicy(max_retries=0, sleep=lambda s: None),
                fault_plan=plan,
                checkpoint=path,
            )
        resumed = run_experiment(SPEC, CONFIG, workers=1, checkpoint=path, resume=True)
        assert_identical(resumed, baseline)
        assert resumed.stats.resumed == N_TOPOLOGIES - 1

    def test_interrupted_parallel_run_resumes_on_parallel_path(self, baseline, tmp_path):
        path = str(tmp_path / "chaos-par.ckpt")
        plan = FaultPlan.at([1], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError):
            run_experiment(
                SPEC,
                CONFIG,
                workers=3,
                policy=RetryPolicy(max_retries=0, sleep=lambda s: None),
                fault_plan=plan,
                checkpoint=path,
            )
        resumed = run_experiment(SPEC, CONFIG, workers=3, checkpoint=path, resume=True)
        assert_identical(resumed, baseline)
        assert resumed.stats.resumed == N_TOPOLOGIES - 1


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=0.35)
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.35)  # capped

    def test_backoff_sleep_is_actually_called(self, baseline):
        slept = []
        policy = RetryPolicy(
            max_retries=2, backoff_base_s=0.01, backoff_factor=3.0, sleep=slept.append
        )
        plan = FaultPlan.at([1], FaultKind.CRASH, trips=2)
        result = run_experiment(SPEC, CONFIG, workers=1, policy=policy, fault_plan=plan)
        assert_identical(result, baseline)
        assert slept == [pytest.approx(0.01), pytest.approx(0.03)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(task_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRunnerStatsRegression:
    """Pin the counter arithmetic under combined fault injection.

    One run, every fault class at once, explicit indices so the expected
    counts are derivable by hand:

    * crash@0   → 1 retry
    * hang@1    → 1 timeout + 1 retry (pool path pre-empts and replays)
    * corrupt@2 → 1 retry (integrity check rejects the poisoned result)
    * break@3   → 1 fallback + 1 retry (serial replay of the culprit)
    """

    COMBINED = FaultPlan(
        faults={
            0: FaultSpec(FaultKind.CRASH),
            1: FaultSpec(FaultKind.HANG, hang_s=4.0),
            2: FaultSpec(FaultKind.CORRUPT),
            3: FaultSpec(FaultKind.POOL_BREAK),
        }
    )

    @pytest.fixture(scope="class")
    def combined_run(self, tmp_path_factory):
        tasks = build_tasks(
            generate_channel_sets(SPEC, CONFIG),
            base_seed=CONFIG.seed,
            coherence_s=CONFIG.coherence_s,
            imperfections=CONFIG.imperfections(),
            fault_plan=self.COMBINED,
        )
        collector = Collector()
        records, stats = run_tasks(
            tasks, workers=2, collector=collector, policy=TIMEOUT
        )
        return records, stats, collector

    def test_pinned_counters(self, combined_run):
        _, stats, _ = combined_run
        assert stats.retries == 4
        assert stats.timeouts == 1
        assert stats.fallbacks == 1
        assert stats.resumed == 0

    def test_results_survive_combined_chaos(self, combined_run, baseline):
        records, _, _ = combined_run
        assert [record.index for record in records] == list(range(N_TOPOLOGIES))
        for ours, theirs in zip(records, baseline.records):
            assert ours.outcome.copa_choice == theirs.outcome.copa_choice

    def test_observability_counters_match_stats(self, combined_run):
        _, stats, collector = combined_run
        counters = collector.metrics.counters
        assert counters["runner.retry"] == stats.retries
        assert counters["runner.timeout"] == stats.timeouts
        assert counters["runner.fallback"] == stats.fallbacks
        assert counters["runner.tasks"] == N_TOPOLOGIES

    def test_observed_and_spans_merged(self, combined_run):
        _, stats, collector = combined_run
        assert stats.observed
        assert stats.spans_merged == len(collector.spans)
        names = [span.name for span in collector.spans]
        assert names.count("runner.retry") == stats.retries
        assert names.count("runner.timeout") == stats.timeouts
        assert names.count("runner.fallback") == stats.fallbacks
        # Exactly one accepted evaluation merged per topology.
        for index in range(N_TOPOLOGIES):
            assert names.count(f"topology[{index}]") == 1


class TestServiceChaos:
    """The shard service's fault story: kill -9 a worker, steal its shard.

    A real worker *process* is killed mid-shard by an ``EXIT`` fault on
    its tasks (``os._exit`` before the task runs, so no lease release, no
    done marker, no cleanup — exactly the on-disk state a crashed worker
    leaves).  Its lease expires, a rescuer reclaims the
    shard, resumes the journaled prefix instead of recomputing it, and
    the harvested experiment is **bit-identical** to the fault-free
    serial baseline — with the theft visible only in the telemetry
    (``service.reclaim``).
    """

    #: The victim dies before this task runs.  Shard 0 holds tasks 0-2;
    #: tasks 0 and 1 run first as one unit (the armed task runs on its
    #: own), so the journal keeps a two-task prefix.
    KILLED_AT = 2

    @pytest.fixture()
    def crashed_shard_dir(self, tmp_path):
        """A shard dir holding one dead worker's half-finished shard."""
        import multiprocessing

        from repro.sim.faults import EXIT_STATUS
        from repro.sim.service import publish_shards, worker_entry

        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2, publisher="publisher")
        victim = multiprocessing.Process(
            target=worker_entry,
            args=(shard_dir,),
            kwargs={
                "worker_id": "victim",
                "fault_plan": FaultPlan.at([self.KILLED_AT], FaultKind.EXIT),
                "observe": False,
            },
        )
        victim.start()
        victim.join(timeout=120.0)
        assert victim.exitcode == EXIT_STATUS  # killed by the fault, not a clean exit
        return shard_dir

    def test_killed_worker_leaves_a_stale_lease_and_no_done_marker(
        self, crashed_shard_dir
    ):
        import json
        import os

        lease_path = os.path.join(crashed_shard_dir, "leases", "shard_000.lease")
        with open(lease_path) as handle:
            lease = json.load(handle)
        assert lease["owner"] == "victim"
        done_dir = os.path.join(crashed_shard_dir, "done")
        assert not os.path.isdir(done_dir) or os.listdir(done_dir) == []
        # The journaled prefix survived the crash and validates.
        journal = os.path.join(crashed_shard_dir, "journals", "shard_000.ckpt")
        assert os.path.exists(journal)

    def test_shard_is_reclaimed_resumed_and_bit_identical(
        self, crashed_shard_dir, baseline
    ):
        import json
        import os
        import time

        from repro.sim.service import harvest, run_worker

        # Let the victim's last heartbeat age past the rescuer's TTL.
        time.sleep(0.1)
        collector = Collector()
        stats = run_worker(
            crashed_shard_dir,
            worker_id="rescuer",
            collector=collector,
            lease_ttl_s=0.05,
            policy=NO_SLEEP,
        )
        # One shard reclaimed from the corpse, one claimed fresh; the
        # journaled prefix was resumed, not recomputed.
        assert stats.shards_claimed == 2
        assert stats.shards_reclaimed == 1
        assert stats.tasks_completed == N_TOPOLOGIES
        assert stats.tasks_resumed == self.KILLED_AT
        counters = collector.metrics.counters
        assert counters["service.reclaim"] == 1.0
        assert counters["service.claim"] == 2.0

        marker = json.load(
            open(os.path.join(crashed_shard_dir, "done", "shard_000.json"))
        )
        assert marker["worker"] == "rescuer"
        assert marker["reclaimed"] is True
        assert marker["resumed"] == self.KILLED_AT

        assert_identical(harvest(crashed_shard_dir), baseline)

    def test_live_lease_is_not_stolen(self, crashed_shard_dir):
        """A generous TTL keeps the victim's lease live: the rescuer must
        skip the crashed shard and time out with the experiment stuck."""
        from repro.sim.service import ServiceTimeout, run_worker

        with pytest.raises(ServiceTimeout):
            run_worker(
                crashed_shard_dir,
                worker_id="cautious",
                lease_ttl_s=3600.0,
                timeout_s=0.5,
                poll_s=0.05,
                policy=NO_SLEEP,
            )
