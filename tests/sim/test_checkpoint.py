"""Checkpoint journal: round-trip fidelity, schema validation, resume safety.

The property pinned here (per scenario, per seed): crash an experiment at
an *arbitrary* topology index, resume from the journal, and every
per-series array is bit-identical to an uninterrupted run.  Around that
sit unit tests for the ``repro.ckpt/v1`` plumbing — fingerprint
stability, digest checking, partial-tail tolerance, the standalone
validator and its CLI.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.sim.checkpoint import (
    SCHEMA_ID,
    CheckpointError,
    Journal,
    _main,
    fingerprint_tasks,
    validate_journal,
)
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim.faults import FaultKind, FaultPlan
from repro.sim.runner import (
    RetryPolicy,
    RunnerError,
    build_tasks,
    evaluate_topology,
)
from tests.core.test_batch import PLUS_OPTIONS, PLUS_SCENARIOS, assert_same_records

CONFIG = SimConfig(n_topologies=3)
SCENARIOS = [
    ScenarioSpec("1x1", 1, 1, include_copa_plus=False),
    ScenarioSpec("3x2", 3, 2, include_copa_plus=False),
    ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
]
FAIL_FAST = RetryPolicy(max_retries=0, sleep=lambda s: None)

_baselines = {}


def baseline_for(spec):
    if spec.name not in _baselines:
        _baselines[spec.name] = run_experiment(spec, CONFIG, workers=1)
    return _baselines[spec.name]


def tasks_for(spec, **kwargs):
    return build_tasks(
        generate_channel_sets(spec, CONFIG),
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
        **kwargs,
    )


class TestCrashResumeProperty:
    """Crash anywhere, resume, get bit-identical series — every scenario."""

    @pytest.mark.parametrize("spec", SCENARIOS, ids=[s.name for s in SCENARIOS])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_resume_is_bit_identical(self, spec, seed, tmp_path):
        rng = np.random.default_rng(seed)
        crash_index = int(rng.integers(CONFIG.n_topologies))
        path = str(tmp_path / f"{spec.name}_{seed}.ckpt")

        plan = FaultPlan.at([crash_index], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError) as excinfo:
            run_experiment(
                spec, CONFIG, workers=1, policy=FAIL_FAST, fault_plan=plan, checkpoint=path
            )
        assert set(excinfo.value.failures) == {crash_index}

        resumed = run_experiment(spec, CONFIG, workers=1, checkpoint=path, resume=True)
        reference = baseline_for(spec)
        assert resumed.stats.resumed == CONFIG.n_topologies - 1
        assert resumed.available_series() == reference.available_series()
        for key in reference.available_series():
            np.testing.assert_array_equal(
                resumed.series_mbps(key),
                reference.series_mbps(key),
                err_msg=f"{spec.name} seed {seed} crash@{crash_index}: series {key!r} drifted",
            )

    def test_fully_checkpointed_run_recomputes_nothing(self, tmp_path):
        """Resuming a complete journal must not re-evaluate any topology:
        a poison fault on every index would fail instantly if it did."""
        spec = SCENARIOS[0]
        path = str(tmp_path / "full.ckpt")
        run_experiment(spec, CONFIG, workers=1, checkpoint=path)
        poison = FaultPlan.at(range(CONFIG.n_topologies), FaultKind.CRASH, trips=100)
        resumed = run_experiment(
            spec,
            CONFIG,
            workers=1,
            policy=FAIL_FAST,
            fault_plan=poison,
            checkpoint=path,
            resume=True,
        )
        assert resumed.stats.resumed == CONFIG.n_topologies
        reference = baseline_for(spec)
        for key in reference.available_series():
            np.testing.assert_array_equal(resumed.series_mbps(key), reference.series_mbps(key))


def plus_run(**kwargs):
    """3x2 with COPA+, whose two engine passes share their
    allocator-independent results, over 2 topologies."""
    return run_experiment(
        PLUS_SCENARIOS[0], SimConfig(n_topologies=2), workers=1, options=PLUS_OPTIONS, **kwargs
    )


class TestCopaPlusResume:
    @pytest.mark.parametrize("crash_index", [0, 1])
    def test_resume_equals_a_fresh_run(self, crash_index, tmp_path):
        path = str(tmp_path / "plus.ckpt")
        plan = FaultPlan.at([crash_index], FaultKind.CRASH, trips=100)
        with pytest.raises(RunnerError):
            plus_run(policy=FAIL_FAST, fault_plan=plan, checkpoint=path)
        resumed = plus_run(checkpoint=path, resume=True)
        assert resumed.stats.resumed == 1
        assert_same_records(resumed.records, plus_run().records)


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        spec = SCENARIOS[0]
        assert fingerprint_tasks(tasks_for(spec)) == fingerprint_tasks(tasks_for(spec))

    def test_excludes_execution_only_fields(self):
        """attempt / observe / fault_plan must not change the hash — a
        chaos-interrupted run and its fault-free resume share a journal."""
        tasks = tasks_for(SCENARIOS[0])
        reference = fingerprint_tasks(tasks)
        plan = FaultPlan.at([0], FaultKind.CRASH)
        mutated = [
            dataclasses.replace(task, attempt=3, observe=True, fault_plan=plan)
            for task in tasks
        ]
        assert fingerprint_tasks(mutated) == reference

    def test_sensitive_to_result_determining_fields(self):
        tasks = tasks_for(SCENARIOS[0])
        reference = fingerprint_tasks(tasks)
        reseeded = [dataclasses.replace(task, seed=task.seed + 1) for task in tasks]
        assert fingerprint_tasks(reseeded) != reference
        recohered = [dataclasses.replace(task, coherence_s=0.999) for task in tasks]
        assert fingerprint_tasks(recohered) != reference
        assert fingerprint_tasks(tasks[:-1]) != reference


class TestJournal:
    @pytest.fixture()
    def tasks(self):
        return tasks_for(SCENARIOS[0])

    @pytest.fixture()
    def written(self, tasks, tmp_path):
        """A journal holding the first two completed results."""
        path = str(tmp_path / "journal.ckpt")
        results = [evaluate_topology(task) for task in tasks[:2]]
        with Journal.open(path, tasks) as journal:
            for result in results:
                journal.record(result)
        return path, results

    def test_round_trip(self, tasks, written):
        path, results = written
        with Journal.open(path, tasks, resume=True) as journal:
            assert sorted(journal.completed) == [0, 1]
            for original in results:
                loaded = journal.completed[original.record.index]
                assert loaded.record.index == original.record.index
                assert (
                    loaded.record.outcome.copa_choice == original.record.outcome.copa_choice
                )
                np.testing.assert_array_equal(
                    np.array(loaded.record.outcome.copa.client_throughput_bps),
                    np.array(original.record.outcome.copa.client_throughput_bps),
                )

    def test_resume_missing_file_starts_fresh(self, tasks, tmp_path):
        path = str(tmp_path / "absent.ckpt")
        with Journal.open(path, tasks, resume=True) as journal:
            assert journal.completed == {}
        assert validate_journal(path)["entries"] == 0

    def test_config_mismatch_refuses_to_resume(self, tasks, written, tmp_path):
        path, _ = written
        other = [dataclasses.replace(task, seed=task.seed + 7) for task in tasks]
        with pytest.raises(CheckpointError, match="different experiment"):
            Journal.open(path, other, resume=True)

    def test_wrong_schema_refuses_to_resume(self, tasks, written):
        path, _ = written
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["schema"] = "repro.ckpt/v999"
        lines[0] = json.dumps(header, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="schema"):
            Journal.open(path, tasks, resume=True)

    def test_tampered_blob_is_rejected(self, tasks, written):
        path, _ = written
        lines = open(path).read().splitlines()
        entry = json.loads(lines[1])
        blob = entry["blob"]
        entry["blob"] = blob[:-4] + ("AAAA" if blob[-4:] != "AAAA" else "BBBB")
        lines[1] = json.dumps(entry, sort_keys=True)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="sha256 mismatch"):
            Journal.open(path, tasks, resume=True)
        with pytest.raises(CheckpointError, match="sha256 mismatch"):
            validate_journal(path)

    def test_partial_tail_tolerated_on_resume_not_validation(self, tasks, written):
        """A crash mid-write leaves one partial final line: resume skips
        it (that task is recomputed), the validator rejects the file."""
        path, _ = written
        with open(path, "a") as handle:
            handle.write('{"kind": "result", "index": 2, "trunc')
        with Journal.open(path, tasks, resume=True) as journal:
            assert sorted(journal.completed) == [0, 1]
        with pytest.raises(CheckpointError, match="unreadable entry"):
            validate_journal(path)

    def test_out_of_range_index_is_rejected(self, tasks, written):
        path, _ = written
        with Journal.open(path, tasks, resume=True) as journal:
            result = journal.completed[0]
        bad = dataclasses.replace(
            result, record=dataclasses.replace(result.record, index=99)
        )
        with Journal.open(path, tasks, resume=True) as journal:
            journal.record(bad)
        with pytest.raises(CheckpointError, match="out of range"):
            Journal.open(path, tasks, resume=True)
        with pytest.raises(CheckpointError, match="index must be in"):
            validate_journal(path)


class TestValidator:
    def test_summary_of_valid_journal(self, tmp_path):
        tasks = tasks_for(SCENARIOS[0])
        path = str(tmp_path / "valid.ckpt")
        with Journal.open(path, tasks) as journal:
            journal.record(evaluate_topology(tasks[1]))
        summary = validate_journal(path)
        assert summary["schema"] == SCHEMA_ID
        assert summary["n_tasks"] == len(tasks)
        assert summary["entries"] == 1
        assert summary["indices"] == [1]
        assert len(summary["config_hash"]) == 64

    def test_empty_and_headerless_files(self, tmp_path):
        empty = tmp_path / "empty.ckpt"
        empty.write_text("")
        with pytest.raises(CheckpointError, match="empty journal"):
            validate_journal(str(empty))
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_text("not json\n")
        with pytest.raises(CheckpointError, match="unreadable header"):
            validate_journal(str(garbage))

    def test_cli_exit_codes(self, tmp_path, capsys):
        tasks = tasks_for(SCENARIOS[0])
        path = str(tmp_path / "cli.ckpt")
        with Journal.open(path, tasks) as journal:
            journal.record(evaluate_topology(tasks[0]))
        assert _main([path]) == 0
        assert "journal OK" in capsys.readouterr().out

        broken = tmp_path / "broken.ckpt"
        broken.write_text("nope\n")
        assert _main([str(broken)]) == 1
        assert "invalid journal" in capsys.readouterr().err

        assert _main([]) == 2
        assert "usage:" in capsys.readouterr().err
