"""The command-line front end."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "4x2" in out and "3x2" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "COPA conc" in out
        assert "1000ms" in out

    def test_topology_command(self, capsys):
        assert main(["topology", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "AP1" in out and "C2" in out
        assert "signal" in out

    def test_run_small(self, capsys):
        assert main(["run", "1x1", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "csma" in out and "copa" in out

    def test_serial_run_reports_its_batch(self, capsys):
        # The CLI always passes a retry policy; the run still batches.
        assert main(["run", "1x1", "--topologies", "4", "--workers", "1"]) == 0
        assert "serial, batch 4)" in capsys.readouterr().out

    def test_chunk_size_caps_the_batch(self, capsys):
        assert main(["run", "1x1", "-n", "4", "--workers", "1", "--chunk-size", "2"]) == 0
        assert "batch 2)" in capsys.readouterr().out

    def test_batch_size_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "1x1", "--batch-size", "2"])

    def test_run_with_interference(self, capsys):
        assert main(["run", "4x2", "-n", "2", "--interference", "-10"]) == 0
        out = capsys.readouterr().out
        assert "nulling beats CSMA" in out

    def test_interference_run_is_the_same_with_and_without_shard_dir(self, tmp_path, capsys):
        argv = ["run", "4x2", "-n", "2", "--interference", "-10", "--workers", "1"]

        def table(text):
            """Scenario label, scheme table and comparisons; not the run stats."""
            return text.split("\nevaluated ")[0]

        assert main(argv) == 0
        direct = table(capsys.readouterr().out)
        assert main([*argv, "--shard-dir", str(tmp_path / "shards")]) == 0
        sharded = table(capsys.readouterr().out)
        assert direct.startswith("scenario 4x2-10dB: 2 topologies\n")
        assert sharded == direct

    def test_nulling_small(self, capsys):
        assert main(["nulling", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "INR reduction" in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "9x9"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "1x1", "-n", "2"]) == 0
        out = capsys.readouterr().out
        assert "| scheme |" in out
        assert "COPA beats CSMA" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        assert main(["report", "1x1", "-n", "2", "-o", path]) == 0
        with open(path) as handle:
            content = handle.read()
        assert content.startswith("## Scenario 1x1")


class TestArgumentValidation:
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_nonpositive_topology_count_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "4x2", "-n", bad])

    def test_positive_count_accepted(self):
        args = build_parser().parse_args(["run", "4x2", "-n", "7"])
        assert args.topologies == 7

    def test_negative_max_retries_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "1x1", "--max-retries", "-1"])

    def test_zero_max_retries_accepted(self):
        args = build_parser().parse_args(["run", "1x1", "--max-retries", "0"])
        assert args.max_retries == 0

    @pytest.mark.parametrize("bad", ["0", "-2.5"])
    def test_nonpositive_task_timeout_rejected(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "1x1", "--task-timeout", bad])

    @pytest.mark.parametrize("bad", ["0", "-1", "inf", "-inf", "nan", "1e400"])
    def test_bad_grid_db_rejected_in_db(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["service", "query", "1x1", f"--grid-db={bad}"])
        assert excinfo.value.code == 2
        assert "--grid-db: must be a finite number of dB > 0" in capsys.readouterr().err

    def test_grid_db_accepted(self):
        args = build_parser().parse_args(["service", "query", "1x1", "--grid-db", "0.5"])
        assert args.grid_db == 0.5

    def test_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["run", "1x1"])
        assert args.max_retries == 2
        assert args.task_timeout is None
        assert args.checkpoint is None
        assert args.resume is False


class TestRetiredBackendFlag:
    """``--backend`` is gone from every command that used to take it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "1x1"],
            ["report", "1x1"],
            ["service", "publish", "1x1", "--shard-dir", "shards"],
            ["service", "query", "1x1"],
        ],
        ids=["run", "report", "service-publish", "service-query"],
    )
    def test_backend_flag_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv + ["--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_repro_backend_variable_does_not_reach_the_options(self, monkeypatch):
        from repro.cli import _engine_options
        from repro.core.options import EngineOptions

        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        args = build_parser().parse_args(["run", "1x1"])
        assert _engine_options(args) == EngineOptions()


class TestFaultTolerance:
    def test_run_accepts_retry_and_timeout_flags(self, capsys):
        assert (
            main(["run", "1x1", "-n", "2", "--max-retries", "1", "--task-timeout", "30"])
            == 0
        )
        out = capsys.readouterr().out
        assert "copa" in out
        # A clean run reports no fault-tolerance activity.
        assert "fault tolerance:" not in out

    def test_checkpoint_then_resume_roundtrip(self, tmp_path, capsys):
        from repro.sim.checkpoint import validate_journal

        path = str(tmp_path / "run.ckpt")
        assert main(["run", "1x1", "-n", "2", "--checkpoint", path]) == 0
        first = capsys.readouterr().out
        summary = validate_journal(path)
        assert summary["entries"] == 2 and summary["indices"] == [0, 1]

        assert main(["run", "1x1", "-n", "2", "--checkpoint", path, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "2 resumed from checkpoint" in second
        # Bit-identical output, modulo the wall-clock and stats lines.
        def strip(text):
            return [
                line
                for line in text.splitlines()
                if "fault tolerance" not in line and "topologies in" not in line
            ]

        assert strip(second) == strip(first)

    def test_resume_without_checkpoint_rejected(self, capsys):
        assert main(["run", "1x1", "-n", "2", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_report_resume_without_checkpoint_rejected(self, capsys):
        assert main(["report", "1x1", "-n", "2", "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checkpoint", "run.ckpt"],
            ["--resume", "--checkpoint", "run.ckpt"],
            ["--chunk-size", "2"],
        ],
        ids=["checkpoint", "resume", "chunk-size"],
    )
    def test_shard_dir_refuses_flags_it_cannot_honour(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        shard_dir = tmp_path / "shards"
        assert main(["run", "1x1", "-n", "2", "--shard-dir", str(shard_dir), *flags]) == 2
        assert "error: shard_dir is mutually exclusive with" in capsys.readouterr().err
        assert not shard_dir.exists()

    def test_cache_flag_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        args = build_parser().parse_args(["run", "1x1"])
        assert args.cache_dir is None
        assert args.no_cache is False
        assert args.cache_stats is False

    def test_cache_dir_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/envcache")
        args = build_parser().parse_args(["run", "1x1"])
        assert args.cache_dir == "/tmp/envcache"

    def test_run_twice_hits_the_cache(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        flags = ["run", "1x1", "-n", "2", "-w", "1", "--cache-dir", root, "--cache-stats"]
        assert main(flags) == 0
        cold = capsys.readouterr().out
        assert "cache: 0 hits, 2 misses" in cold
        assert "stores" in cold

        assert main(flags) == 0
        warm = capsys.readouterr().out
        assert "cache: 2 hits, 0 misses" in warm
        assert "(100% hit rate)" in warm

        # Identical scheme tables, modulo the wall-clock and cache lines.
        def table(text):
            return [
                line
                for line in text.splitlines()
                if "topologies in" not in line and "cache" not in line
            ]

        assert table(warm) == table(cold)

    def test_no_cache_disables_lookup_and_store(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["run", "1x1", "-n", "2", "-w", "1", "--cache-dir", root]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "run", "1x1", "-n", "2", "-w", "1",
                    "--cache-dir", root, "--no-cache", "--cache-stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert "hits" not in out

    def test_report_shares_the_run_cache(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        assert main(["run", "1x1", "-n", "2", "-w", "1", "--cache-dir", root]) == 0
        capsys.readouterr()
        assert (
            main(["report", "1x1", "-n", "2", "-w", "1", "--cache-dir", root, "--cache-stats"])
            == 0
        )
        out = capsys.readouterr().out
        assert "(100% hit rate)" in out

    def test_permanent_failure_reports_per_topology(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.sim.runner import RunnerError

        def explode(*args, **kwargs):
            raise RunnerError(
                failures={1: "InjectedCrash: injected CRASH (attempt 3)"},
                records=[object()] * 2,
                total=3,
            )

        monkeypatch.setattr(cli, "run_experiment", explode)
        assert main(["run", "1x1", "-n", "3"]) == 1
        err = capsys.readouterr().err
        assert "error: 1 of 3 topologies failed permanently" in err
        assert "topology[1]: InjectedCrash" in err
        assert "2 of 3 topologies completed" in err
        assert "--checkpoint/--resume" in err


class TestWorkersVariable:
    """``$REPRO_WORKERS`` sets the default ``--workers`` and reads like it."""

    class Dispatched(Exception):
        """Raised by the stand-in runner with the worker count it got."""

    @pytest.fixture()
    def dispatch(self, monkeypatch):
        import os

        import repro.cli as cli

        def record(*args, workers, **kwargs):
            raise self.Dispatched(workers)

        monkeypatch.setattr(cli, "run_experiment", record)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)

        def run(env, *flags):
            if env is None:
                monkeypatch.delenv("REPRO_WORKERS", raising=False)
            else:
                monkeypatch.setenv("REPRO_WORKERS", env)
            with pytest.raises(self.Dispatched) as excinfo:
                main(["run", "1x1", "-n", "2", *flags])
            return excinfo.value.args[0]

        return run

    @pytest.mark.parametrize("env", [None, "", "0", "-2"])
    def test_unset_or_nonpositive_means_one_per_cpu(self, dispatch, env):
        assert dispatch(env) == 3

    def test_positive_value_is_the_count(self, dispatch):
        assert dispatch("2") == 2

    def test_flag_wins_over_the_variable(self, dispatch):
        assert dispatch("abc", "--workers", "1") == 1

    @pytest.mark.parametrize("env", ["abc", "1.5"])
    def test_non_integer_fails_naming_the_variable(self, capsys, monkeypatch, env):
        monkeypatch.setenv("REPRO_WORKERS", env)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "1x1", "-n", "2"])
        assert excinfo.value.code == 2
        assert f"REPRO_WORKERS must be an integer, got {env!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_survives_a_bad_value(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out
