"""Command-line front end: run experiments and print paper-style tables.

Usage::

    python -m repro.cli scenarios                 # list scenarios
    python -m repro.cli run 4x2 [-n 30] [--plus]  # one scenario's CDF table
    python -m repro.cli run 4x2 --interference -10
    python -m repro.cli run 4x2 --trace --metrics-out obs.json
    python -m repro.cli table1                    # the MAC-overhead table
    python -m repro.cli nulling [-n 30]           # Figure 3's statistics
    python -m repro.cli topology [--seed 7]       # inspect one topology

    python -m repro.cli service publish 4x2 --shard-dir DIR -n 30
    python -m repro.cli service worker --shard-dir DIR --cache-dir CACHE
    python -m repro.cli service harvest --shard-dir DIR
    python -m repro.cli service query 4x2 --cache-dir CACHE --repeat 2

All numbers use the frozen calibration in :mod:`repro.sim.config`.
"""

from __future__ import annotations

import argparse
import os
import sys


def _positive_int(value: str) -> int:
    """argparse type: a strictly positive topology count."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return parsed


def _nonnegative_int(value: str) -> int:
    """argparse type: a retry budget (0 = fail on the first error)."""
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _positive_float(value: str) -> float:
    """argparse type: a strictly positive timeout in seconds."""
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError("must be > 0 seconds")
    return parsed


def _grid_db(value: str) -> float:
    """argparse type: a quantization grid, a finite number of dB > 0."""
    try:
        return check_grid_db(float(value))
    except ValueError:
        raise argparse.ArgumentTypeError("must be a finite number of dB > 0") from None


def _engine_options(args) -> EngineOptions:
    """Typed engine options from the CLI overrides."""
    options = EngineOptions()
    if getattr(args, "cluster_policy", None):
        options = options.replace(cluster_policy=args.cluster_policy)
    if getattr(args, "cluster_threshold", None) is not None:
        options = options.replace(cluster_threshold_db=args.cluster_threshold)
    return options


def _print_runner_stats(result) -> None:
    stats = result.stats
    if stats is None:
        return
    mode = f"{stats.workers} workers" if stats.parallel else "serial"
    line = (
        f"\nevaluated {stats.n_topologies} topologies in {stats.total_wall_s:.1f}s"
        f" ({stats.topologies_per_s:.2f} topologies/s, {mode}"
    )
    if stats.parallel:
        line += f", chunk {stats.chunk_size}, {stats.worker_utilization:.0%} utilization"
    if stats.batch_size > 1:
        line += f", batch {stats.batch_size}"
    line += ")"
    if stats.fallback_reason:
        line += f"\nserial fallback: {stats.fallback_reason}"
    if stats.retries or stats.timeouts or stats.fallbacks or stats.resumed:
        line += (
            f"\nfault tolerance: {stats.retries} retries, {stats.timeouts} timeouts,"
            f" {stats.fallbacks} pool fallbacks, {stats.resumed} resumed from checkpoint"
        )
    if stats.cache_hits or stats.cache_misses:
        line += f"\ncache: {stats.cache_hits} hits, {stats.cache_misses} misses"
    print(line)


def _make_cache(args):
    """A ResultCache when --cache-dir asked for one (and --no-cache didn't veto).

    ``None`` keeps every experiment entry point on the cache-free fast
    path — no lookups, no key hashing, no filesystem traffic.
    """
    cache_dir = getattr(args, "cache_dir", None)
    if getattr(args, "no_cache", False) or not cache_dir:
        return None
    from .cache import ResultCache

    return ResultCache(cache_dir)


def _print_cache_stats(args, cache) -> None:
    if not getattr(args, "cache_stats", False):
        return
    if cache is None:
        print("cache: disabled")
        return
    stats = cache.stats
    print(
        f"cache: {stats.hits} hits, {stats.misses} misses"
        f" ({stats.hit_rate:.0%} hit rate), {stats.corrupt} corrupt,"
        f" {stats.stores} stores, {stats.bytes_read} B read,"
        f" {stats.bytes_written} B written [{cache.root}]"
    )


def _retry_policy(args):
    """The runner's fault-tolerance policy from the CLI flags."""
    from .sim.runner import RetryPolicy

    return RetryPolicy(max_retries=args.max_retries, task_timeout_s=args.task_timeout)


def _report_runner_failure(error) -> int:
    """One line per failed topology instead of a raw pool traceback."""
    print(f"error: {error}", file=sys.stderr)
    for index in sorted(error.failures):
        print(f"  topology[{index}]: {error.failures[index]}", file=sys.stderr)
    if error.records:
        print(
            f"  {len(error.records)} of {error.total} topologies completed;"
            " rerun with --checkpoint/--resume to keep them",
            file=sys.stderr,
        )
    return 1


def _check_resume_flags(args) -> bool:
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        print("error: --resume requires --checkpoint PATH", file=sys.stderr)
        return False
    return True

import numpy as np

from .core.clustering import CLUSTER_POLICIES
from .core.options import EngineOptions
from .obs import Collector, format_trace, write_json
from .sim.config import DEFAULT_CONFIG
from .sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from .sim.fingerprint import check_grid_db
from .sim.metrics import compare
from .sim.network import measure_nulling_effect
from .sim.runner import RunnerError, workers_from_env


def _make_collector(args) -> "Collector | None":
    """A live collector when --trace/--metrics-out asked for one, else None.

    ``None`` keeps the runner on the no-op fast path — observability costs
    nothing unless explicitly requested.
    """
    if getattr(args, "trace", False) or getattr(args, "metrics_out", None):
        return Collector()
    return None


def _emit_observability(args, collector, meta: dict) -> None:
    if collector is None:
        return
    if getattr(args, "trace", False):
        print("\ntrace:")
        print(format_trace(collector.spans))
    path = getattr(args, "metrics_out", None)
    if path:
        write_json(collector, path, meta=meta)
        print(f"wrote metrics to {path}")

SCENARIOS = {
    "1x1": ScenarioSpec("1x1", 1, 1),
    "4x2": ScenarioSpec("4x2", 4, 2),
    "3x2": ScenarioSpec("3x2", 3, 2),
}


def _print_series_table(result) -> None:
    """The per-scheme summary table (shared by run/harvest so their
    outputs are directly diffable)."""
    print(f"{'scheme':<16}{'mean Mbps':>11}{'median':>9}{'min':>8}{'max':>8}")
    for key in result.available_series():
        s = result.summary(key)
        print(f"{key:<16}{s.mean:>11.1f}{s.median:>9.1f}{s.minimum:>8.1f}{s.maximum:>8.1f}")


def _spec_config(args):
    """(spec, config) for one command's scenario arguments.

    The label folds in the AP count of an N-cell run and §4.4's
    cross-link offset, e.g. ``4x2-n3`` or ``4x2-10dB``.
    """
    base = SCENARIOS[args.scenario]
    n_aps = getattr(args, "n_aps", None) or 2
    name = base.name if n_aps == 2 else f"{base.name}-n{n_aps}"
    if args.interference:
        name += f"{args.interference:+g}dB"
    spec = ScenarioSpec(
        name,
        base.ap_antennas,
        base.client_antennas,
        interference_offset_db=args.interference,
        include_copa_plus=args.plus,
        n_aps=n_aps,
    )
    return spec, DEFAULT_CONFIG.with_(n_topologies=args.topologies)


def _run_for_args(args, spec, config, collector, cache):
    """One experiment for run/report.

    ``None`` after printing the error when the flags contradict each
    other (e.g. ``--shard-dir`` with ``--checkpoint`` or ``--chunk-size``).
    """
    try:
        return run_experiment(
            spec,
            config,
            workers=args.workers,
            chunk_size=args.chunk_size,
            options=_engine_options(args),
            collector=collector,
            policy=_retry_policy(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
            cache=cache,
            shard_dir=args.shard_dir,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_scenarios(_args) -> int:
    print("scenario   APs x clients   description")
    print("1x1        1 ant / 1 ant   single-antenna pairs (§4.2, Fig. 10)")
    print("4x2        4 ant / 2 ant   constrained nulling (§4.3, Fig. 11)")
    print("3x2        3 ant / 2 ant   overconstrained + SDA (§4.5, Fig. 13)")
    print("add --interference -10 to any for the §4.4 emulation (Fig. 12)")
    print("add --n-aps N [--cluster-policy fixed|threshold|greedy] for N-cell runs")
    return 0


def _cmd_run(args) -> int:
    spec, config = _spec_config(args)
    if not _check_resume_flags(args):
        return 2
    collector = _make_collector(args)
    cache = _make_cache(args)
    try:
        result = _run_for_args(args, spec, config, collector, cache)
    except RunnerError as error:
        return _report_runner_failure(error)
    if result is None:
        return 2

    print(f"scenario {result.spec.name}: {args.topologies} topologies")
    _print_series_table(result)

    if "null" in result.available_series():
        stats = compare(result.series_mbps("null"), result.series_mbps("csma"))
        print(f"\nnulling beats CSMA in {stats.win_fraction:.0%} of topologies")
        rescue = compare(result.series_mbps("copa"), result.series_mbps("null"))
        print(f"COPA improves on nulling by {rescue.mean_improvement:.0%} mean")
    _print_runner_stats(result)
    _print_cache_stats(args, cache)
    _emit_observability(
        args,
        collector,
        meta={"command": "run", "scenario": args.scenario, "topologies": args.topologies},
    )
    return 0


def _cmd_table1(_args) -> int:
    from .mac.timing import table1_rows

    print(f"{'coherence':>10} {'COPA conc':>10} {'COPA seq':>10} {'CSMA CTS':>10} {'RTS/CTS':>10}")
    for tc, row in table1_rows().items():
        print(
            f"{tc:>9g}ms {row.copa_concurrent:>10.1%} {row.copa_sequential:>10.1%}"
            f" {row.csma:>10.1%} {row.rts_cts:>10.1%}"
        )
    return 0


def _cmd_nulling(args) -> int:
    config = DEFAULT_CONFIG.with_(n_topologies=args.topologies)
    sets = generate_channel_sets(SCENARIOS["4x2"], config)
    imperfections = config.imperfections()
    inr, snr, sinr = [], [], []
    for index, channels in enumerate(sets):
        for client in (0, 1):
            effect = measure_nulling_effect(
                channels, imperfections, np.random.default_rng(5000 + index), client
            )
            inr.append(effect.inr_reduction_db)
            snr.append(effect.snr_reduction_db)
            sinr.append(effect.sinr_increase_db)
    print(f"measurements: {len(inr)} ({args.topologies} topologies x 2 clients)")
    print(f"INR reduction:  {np.mean(inr):6.1f} dB mean ({np.std(inr):.1f} std)   paper: ~27")
    print(f"SNR reduction:  {np.mean(snr):6.1f} dB mean ({np.std(snr):.1f} std)   paper: ~8")
    print(f"SINR increase:  {np.mean(sinr):6.1f} dB mean ({np.std(sinr):.1f} std)   paper: ~18")
    return 0


def _cmd_report(args) -> int:
    from .sim.reporting import experiment_report

    spec, config = _spec_config(args)
    if not _check_resume_flags(args):
        return 2
    collector = _make_collector(args)
    cache = _make_cache(args)
    try:
        result = _run_for_args(args, spec, config, collector, cache)
    except RunnerError as error:
        return _report_runner_failure(error)
    if result is None:
        return 2
    text = experiment_report(result)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    _print_cache_stats(args, cache)
    _emit_observability(
        args,
        collector,
        meta={"command": "report", "scenario": args.scenario, "topologies": args.topologies},
    )
    return 0


def _print_service_stats(stats) -> None:
    print(
        f"worker {stats.worker_id}: claimed {stats.shards_claimed}"
        f"/{stats.shards_total} shards ({stats.shards_stolen} stolen,"
        f" {stats.shards_reclaimed} reclaimed), completed"
        f" {stats.tasks_completed} topologies ({stats.tasks_resumed} resumed,"
        f" {stats.tasks_from_cache} from cache) in {stats.wall_s:.1f}s"
    )


def _cmd_service_publish(args) -> int:
    from .sim.service import ServiceError, publish_shards

    spec, config = _spec_config(args)
    cache = _make_cache(args)
    try:
        manifest = publish_shards(
            args.shard_dir,
            spec,
            config,
            options=_engine_options(args),
            shard_size=args.shard_size,
            n_shards=args.shards,
            cache=cache,
        )
    except (OSError, ValueError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(
        f"published {len(manifest.shards)} shards of {manifest.n_tasks} "
        f"topologies (scenario {manifest.spec.name}) in {args.shard_dir}"
    )
    print(f"config {manifest.config_hash[:12]}…")
    return 0


def _cmd_service_worker(args) -> int:
    from .sim.service import ServiceError, run_worker

    collector = _make_collector(args)
    cache = _make_cache(args)
    try:
        stats = run_worker(
            args.shard_dir,
            cache=cache,
            worker_id=args.worker_id,
            policy=_retry_policy(args),
            collector=collector,
            lease_ttl_s=args.lease_ttl,
            timeout_s=args.timeout,
        )
    except RunnerError as error:
        return _report_runner_failure(error)
    except (OSError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_service_stats(stats)
    _print_cache_stats(args, cache)
    _emit_observability(
        args,
        collector,
        meta={"command": "service worker", "shard_dir": args.shard_dir, **stats.as_dict()},
    )
    return 0


def _cmd_service_harvest(args) -> int:
    from .sim.service import ServiceError, harvest

    collector = _make_collector(args)
    cache = _make_cache(args)
    try:
        result = harvest(
            args.shard_dir, cache=cache, collector=collector, timeout_s=args.timeout
        )
    except (OSError, ServiceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"scenario {result.spec.name}: {len(result.records)} topologies")
    _print_series_table(result)
    _print_runner_stats(result)
    _print_cache_stats(args, cache)
    _emit_observability(
        args,
        collector,
        meta={
            "command": "service harvest",
            "shard_dir": args.shard_dir,
            "scenario": result.spec.name,
            "topologies": len(result.records),
        },
    )
    return 0


def _cmd_service_query(args) -> int:
    from .sim.service import AllocationService

    cache = _make_cache(args)
    if cache is None:
        print("error: service query requires --cache-dir PATH", file=sys.stderr)
        return 2
    spec, config = _spec_config(args)
    collector = _make_collector(args)
    service = AllocationService(
        cache,
        grid_db=args.grid_db,
        config=config,
        options=_engine_options(args),
        include_copa_plus=args.plus,
        collector=collector,
    )
    channel_sets = generate_channel_sets(spec, config, cache=cache, collector=collector)
    if args.topology is not None:
        if not 0 <= args.topology < len(channel_sets):
            print(
                f"error: --topology must be in [0, {len(channel_sets)})", file=sys.stderr
            )
            return 2
        channel_sets = channel_sets[args.topology : args.topology + 1]
    for repeat in range(args.repeat):
        for index, channels in enumerate(channel_sets):
            answer = service.query(channels)
            if repeat == 0:
                served = "hit" if answer.hit else "miss"
                print(
                    f"topology[{index}]: copa {answer.copa_mbps:8.1f} Mbps"
                    f"  ({served}, {answer.elapsed_s * 1e3:.1f} ms,"
                    f" key {answer.key[:12]}…)"
                )
    stats = service.stats
    print(
        f"service queries: {stats.queries}, hits: {stats.hits},"
        f" misses: {stats.misses}, hit rate: {stats.hit_rate:.1%}"
        f" (grid {args.grid_db:g} dB)"
    )
    _print_cache_stats(args, cache)
    _emit_observability(
        args,
        collector,
        meta={"command": "service query", "scenario": args.scenario, **stats.as_dict()},
    )
    return 0


def _cmd_topology(args) -> int:
    config = DEFAULT_CONFIG
    rng = np.random.default_rng(args.seed)
    topology = config.topology_generator().sample(rng, 4, 2)
    print("node  position (m)        antennas")
    for node in topology.aps + topology.clients:
        print(
            f"{node.name:<5} ({node.position_m[0]:5.1f}, {node.position_m[1]:5.1f})"
            f"      {node.n_antennas}"
        )
    print("\nlink gains (dB):")
    for (a, b), gain in sorted(topology.link_gain_db.items()):
        print(f"  {a:<4} <-> {b:<4} {gain:7.1f}")
    for i, (signal, interference) in enumerate(topology.signal_and_interference_dbm()):
        print(f"C{i + 1}: signal {signal:.1f} dBm, interference {interference:.1f} dBm")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list the evaluation scenarios").set_defaults(
        func=_cmd_scenarios
    )

    def add_runner_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "-w",
            "--workers",
            type=int,
            default=None,
            help="worker processes for per-topology fan-out; 1 = serial, "
            "<= 0 = one per CPU (default: $REPRO_WORKERS, else one per CPU)",
        )
        command.add_argument(
            "--chunk-size",
            type=_positive_int,
            default=None,
            help="most topologies per dispatch unit; 1 = evaluate each on its "
            "own (default: whole batched groups serially, auto on a pool)",
        )
        command.add_argument(
            "--trace",
            action="store_true",
            help="collect spans and print the run's timing tree",
        )
        command.add_argument(
            "--metrics-out",
            metavar="PATH",
            default=None,
            help="write the trace + metrics as repro.obs/v1 JSON to PATH",
        )
        command.add_argument(
            "--max-retries",
            type=_nonnegative_int,
            default=2,
            help="re-attempts per topology before the run fails (default: 2)",
        )
        command.add_argument(
            "--task-timeout",
            type=_positive_float,
            metavar="SECONDS",
            default=None,
            help="per-topology result-wait timeout on the pool path "
            "(default: none)",
        )
        command.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help="journal completed topologies to PATH (repro.ckpt/v1)",
        )
        command.add_argument(
            "--resume",
            action="store_true",
            help="reload completed topologies from --checkpoint instead of "
            "recomputing them (bit-identical)",
        )
        command.add_argument(
            "--cache-dir",
            metavar="PATH",
            default=os.environ.get("REPRO_CACHE_DIR"),
            help="content-addressed result cache root (repro.cache/v1); "
            "warm runs reload channel realizations and per-topology "
            "results bit-identically (default: $REPRO_CACHE_DIR)",
        )
        command.add_argument(
            "--no-cache",
            action="store_true",
            help="ignore --cache-dir / $REPRO_CACHE_DIR and recompute everything",
        )
        command.add_argument(
            "--cache-stats",
            action="store_true",
            help="print cache hit/miss/corrupt counts and byte totals after the run",
        )
        command.add_argument(
            "--shard-dir",
            metavar="DIR",
            default=None,
            help="run through the sharded experiment service: publish the "
            "run's shards into DIR (idempotent), cooperate with any other "
            "workers on it, and harvest the combined bit-identical result",
        )

    def add_ncell_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--n-aps",
            type=_positive_int,
            default=2,
            help="interfering AP/client pairs per topology (default: 2, the paper's setting)",
        )
        command.add_argument(
            "--cluster-policy",
            choices=CLUSTER_POLICIES,
            default=None,
            help="cluster-formation policy for N-cell runs: coordinate "
            "within clusters, CSMA across them (default: fixed = one "
            "cluster of all APs)",
        )
        command.add_argument(
            "--cluster-threshold",
            type=float,
            metavar="DB",
            default=None,
            help="cross-gain threshold in dB for the threshold/greedy "
            "policies (default: -80)",
        )

    run = sub.add_parser("run", help="run one scenario and print its CDF table")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("-n", "--topologies", type=_positive_int, default=30)
    run.add_argument("--plus", action="store_true", help="include COPA+ (slow)")
    run.add_argument(
        "--interference",
        type=float,
        default=0.0,
        help="scale cross links by this many dB (e.g. -10 for Fig. 12)",
    )
    add_runner_args(run)
    add_ncell_args(run)
    run.set_defaults(func=_cmd_run)

    sub.add_parser("table1", help="print the reproduced Table 1").set_defaults(
        func=_cmd_table1
    )

    nulling = sub.add_parser("nulling", help="Figure 3's nulling statistics")
    nulling.add_argument("-n", "--topologies", type=_positive_int, default=30)
    nulling.set_defaults(func=_cmd_nulling)

    topo = sub.add_parser("topology", help="inspect one generated topology")
    topo.add_argument("--seed", type=int, default=7)
    topo.set_defaults(func=_cmd_topology)

    report = sub.add_parser(
        "report", help="write a markdown evaluation report for one scenario"
    )
    report.add_argument("scenario", choices=sorted(SCENARIOS))
    report.add_argument("-n", "--topologies", type=_positive_int, default=30)
    report.add_argument("--plus", action="store_true", help="include COPA+ (slow)")
    report.add_argument("--interference", type=float, default=0.0)
    report.add_argument("-o", "--output", default=None, help="file path (default: stdout)")
    add_runner_args(report)
    add_ncell_args(report)
    report.set_defaults(func=_cmd_report)

    service = sub.add_parser(
        "service",
        help="sharded multi-process experiment service + allocation queries",
    )
    ssub = service.add_subparsers(dest="service_command", required=True)

    def add_cache_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--cache-dir",
            metavar="PATH",
            default=os.environ.get("REPRO_CACHE_DIR"),
            help="shared repro.cache/v1 root (default: $REPRO_CACHE_DIR)",
        )
        command.add_argument("--no-cache", action="store_true", help="run cache-free")
        command.add_argument(
            "--cache-stats", action="store_true", help="print cache counters at exit"
        )

    def add_obs_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", action="store_true", help="collect spans and print the timing tree"
        )
        command.add_argument(
            "--metrics-out",
            metavar="PATH",
            default=None,
            help="write the trace + metrics as repro.obs/v1 JSON to PATH",
        )

    publish = ssub.add_parser(
        "publish", help="publish one experiment's claimable shards into a directory"
    )
    publish.add_argument("scenario", choices=sorted(SCENARIOS))
    publish.add_argument("--shard-dir", metavar="DIR", required=True)
    publish.add_argument("-n", "--topologies", type=_positive_int, default=30)
    publish.add_argument("--plus", action="store_true", help="include COPA+ (slow)")
    publish.add_argument(
        "--interference",
        type=float,
        default=0.0,
        help="scale cross links by this many dB (carried in the manifest)",
    )
    shard_count = publish.add_mutually_exclusive_group()
    shard_count.add_argument(
        "--shards", type=_positive_int, default=None, help="shard count (default: ≤ 8)"
    )
    shard_count.add_argument(
        "--shard-size", type=_positive_int, default=None, help="topologies per shard"
    )
    add_cache_args(publish)
    add_ncell_args(publish)
    publish.set_defaults(func=_cmd_service_publish)

    worker = ssub.add_parser(
        "worker", help="claim and drain shards until the experiment completes"
    )
    worker.add_argument("--shard-dir", metavar="DIR", required=True)
    worker.add_argument("--worker-id", default=None, help="lease identity (default: auto)")
    worker.add_argument(
        "--lease-ttl",
        type=_positive_float,
        metavar="SECONDS",
        default=30.0,
        help="heartbeat age after which a peer's lease is reclaimable (default: 30)",
    )
    worker.add_argument(
        "--timeout",
        type=_positive_float,
        metavar="SECONDS",
        default=None,
        help="give up if the experiment is not complete in time (default: wait)",
    )
    worker.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        help="re-attempts per topology before the shard fails (default: 2)",
    )
    worker.add_argument(
        "--task-timeout",
        type=_positive_float,
        metavar="SECONDS",
        default=None,
        help="per-topology result-wait timeout on the pool path (default: none)",
    )
    add_cache_args(worker)
    add_obs_args(worker)
    worker.set_defaults(func=_cmd_service_worker)

    harvest = ssub.add_parser(
        "harvest", help="assemble and print the combined result of a shard directory"
    )
    harvest.add_argument("--shard-dir", metavar="DIR", required=True)
    harvest.add_argument(
        "--timeout",
        type=_positive_float,
        metavar="SECONDS",
        default=None,
        help="poll until every shard is done (default: fail if incomplete)",
    )
    add_cache_args(harvest)
    add_obs_args(harvest)
    harvest.set_defaults(func=_cmd_service_harvest)

    query = ssub.add_parser(
        "query", help="answer strategy queries from the warm cache (compute on miss)"
    )
    query.add_argument("scenario", choices=sorted(SCENARIOS))
    query.add_argument("-n", "--topologies", type=_positive_int, default=8)
    query.add_argument("--plus", action="store_true", help="include COPA+ (slow)")
    query.add_argument(
        "--interference", type=float, default=0.0, help="cross-link offset in dB"
    )
    query.add_argument(
        "--grid-db",
        type=_grid_db,
        default=0.25,
        help="quantization grid for the lookup key (default: 0.25 dB)",
    )
    query.add_argument(
        "--topology", type=int, default=None, help="query one topology index only"
    )
    query.add_argument(
        "--repeat",
        type=_positive_int,
        default=1,
        help="query each topology this many times (repeats hit the warm cache)",
    )
    add_cache_args(query)
    add_obs_args(query)
    query.set_defaults(func=_cmd_service_query)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) is None:
        # Read only when a command runs, so a bad value cannot break --help.
        try:
            args.workers = workers_from_env()
        except ValueError as error:
            parser.error(str(error))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
