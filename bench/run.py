"""Run the repository benchmark: ``python -m bench`` from the repository root.

Each workload runs in fresh child processes (:mod:`bench.workloads`).
Set-up-only children before and after the measuring child, and the
measuring child itself, each time process start to ``READY``;
``setup_s`` is the median of the five.  The measuring child runs the
timed window and reports raw samples; this module turns them into the
metrics named in ``BENCHMARK.json``, checks the outputs against the
digests stored in ``bench/digests.json`` for the default seed, and
prints a table followed by one JSON result line.  Every timing metric
is scaled to a reference host speed by host probes taken next to what
it times (:mod:`bench.host`); the payload keeps the wall times too.

``--trace 1`` skips the extra set-ups, has the child run its units
under the layer trace (:mod:`bench.layers`) and reports the
``per_layer`` metrics instead.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from bench import host
from bench.workloads import SETUP_PROBES, agrees

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_FILE = os.path.join(ROOT, "bench", "digests.json")
#: Scratch space for caches and shard directories, inside the checkout
#: so the benchmark writes nowhere else; removed after each run.
WORKDIR = os.path.join(ROOT, ".bench_work")
DEFAULT_SEED = 2015
#: Set-up-only children run before and after the measuring child, so the
#: set-ups sample the host over the whole run.
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
#: Each workload's children must end within ``--seconds`` plus this: room
#: for the set-ups (about 1.5 s each on 2 vCPUs), a unit that overruns
#: the window and the checks after it.
DEADLINE_MARGIN_S = 145.0
#: BLAS thread variables; the children get 1 for any that is unset, so
#: no idle BLAS threads compete for the host's few cores.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("copa-plus-3x2", "menu-4x2", "decision-query-4x2", "shard-drain-4x2")


class BenchError(RuntimeError):
    """A child failed to start, crashed or overran the deadline."""


def load_definition() -> dict:
    with open(BENCHMARK_FILE) as handle:
        return json.load(handle)


def load_digests() -> dict:
    try:
        with open(DIGESTS_FILE) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def digest_key(workload: str, tiny: bool) -> str:
    return f"{workload}/tiny" if tiny else workload


def _child(args: List[str], deadline: float) -> Tuple[Tuple[float, float], List[str]]:
    """Start a child; returns its set-up time and its stdout after it.

    The set-up time runs from process start to ``READY``, as a pair: its
    wall time scaled to the reference host speed by a probe just before
    the start and the child's probe just after ``READY``, and the wall
    time itself.
    """
    env = dict({name: "1" for name in BLAS_ENV}, **os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "bench.workloads", "--src", SRC, "--workdir", WORKDIR]
    before = host.probe(SETUP_PROBES)
    start = time.perf_counter()
    process = subprocess.Popen(
        command + args, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), process.kill)
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        after = process.stdout.readline()
        rest = process.stdout.read().splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"child {' '.join(args)} failed (exit {code})")
    return (host.scaled(setup_s, (before + float(after)) / 2), setup_s), rest


def _median_iqr(values: List[float]) -> Dict[str, float]:
    """A median with its interquartile range and sample count."""
    iqr = 0.0
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    return {"value": statistics.median(values), "iqr": iqr, "samples": len(values)}


def _tail(latency: List[float]) -> float:
    """The highest percentile with ten samples beyond it.

    Below 21 samples that percentile would fall under the median, so the
    median stands in.
    """
    ordered = sorted(latency)
    return ordered[-11] if len(ordered) >= 21 else statistics.median(ordered)


def _timings(latency_s: List[float], topologies: List[int]) -> List[float]:
    """Median and tail latency (ms) and topologies per second of busy time."""
    return [
        statistics.median(latency_s) * 1e3,
        _tail(latency_s) * 1e3,
        sum(topologies) / sum(latency_s),
    ]


def end_to_end_metrics(child: dict, setups: List[Tuple[float, float]]) -> Dict[str, dict]:
    """The ``end_to_end`` metrics, each with its sample count and IQR.

    Every operation's wall time is scaled to the reference host speed by
    the probes on either side of it (:mod:`bench.host`).  Every unit runs
    the same operations in the same order, so each operation is timed
    once per unit; the median of its scaled times is its cost, and the
    timing metrics are taken over those costs.  Each timing also carries
    ``wall``, the same metric on unscaled wall times, and the IQR of the
    metric taken unit by unit.
    """
    # A failed unit may hold fewer samples; only complete ones count.
    size = max(len(unit["latency_s"]) for unit in child["units"])
    units = [unit for unit in child["units"] if len(unit["latency_s"]) == size]
    probes = child["probes"]
    scaled = [
        [
            host.scaled(latency, host.host_s(start, latency, probes))
            for start, latency in zip(unit["start_s"], unit["latency_s"])
        ]
        for unit in units
    ]
    walls = [unit["latency_s"] for unit in units]
    topologies = units[0]["topologies"]

    def cost(times: List[List[float]]) -> List[float]:
        return _timings([statistics.median(each) for each in zip(*times)], topologies)

    values, wall = cost(scaled), cost(walls)
    per_unit = [_timings(times, topologies) for times in scaled]
    metrics = {}
    for index, name in enumerate(("latency_p50_ms", "latency_tail_ms", "topologies_per_s")):
        spread = _median_iqr([timings[index] for timings in per_unit])
        metrics[name] = dict(spread, value=values[index], wall=wall[index], samples=size * len(units))
    metrics["setup_s"] = dict(
        _median_iqr([value for value, _ in setups]),
        wall=statistics.median(seconds for _, seconds in setups),
    )
    metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "samples": 1}
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(child: dict) -> Dict[str, float]:
    """The ``per_layer`` metrics, per traced unit."""
    trace = child["trace"]
    traced = child["units"]
    n = len(traced)
    wall = sum(sum(unit["latency_s"]) for unit in traced)
    overhead = trace["wrapper_cost_s"] * sum(trace["calls"].values())
    gaps = [
        (latency - reported) * 1e3
        for unit in child["units"]
        for latency, reported in zip(unit["latency_s"], unit["reported_s"])
        if reported is not None
    ]

    def s(layer: str) -> float:
        return trace["self_s"].get(layer, 0.0) / n

    def calls(layer: str) -> float:
        return trace["calls"].get(layer, 0) / n

    def count(key: str) -> float:
        return trace["counts"].get(key, 0) / n

    return {
        "phy.channel.realize_s": s("phy.channel.realize"),
        "phy.channel.csi_s": s("phy.channel.csi"),
        "core.batch.csi_s": s("core.batch.csi"),
        "core.batch.engine_s": s("core.batch.engine"),
        "core.batch.rows_per_run": _ratio(count("core.batch.rows"), count("core.batch.runs")),
        "core.strategy.engine_s": s("core.strategy.engine"),
        "core.strategy.engine_total_s": trace["total_s"].get("core.strategy.engine", 0.0) / n,
        "core.strategy.engine_runs": count("engine.runs"),
        "core.strategy.choose_s": s("core.strategy.choose"),
        "phy.mimo.design_s": s("phy.mimo.design"),
        "phy.mimo.design_calls": calls("phy.mimo.design"),
        "phy.mimo.mmse_s": s("phy.mimo.mmse"),
        "core.equi_snr.allocate_s": s("core.equi_snr.allocate"),
        "core.equi_snr.calls": calls("core.equi_snr.allocate"),
        "core.equi_snr.rows": count("equi_snr.rows"),
        "core.equi_sinr.fig6_s": s("core.equi_sinr.fig6"),
        "core.equi_sinr.fig6_iterations_mean": _ratio(count("fig6.iterations"), count("fig6.rows")),
        "core.equi_sinr.fig6_converged_frac": _ratio(count("fig6.converged"), count("fig6.rows")),
        "core.mercury.allocate_s": s("core.mercury.allocate"),
        "core.mercury.waterfill_s": s("core.mercury.waterfill"),
        "core.mercury.waterfill_calls": calls("core.mercury.waterfill"),
        "core.mercury.rows_per_call": _ratio(count("mercury.rows"), calls("core.mercury.waterfill")),
        "core.mercury.select_s": s("core.mercury.select"),
        "phy.rates.select_s": s("phy.rates.select"),
        "phy.rates.calls": calls("phy.rates.select"),
        "phy.rates.rows_per_call": _ratio(count("rates.rows"), calls("phy.rates.select")),
        "sim.runner.dispatch_s": s("sim.runner.dispatch"),
        # A maximum over calls, not a total.
        "sim.runner.batch_size": trace["counts"].get("runner.batch_size", 0),
        "cache.load_s": s("cache.load"),
        "cache.store_s": s("cache.store"),
        "cache.bytes_written": traced[0]["bytes_written"],
        "cache.hit_rate": _ratio(count("cache.hits"), count("cache.lookups")),
        "cache.lookups_per_task": _ratio(count("cache.lookups"), sum(traced[0]["topologies"])),
        "sim.checkpoint.record_s": s("sim.checkpoint.record"),
        "sim.checkpoint.records": calls("sim.checkpoint.record"),
        "sim.service.query_key_s": s("sim.service.query_key"),
        "sim.service.elapsed_gap_ms": statistics.median(gaps) if gaps else 0.0,
        "sim.service.publish_s": s("sim.service.publish"),
        "sim.service.harvest_s": s("sim.service.harvest"),
        "sim.service.worker_s": s("sim.service.worker"),
        "sim.service.heartbeat_s": s("sim.service.heartbeat"),
        "trace.wall_s": wall / n,
        "trace.residual_s": (wall - trace["top_level_s"]) / n,
        # The traced wall over the wall without the wrappers' cost, minus one.
        "trace.overhead_frac": overhead / (wall - overhead),
    }


def layer_table(child: dict) -> Dict[str, dict]:
    """Per traced unit: each layer's self time, inclusive time, calls, share."""
    trace = child["trace"]
    n = len(child["units"])
    wall = sum(sum(unit["latency_s"]) for unit in child["units"])
    return {
        layer: {
            "self_s": self_s / n,
            "total_s": trace["total_s"].get(layer, 0.0) / n,
            "calls": trace["calls"][layer] / n,
            "share": self_s / wall,
        }
        for layer, self_s in sorted(trace["self_s"].items())
    }


def _oks(child: dict) -> List[bool]:
    return [ok for unit in child["units"] for ok in unit["ok"]]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    digests: Optional[dict] = None,
) -> dict:
    """Run one workload in fresh children; returns its payload."""
    deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def setup_only() -> Tuple[float, float]:
        return _child(common + ["--seconds", "0", "--setup-only"], deadline)[0]

    # Traced and self-test runs time only the measuring child's set-up.
    extra = not (trace or tiny)
    setups = [setup_only() for _ in range(SETUPS_BEFORE if extra else 0)]
    args = common + ["--seconds", repr(float(seconds))] + (["--trace"] if trace else [])
    setup_s, lines = _child(args, deadline)
    setups.append(setup_s)
    setups += [setup_only() for _ in range(SETUPS_AFTER if extra else 0)]
    child = json.loads(lines[-1])

    oks = _oks(child)
    checks = {"self_consistent": all(oks)}
    stored = (digests or {}).get(digest_key(workload, tiny))
    if stored is not None and stored["seed"] == seed:
        checks["stored_digest"] = agrees(child["digest"], stored["digest"])
        if not checks["stored_digest"]:
            oks = [False] * len(oks)

    if trace:
        samples = len(child["units"])
        metrics = {
            name: {"value": value, "samples": samples}
            for name, value in per_layer_metrics(child).items()
        }
        layers = layer_table(child)
    else:
        metrics = end_to_end_metrics(child, setups)
        layers = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "correct": all(oks),
        "attempted": len(oks),
        "failed": oks.count(False),
        "checks": checks,
        "metrics": metrics,
        "layers": layers,
        "digest": child["digest"],
        "provenance": provenance(seed, child["numpy"]),
    }


def _git_commit() -> Optional[str]:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {name: os.environ.get(name, "1") for name in BLAS_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _summary(payloads: List[dict], definition: dict, trace: bool) -> dict:
    """The final result line: exactly correct, attempted, failed, metrics."""
    units = {
        metric["name"]: metric["unit"]
        for metric in definition["per_layer" if trace else "end_to_end"]
    }
    metrics = {}
    for payload in payloads:
        mismatch = set(units) ^ set(payload["metrics"])
        if mismatch:
            raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
        prefix = "" if len(payloads) == 1 else payload["workload"] + "."
        for name, value in payload["metrics"].items():
            metrics[prefix + name] = {"value": value["value"], "unit": units[name]}
    return {
        "correct": all(payload["correct"] for payload in payloads),
        "attempted": sum(payload["attempted"] for payload in payloads),
        "failed": sum(payload["failed"] for payload in payloads),
        "metrics": metrics,
    }


def _table(payload: dict, definition: dict) -> List[str]:
    kind = "per_layer" if payload["trace"] else "end_to_end"
    lines = [
        f"== {payload['workload']} (seed {payload['seed']}): "
        f"{payload['attempted'] - payload['failed']}/{payload['attempted']} correct, "
        f"checks {payload['checks']}"
    ]
    for metric in definition[kind]:
        value = payload["metrics"][metric["name"]]
        bound = f"bound {metric['bound']:+.0%} ({metric['better']} is better)" if "bound" in metric else ""
        spread = f"iqr {value['iqr']:.4g}" if "iqr" in value else ""
        wall = f"wall {value['wall']:.6g}" if "wall" in value else ""
        lines.append(
            f"  {metric['name']:<36}{value['value']:>14.6g} {metric['unit']:<9}"
            f" n={value['samples']:<5} {spread:<14} {wall:<16} {bound}"
        )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    definition = load_definition()
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(definition["run_seconds"]))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="self-test sizes (not comparable)")
    parser.add_argument(
        "--update-digests",
        action="store_true",
        help="store this run's output digests in bench/digests.json",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    digests = load_digests()
    payloads = []
    host.probe()  # the parent's first probe loads numpy's lazy parts
    try:
        for workload in workloads:
            payloads.append(
                run_workload(
                    workload,
                    args.seed,
                    args.seconds,
                    bool(args.trace),
                    tiny=args.tiny,
                    digests=None if args.update_digests else digests,
                )
            )
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    for payload in payloads:
        print("\n".join(_table(payload, definition)))
    print(json.dumps(payloads, sort_keys=True))
    if args.update_digests and all(payload["correct"] for payload in payloads):
        for payload in payloads:
            digests[digest_key(payload["workload"], args.tiny)] = {
                "seed": args.seed,
                "digest": payload["digest"],
            }
        with open(DIGESTS_FILE, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
    summary = _summary(payloads, definition, bool(args.trace))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
