"""Perf acceptance for the batched multi-topology engine.

The batched engine (:mod:`repro.core.batch`) evaluates a whole stack of
topologies as ``(n_topologies, n_sc, n_rx, n_tx)`` arrays in single
NumPy calls instead of running the engine once per topology as a
one-row batch.  This harness measures the end-to-end sweep speedup of
``run_experiment`` with the default batched dispatch
(``batch_size=None``) over the legacy per-topology path
(``batch_size=1``) — same tasks, same seeds, same bits.

Before timing anything the harness asserts that the batched and legacy
runs produce **bit-identical** per-series arrays — a batched engine that
is fast but wrong must never post a number.

Run it as a script (CI uses ``--quick --check``)::

    PYTHONPATH=src python benchmarks/bench_batch.py [--quick]
        [--output BENCH_batch.json] [--check] [--validate PATH]

``--check`` exits non-zero if the speedup drops below the floor: 5x for
the full workload, 1x for ``--quick`` (CI machines are noisy and the
quick workload is small; the committed full payload carries the real
acceptance number).  ``--validate PATH`` only validates an existing
payload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, List

if __package__ in (None, ""):  # script mode: make src/ importable
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np

SCHEMA_ID = "repro.bench/batch-v1"
DEFAULT_OUTPUT = "BENCH_batch.json"
SEED = 2015

#: End-to-end batched speedup floor for the full workload (--check).
SPEEDUP_FLOOR = 5.0
#: Relaxed floor for --quick: batching must at least never be a loss.
QUICK_SPEEDUP_FLOOR = 1.0


def _workload(quick: bool):
    from repro.sim.config import SimConfig
    from repro.sim.experiment import ScenarioSpec

    # The 3x2 overconstrained scenario with COPA+ is the most expensive
    # per-topology menu (SDA + mercury), i.e. the sweep the batching
    # exists to accelerate.
    spec = ScenarioSpec("3x2", 3, 2, include_copa_plus=True)
    config = SimConfig(n_topologies=4 if quick else 32, seed=SEED)
    return spec, config


def _series_of(result) -> Dict[str, np.ndarray]:
    return {key: result.series_mbps(key) for key in result.available_series()}


def _assert_identical(reference: Dict[str, np.ndarray], candidate, label: str) -> None:
    series = _series_of(candidate)
    assert series.keys() == reference.keys(), f"{label}: series set drifted"
    for key, values in reference.items():
        np.testing.assert_array_equal(
            series[key], values, err_msg=f"{label}: series {key!r} not bit-identical"
        )


def run_benchmark(quick: bool = False) -> Dict[str, object]:
    """Time batched vs per-topology dispatch and build the batch-v1 payload."""
    from repro.sim.experiment import run_experiment

    spec, config = _workload(quick)
    repeats = 1 if quick else 2

    # --- correctness gate: batched vs legacy, bit-identical ---
    legacy_result = run_experiment(spec, config, workers=1, batch_size=1)
    reference = _series_of(legacy_result)
    batched_result = run_experiment(spec, config, workers=1)
    _assert_identical(reference, batched_result, "batched")
    batch_size = batched_result.stats.batch_size
    assert batch_size > 1, "batched dispatch did not engage"

    # --- legacy vs batched timing ---
    legacy_samples, batched_samples = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        run_experiment(spec, config, workers=1, batch_size=1)
        legacy_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_experiment(spec, config, workers=1)
        batched_samples.append(time.perf_counter() - start)
    legacy_s = float(statistics.median(legacy_samples))
    batched_s = float(statistics.median(batched_samples))

    return {
        "schema": SCHEMA_ID,
        "quick": quick,
        "workload": {
            "scenario": spec.name,
            "include_copa_plus": spec.include_copa_plus,
            "n_topologies": config.n_topologies,
            "seed": SEED,
            "series": sorted(reference),
        },
        "batch": {
            "legacy_s": round(legacy_s, 4),
            "batched_s": round(batched_s, 4),
            "speedup": round(legacy_s / batched_s, 2),
            "speedup_floor": QUICK_SPEEDUP_FLOOR if quick else SPEEDUP_FLOOR,
            "batch_size": int(batch_size),
            "repeats": repeats,
        },
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def validate_bench_payload(payload: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid batch-v1 document."""

    def fail(message: str):
        raise ValueError(f"BENCH_batch payload invalid: {message}")

    if not isinstance(payload, dict):
        fail("payload must be an object")
    if payload.get("schema") != SCHEMA_ID:
        fail(f"schema must be {SCHEMA_ID!r}, got {payload.get('schema')!r}")
    if not isinstance(payload.get("quick"), bool):
        fail("quick must be a boolean")
    workload = payload.get("workload")
    if not isinstance(workload, dict):
        fail("workload must be an object")
    for key in ("n_topologies", "seed"):
        if not isinstance(workload.get(key), int):
            fail(f"workload.{key} must be an integer")
    if not isinstance(workload.get("include_copa_plus"), bool):
        fail("workload.include_copa_plus must be a boolean")
    if not isinstance(workload.get("series"), list) or not workload["series"]:
        fail("workload.series must be a non-empty list")
    batch = payload.get("batch")
    if not isinstance(batch, dict):
        fail("batch must be an object")
    for key in ("legacy_s", "batched_s", "speedup", "speedup_floor"):
        value = batch.get(key)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"batch.{key} must be a positive number")
    for key in ("batch_size", "repeats"):
        if not isinstance(batch.get(key), int) or batch[key] < 1:
            fail(f"batch.{key} must be a positive integer")
    if batch["batch_size"] < 2:
        fail("batch.batch_size must be >= 2 (otherwise nothing was batched)")


def format_report(payload: Dict[str, object]) -> str:
    batch = payload["batch"]
    workload = payload["workload"]
    return "\n".join(
        [
            f"{'workload':<28}{workload['scenario']:>6}  "
            f"({workload['n_topologies']} topologies, copa_plus={workload['include_copa_plus']})",
            f"{'legacy per-topology (median)':<28}{batch['legacy_s']:>9.2f} s",
            f"{'batched engine (median)':<28}{batch['batched_s']:>9.2f} s",
            f"{'end-to-end speedup':<28}{batch['speedup']:>8.1f}x  "
            f"(floor {batch['speedup_floor']:.0f}x, batch size {batch['batch_size']})",
        ]
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI profile: 4 topologies, 1 repeat")
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help="payload path (default BENCH_batch.json)")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless the speedup meets the floor "
        f"({SPEEDUP_FLOOR:.0f}x full, {QUICK_SPEEDUP_FLOOR:.0f}x quick)",
    )
    parser.add_argument(
        "--validate",
        metavar="PATH",
        help="validate an existing payload file and exit (no benchmarking)",
    )
    args = parser.parse_args(argv)

    if args.validate:
        with open(args.validate) as handle:
            payload = json.load(handle)
        validate_bench_payload(payload)
        print(f"{args.validate}: valid {SCHEMA_ID} payload")
        return 0

    payload = run_benchmark(quick=args.quick)
    validate_bench_payload(payload)
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_report(payload))
    print(f"wrote {args.output}")

    if args.check:
        floor = payload["batch"]["speedup_floor"]
        if payload["batch"]["speedup"] < floor:
            print(
                f"FAIL: batched speedup {payload['batch']['speedup']}x below the "
                f"{floor:.0f}x floor",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
