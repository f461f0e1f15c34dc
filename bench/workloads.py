"""The four benchmark workloads; each run executes in one child process.

Run as ``python -m bench.workloads --workload NAME --seed N --seconds S``
(``bench.run`` does this; see ``bench/README.md``).  The child builds
its inputs from the seed, warms up on a different seed, prints ``READY``
(the parent's set-up clock stops there) and then one host probe
(:mod:`bench.host`), repeats one round of work until the next round
would overrun ``--seconds``, checks its outputs and prints one JSON line
of raw measurements for the parent to turn into metrics.  With
``--trace`` every round of the window runs under
:class:`bench.layers.LayerTrace`, and one plain round after the window
checks that tracing changed no output.  With ``--setup-only`` it exits
after the probe.

A round (a :class:`Unit`) runs every operation of the run once, in the
same order each time: a few experiments for the experiment workloads,
one pass of queries over a fresh cache for ``decision-query-4x2``.  Every
operation (an experiment, a query) is one sample, and the host is probed
between operations at least every :data:`PROBE_INTERVAL_S`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from bench import host

#: Warm-up inputs come from this far past the measured seed; topology t
#: draws from ``seed + t``, so the two input sets never share a topology.
WARM_UP_SEED_OFFSET = 100_000
#: The host is probed before an operation when the last probe ended at
#: least this long ago, so every operation has a probe close on each side.
PROBE_INTERVAL_S = 0.25
#: A group of probes lasts about this share of the operation before it
#: (at least one probe), so a long operation gets a longer look at the
#: host on either side.
PROBE_SHARE = 0.05
#: Probes after ``READY``, to scale the set-up time.
SETUP_PROBES = 3


@dataclasses.dataclass
class Sample:
    """One operation: its caller-side latency and whether it was correct."""

    latency_s: float
    ok: bool
    topologies: int
    #: ``time.perf_counter()`` when the operation began.
    start_s: float = 0.0
    #: ``ServiceAnswer.elapsed_s`` (decision queries only).
    reported_s: Optional[float] = None


@dataclasses.dataclass
class Unit:
    samples: List[Sample]
    #: Output name (a series, a query key) -> SHA-256 of that output.
    digest: Dict[str, str]
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return sum(sample.latency_s for sample in self.samples)


class Clock:
    """Times operations and probes the host's speed between them."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        #: ``(start, end, mean probe seconds)`` of every group of probes.
        self.probes: List[Tuple[float, float, float]] = []
        self._last_s = 0.0

    def probe(self) -> None:
        """Probe the host for about PROBE_SHARE of the last operation."""
        count = max(1, round(PROBE_SHARE * self._last_s / host.REFERENCE_S))
        start = time.perf_counter()
        seconds = host.probe(count)
        self.probes.append((start, time.perf_counter(), seconds))

    def time(self, operation: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``operation``; returns its result, its start and its seconds."""
        if self.probing and (
            not self.probes or time.perf_counter() - self.probes[-1][1] >= PROBE_INTERVAL_S
        ):
            self.probe()
        start = time.perf_counter()
        result = operation()
        self._last_s = time.perf_counter() - start
        return result, start, self._last_s


def series_digest(result, prefix: str = "") -> Dict[str, str]:
    """SHA-256 of every measured per-topology series of an experiment."""
    return {
        prefix + str(key): hashlib.sha256(result.series_mbps(key).tobytes()).hexdigest()
        for key in result.available_series()
    }


def outcome_digest(outcome) -> str:
    """SHA-256 of a strategy answer: both choices and every throughput."""
    digest = hashlib.sha256(f"{outcome.copa_choice}|{outcome.copa_fair_choice}".encode())
    for table in (outcome.schemes, outcome.predictions):
        for name in sorted(table):
            digest.update(f"|{name}".encode())
            for value in table[name].client_throughput_bps:
                digest.update(float(value).hex().encode())
    return digest.hexdigest()


class Workload:
    """Inputs, warm-up and one round of closed-loop work."""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self, clock: Clock) -> Unit:
        """One round: every operation of the run, in a fixed order."""
        raise NotImplementedError

    def reference(self) -> Optional[Dict[str, str]]:
        """An independently computed digest every unit must match, or None."""
        return None


class _Experiment(Workload):
    """``run_experiment`` over one scenario; a round runs a few of them.

    Experiment ``i`` of a round covers topologies ``16 i`` to ``16 i + 15``
    (for 16 per experiment) of the seed's sequence, so the round covers the
    same topologies as one experiment over all of them would.
    """

    include_copa_plus = False
    n_topologies = 0
    n_experiments = 1
    tiny_topologies = 2
    #: ``EngineOptions.max_iterations`` of the Fig-6 iteration; None keeps
    #: the engine's default (8).  The self-test always uses 1.
    fig6_iterations: Optional[int] = None

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        from repro.core.options import EngineOptions
        from repro.sim.experiment import CONSTRAINED_4X2, OVERCONSTRAINED_3X2

        base = OVERCONSTRAINED_3X2 if self.scenario == "3x2" else CONSTRAINED_4X2
        self.spec = dataclasses.replace(base, include_copa_plus=self.include_copa_plus)
        self.n = self.tiny_topologies if tiny else self.n_topologies
        experiments = min(2, self.n_experiments) if tiny else self.n_experiments
        self.configs = [self.config(seed + index * self.n) for index in range(experiments)]
        iterations = 1 if tiny else self.fig6_iterations
        self.options = None if iterations is None else EngineOptions(max_iterations=iterations)

    def config(self, seed: int, n: Optional[int] = None):
        from repro.sim.config import SimConfig

        return SimConfig(n_topologies=self.n if n is None else n, seed=seed)

    def run(self, config, **kwargs):
        from repro.sim.experiment import run_experiment

        return run_experiment(self.spec, config, options=self.options, **kwargs)

    def warm_up(self) -> None:
        self.run(self.config(self.seed + WARM_UP_SEED_OFFSET, n=2))

    def unit(self, clock: Clock) -> Unit:
        samples, digest = [], {}
        for index, config in enumerate(self.configs):
            result, start, latency = clock.time(lambda: self.run(config))
            samples.append(Sample(latency, True, self.n, start))
            digest.update(series_digest(result, f"{index}/"))
        return Unit(samples, digest)


class CopaPlus3x2(_Experiment):
    """COPA+ with one Fig-6 iteration, so a run holds several experiments.

    At the default eight iterations one experiment takes 13-25 s on two
    vCPUs, and how many iterations each topology needs moves its cost by
    about 6% from seed to seed; with one iteration mercury's work varies
    by under 2% across seeds at 16 topologies.
    """

    scenario = "3x2"
    include_copa_plus = True
    n_topologies = 16
    tiny_topologies = 1
    fig6_iterations = 1

    def warm_up(self) -> None:
        # A COPA+ warm-up experiment would cost most of a round; a plain one
        # plus one mercury call fills the same lazy tables.
        import numpy as np
        from repro.core.mercury import mercury_allocate_batch

        warm_spec, self.spec = self.spec, dataclasses.replace(self.spec, include_copa_plus=False)
        try:
            super().warm_up()
        finally:
            self.spec = warm_spec
        gains = np.random.default_rng(self.seed + WARM_UP_SEED_OFFSET).uniform(1.0, 1e3, (1, 52))
        mercury_allocate_batch(gains, 1.0)


class Menu4x2(_Experiment):
    scenario = "4x2"
    n_topologies = 16
    n_experiments = 4


class ShardDrain4x2(_Experiment):
    """The calling process is the only worker draining a fresh shard dir."""

    scenario = "4x2"
    n_topologies = 4
    n_experiments = 4

    def _sharded(self, config, clock: Clock) -> Tuple[object, float, float, int]:
        from repro.cache import ResultCache

        root = tempfile.mkdtemp(prefix="shard-", dir=self.workdir)
        try:
            cache = ResultCache(os.path.join(root, "cache"))
            shard_dir = os.path.join(root, "shards")
            result, start, latency = clock.time(
                lambda: self.run(config, shard_dir=shard_dir, cache=cache)
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return result, start, latency, cache.stats.bytes_written

    def warm_up(self) -> None:
        self._sharded(self.config(self.seed + WARM_UP_SEED_OFFSET, n=2), Clock(probing=False))

    def unit(self, clock: Clock) -> Unit:
        samples, digest, written = [], {}, 0
        for index, config in enumerate(self.configs):
            result, start, latency, bytes_written = self._sharded(config, clock)
            samples.append(Sample(latency, True, self.n, start))
            digest.update(series_digest(result, f"{index}/"))
            written += bytes_written
        return Unit(samples, digest, written)

    def reference(self) -> Dict[str, str]:
        """The harvests must equal batched, unsharded runs of the same seeds."""
        digest = {}
        for index, config in enumerate(self.configs):
            digest.update(series_digest(self.run(config), f"{index}/"))
        return digest


class DecisionQuery4x2(Workload):
    """One client querying ``AllocationService``; each unit is one pass.

    A pass queries each of the 16 seeded channel sets (cells) 16 times, in
    a seeded random order, over a fresh cache: 16 misses and 240 hits.
    """

    n_channels, repeats = 16, 16
    tiny_channels, tiny_repeats = 2, 4

    def __init__(self, seed: int, tiny: bool, workdir: str):
        super().__init__(seed, tiny, workdir)
        from repro.sim.experiment import CONSTRAINED_4X2

        self.spec = dataclasses.replace(CONSTRAINED_4X2, include_copa_plus=False)
        n = self.tiny_channels if tiny else self.n_channels
        repeats = self.tiny_repeats if tiny else self.repeats
        self.channels = self._channels(seed, n)
        self.order = [index for index in range(n) for _ in range(repeats)]
        random.Random(seed).shuffle(self.order)

    def _channels(self, seed: int, n: int):
        from repro.sim.config import SimConfig
        from repro.sim.experiment import generate_channel_sets

        return generate_channel_sets(self.spec, SimConfig(n_topologies=n, seed=seed))

    def _pass(self, seed: int, channels, order, clock: Clock) -> Unit:
        from repro.cache import ResultCache
        from repro.sim.config import SimConfig
        from repro.sim.service import AllocationService

        root = tempfile.mkdtemp(prefix="query-", dir=self.workdir)
        try:
            service = AllocationService(ResultCache(root), config=SimConfig(seed=seed))
            cold: Dict[str, str] = {}
            samples = []
            for index in order:
                answer, start, latency = clock.time(lambda: service.query(channels[index]))
                digest = outcome_digest(answer.outcome)
                # The first query of a cell must miss and fill it; every
                # later one must hit and return the identical answer.
                expected_hit = answer.key in cold
                ok = answer.hit == expected_hit and cold.setdefault(answer.key, digest) == digest
                samples.append(Sample(latency, ok, 1, start, answer.elapsed_s))
            written = service.cache.stats.bytes_written
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return Unit(samples, cold, written)

    def warm_up(self) -> None:
        warm_seed = self.seed + WARM_UP_SEED_OFFSET
        self._pass(warm_seed, self._channels(warm_seed, 2), [0, 1, 0, 1], Clock(probing=False))

    def unit(self, clock: Clock) -> Unit:
        return self._pass(self.seed, self.channels, self.order, clock)


WORKLOADS = {
    "copa-plus-3x2": CopaPlus3x2,
    "menu-4x2": Menu4x2,
    "decision-query-4x2": DecisionQuery4x2,
    "shard-drain-4x2": ShardDrain4x2,
}


def _guarded_unit(workload: Workload, clock: Clock) -> Unit:
    """One unit; an exception becomes one failed sample, never a crash."""
    start = time.perf_counter()
    try:
        return workload.unit(clock)
    except Exception:  # noqa: BLE001 - the loop must keep measuring
        traceback.print_exc()
        # An empty digest agrees with nothing, so the unit stays failed.
        return Unit([Sample(time.perf_counter() - start, False, 0, start)], {})


def timed_units(workload: Workload, seconds: float, clock: Clock, trace=None) -> List[Unit]:
    """Closed loop of units until the next unit would overrun ``seconds``.

    Given a :class:`~bench.layers.LayerTrace`, every unit runs under it.
    The host is probed once more after the last unit.
    """
    units: List[Unit] = []
    start = time.perf_counter()
    while True:
        if trace is None:
            units.append(_guarded_unit(workload, clock))
        else:
            with trace.installed():
                units.append(_guarded_unit(workload, clock))
        predicted = statistics.median(unit.wall_s for unit in units)
        if time.perf_counter() - start + predicted > seconds:
            clock.probe()
            return units


def agrees(digest: Dict[str, str], expected: Dict[str, str]) -> bool:
    """``digest`` has outputs, exactly those of ``expected``, bit for bit."""
    return bool(digest) and digest == expected


def _check(unit: Unit, expected: Dict[str, str]) -> None:
    """Fail the unit's samples unless it agrees with ``expected``."""
    if not agrees(unit.digest, expected):
        for sample in unit.samples:
            sample.ok = False


def _unit_payload(unit: Unit) -> Dict[str, object]:
    return {
        "latency_s": [sample.latency_s for sample in unit.samples],
        "start_s": [sample.start_s for sample in unit.samples],
        "ok": [sample.ok for sample in unit.samples],
        "topologies": [sample.topologies for sample in unit.samples],
        "reported_s": [sample.reported_s for sample in unit.samples],
        "bytes_written": unit.bytes_written,
    }


def _ready() -> None:
    """Tell the parent set-up is over, then probe the host for it."""
    print("READY", flush=True)
    print(repr(host.probe(SETUP_PROBES)), flush=True)


def run_child(name: str, seed: int, seconds: float, trace: bool, tiny: bool, workdir: str) -> dict:
    """Measure one workload after set-up; returns the raw-measurement payload."""
    import numpy as np

    workload = WORKLOADS[name](seed, tiny, workdir)
    workload.warm_up()
    _ready()

    layer_trace = None
    if trace:
        from bench.layers import LayerTrace, wrapper_cost_s

        layer_trace = LayerTrace()
    clock = Clock()
    units = timed_units(workload, seconds, clock, layer_trace)
    # Reps must be bit-identical to each other, and to an independently
    # computed reference after the timed window: batched, unsharded runs
    # for the shard drain; a plain unit for traced units, because
    # tracing must not change what the program computes.
    seen = next((unit.digest for unit in units if unit.digest), {})
    reference = workload.reference()
    if reference is None and trace:
        reference = _guarded_unit(workload, Clock(probing=False)).digest
    for unit in units:
        _check(unit, seen)
        if reference is not None:
            _check(unit, reference)

    trace_payload = None
    if layer_trace is not None:
        trace_payload = dict(layer_trace.as_dict(), wrapper_cost_s=wrapper_cost_s())
    return {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "digest": seen,
        "units": [_unit_payload(unit) for unit in units],
        "probes": clock.probes,
        "trace": trace_payload,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the src/ directory repro must load from")
    args = parser.parse_args(argv)

    import repro

    # Never measure some other installed copy of the package.
    loaded = os.path.realpath(os.path.dirname(repro.__file__))
    if os.path.dirname(loaded) != os.path.realpath(args.src):
        print(f"repro was imported from {loaded}, not from {args.src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, args.tiny, workdir).warm_up()
            _ready()
            return 0
        payload = run_child(
            args.workload, args.seed, args.seconds, args.trace, args.tiny, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
