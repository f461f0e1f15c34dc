"""Outside-in layer trace: self time and exact counts per ``repro`` layer.

The benchmark records no spans inside the program.  Instead, for the
duration of one traced operation, :meth:`LayerTrace.installed` replaces
public ``repro`` functions with timing wrappers *at the binding the
caller looks up*: a module global (``repro.core.batch.best_rate_batch``),
a class attribute (``ResultCache.load``), a registry entry
(``BATCHED_ALLOCATORS[equi_snr.allocate]``) or a default argument
(``StrategyEngine.__init__``'s ``allocator=``).  Every original is put
back on exit, so untraced runs execute the unmodified program.

A wrapper charges its call's duration to its layer, minus the time spent
in wrapped calls nested inside it; that difference is the layer's *self
time*.  Several functions may share one layer name (the batched and the
per-topology twin of an allocator, say).  Counts come only from the
wrapped calls' arguments and return values, so they repeat exactly from
run to run.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

CountFn = Callable[[Counter, tuple, dict, object], None]


def _rows(key: str) -> CountFn:
    """Count the leading dimension of the first argument under ``key``."""

    def count(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
        counts[key] += int(np.shape(args[0])[0])

    return count


def _one(key: str) -> CountFn:
    """Count one row per call under ``key`` (the per-topology twins)."""

    def count(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
        counts[key] += 1

    return count


def _batch_run(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
    counts["core.batch.runs"] += 1
    counts["core.batch.rows"] += len(result)


def _fig6_batch(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
    _, iterations, converged = result
    counts["fig6.rows"] += int(np.size(iterations))
    counts["fig6.iterations"] += int(np.sum(iterations))
    counts["fig6.converged"] += int(np.sum(converged))


def _fig6_single(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
    counts["fig6.rows"] += 1
    counts["fig6.iterations"] += int(result.iterations)
    counts["fig6.converged"] += int(bool(result.converged))


def _dispatch(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
    _, stats = result
    counts["runner.batch_size"] = max(counts["runner.batch_size"], int(stats.batch_size))


def _lookup(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
    namespace = args[1] if len(args) > 1 else kwargs["namespace"]
    # Channel-list lookups are per experiment, not per task; only the
    # per-task namespaces (results, service answers) count as lookups.
    if namespace != "channels":
        counts["cache.lookups"] += 1
        counts["cache.hits"] += result is not None


class _DefaultArg:
    """Patch target: one default argument of a function."""

    def __init__(self, function, parameter: str):
        code = function.__code__
        names = code.co_varnames[: code.co_argcount]
        self.function = function
        self.index = names.index(parameter) - (len(names) - len(function.__defaults__))

    def get(self):
        return self.function.__defaults__[self.index]

    def set(self, value) -> None:
        defaults = list(self.function.__defaults__)
        defaults[self.index] = value
        self.function.__defaults__ = tuple(defaults)


class _Attribute:
    """Patch target: an attribute of a module or class."""

    def __init__(self, owner, name: str):
        self.owner, self.name = owner, name

    def get(self):
        return self.owner.__dict__[self.name]

    def set(self, value) -> None:
        setattr(self.owner, self.name, value)


class _Entry:
    """Patch target: one value of a registry dict (its key is kept)."""

    def __init__(self, registry: dict, key):
        self.registry, self.key = registry, key

    def get(self):
        return self.registry[self.key]

    def set(self, value) -> None:
        self.registry[self.key] = value


def _targets() -> List[Tuple[str, object, Optional[CountFn]]]:
    """(layer, patch target, count) for every wrapped binding."""
    from repro.cache.store import ResultCache
    from repro.core import batch, equi_snr, mercury, precoding, strategy
    from repro.phy.channel import ChannelSet
    from repro.sim import checkpoint, experiment, runner, service

    # The serial allocator and mercury_allocate stay unpatched in their
    # modules: the batched engine uses them as BATCHED_ALLOCATORS keys.
    engine_init = strategy.StrategyEngine.__init__
    return [
        ("phy.channel.realize", _Attribute(experiment, "generate_channel_sets"), None),
        ("phy.channel.realize", _Attribute(service, "generate_channel_sets"), None),
        ("phy.channel.csi", _Attribute(ChannelSet, "measured_csi"), None),
        ("core.batch.csi", _Attribute(batch.BatchedStrategyEngine, "__init__"), None),
        ("core.batch.engine", _Attribute(batch.BatchedStrategyEngine, "run"), _batch_run),
        ("core.strategy.engine", _Attribute(runner, "evaluate_topology"), _one("engine.runs")),
        ("core.strategy.engine", _Attribute(service, "evaluate_topology"), _one("engine.runs")),
        ("core.strategy.choose", _Attribute(batch, "choose_scheme"), None),
        ("core.strategy.choose", _Attribute(strategy, "choose_scheme"), None),
        ("phy.mimo.design", _Attribute(batch, "svd_beamformer"), None),
        ("phy.mimo.design", _Attribute(batch, "nulling_precoder"), None),
        ("phy.mimo.design", _Attribute(precoding, "svd_beamformer"), None),
        ("phy.mimo.design", _Attribute(precoding, "nulling_precoder"), None),
        ("phy.mimo.mmse", _Attribute(batch, "mmse_sinr"), None),
        ("phy.mimo.mmse", _Attribute(strategy, "mmse_sinr"), None),
        (
            "core.equi_snr.allocate",
            _Entry(batch.BATCHED_ALLOCATORS, equi_snr.allocate),
            _rows("equi_snr.rows"),
        ),
        ("core.equi_snr.allocate", _DefaultArg(engine_init, "allocator"), _one("equi_snr.rows")),
        ("core.equi_sinr.fig6", _Attribute(batch, "allocate_concurrent_batch"), _fig6_batch),
        ("core.equi_sinr.fig6", _Attribute(strategy, "allocate_concurrent"), _fig6_single),
        ("core.mercury.allocate", _Entry(batch.BATCHED_ALLOCATORS, mercury.mercury_allocate), None),
        (
            "core.mercury.waterfill",
            _Attribute(mercury, "mercury_waterfilling_batch"),
            _rows("mercury.rows"),
        ),
        ("core.mercury.waterfill", _Attribute(mercury, "mercury_waterfilling"), _one("mercury.rows")),
        ("core.mercury.select", _Attribute(mercury, "best_rate_batch"), None),
        ("core.mercury.select", _Attribute(mercury, "best_rate"), None),
        ("phy.rates.select", _Attribute(batch, "best_rate_batch"), _rows("rates.rows")),
        ("phy.rates.select", _DefaultArg(engine_init, "rate_selector"), _one("rates.rows")),
        ("sim.runner.dispatch", _Attribute(experiment, "run_tasks"), _dispatch),
        ("sim.runner.dispatch", _Attribute(service, "run_tasks"), _dispatch),
        ("cache.load", _Attribute(ResultCache, "load"), _lookup),
        ("cache.store", _Attribute(ResultCache, "store"), None),
        ("sim.checkpoint.record", _Attribute(checkpoint.Journal, "record"), None),
        ("sim.service.query_key", _Attribute(service.AllocationService, "query_key"), None),
        ("sim.service.publish", _Attribute(service, "publish_shards"), None),
        ("sim.service.worker", _Attribute(service, "run_worker"), None),
        ("sim.service.heartbeat", _Attribute(service.Lease, "heartbeat"), None),
        ("sim.service.harvest", _Attribute(service, "harvest"), None),
    ]


class LayerTrace:
    """Per-layer self time, inclusive time, call counts and exact counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Time inside outermost wrapped calls; the traced wall minus this
        #: is the residual no layer accounts for.
        self.top_level_s = 0.0
        self._children: List[float] = []
        self._depth: Counter = Counter()

    def wrap(self, layer: str, function: Callable, count: Optional[CountFn]) -> Callable:
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            trace._children.append(0.0)
            trace._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = trace._children.pop()
                trace._depth[layer] -= 1
                trace.self_s[layer] += elapsed - nested
                trace.calls[layer] += 1
                if trace._depth[layer] == 0:
                    trace.total_s[layer] += elapsed
                if trace._children:
                    trace._children[-1] += elapsed
                else:
                    trace.top_level_s += elapsed
            if count is not None:
                count(trace.counts, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Wrap every target for the duration of the block."""
        applied = []
        try:
            for layer, target, count in _targets():
                original = target.get()
                target.set(self.wrap(layer, original, count))
                applied.append((target, original))
            yield self
        finally:
            for target, original in reversed(applied):
                target.set(original)

    def as_dict(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_level_s": self.top_level_s,
        }


def wrapper_cost_s(rounds: int = 5, calls: int = 20_000) -> float:
    """Seconds one wrapped call adds to its caller's wall.

    Times a no-op wrapped with a row count (the costliest count most
    layers use) against the bare no-op, on an 8-row array; the median
    over ``rounds``.  Multiplied by a trace's call count, this gives the
    trace's overhead without timing an untraced twin beside it.
    """

    def noop(rows):
        return rows

    rows = np.zeros((8, 4))
    wrapped = LayerTrace().wrap("calibration", noop, _rows("calibration.rows"))
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            noop(rows)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped(rows)
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)
