"""Process-pool experiment runner: deterministic fan-out over topologies.

Per-topology evaluation is embarrassingly parallel — the strategy engine
for topology ``t`` depends only on that topology's channel realization and
its private seed (``config.seed + 10_000 + t``), never on its neighbours.
This module exploits that: it turns a scenario into a list of picklable
:class:`TopologyTask` specs and fans them out to worker processes via
:class:`concurrent.futures.ProcessPoolExecutor`.

Determinism guarantee: every task carries the *exact* seed the serial loop
in :func:`repro.sim.experiment.run_experiment` would have used, and each
worker rebuilds its RNG from that seed alone.  Parallel results are
therefore bit-identical to serial ones — order, values and all — which is
what the equivalence suite in ``tests/sim/test_runner.py`` pins.  The same
construction makes **retries pure replays**: a re-dispatched task carries
the same seed, so its result is bit-identical to a first-try success
(pinned by the chaos suite in ``tests/sim/test_chaos.py``).

One dispatch path: every run — plain, retried, journaled, resumed,
cached, fault-injected or sharded — cuts its tasks into dispatch units
(the batched engine's homogeneous groups, capped at the chunk size, plus
every task that must run on its own) and evaluates them under one retry
loop, in a process pool or in the calling process.  A failed group is
split into halves; a failed single task gets bounded retries with
exponential backoff, a per-attempt result-wait timeout on the pool path,
and an integrity check that rejects corrupt results.  A broken pool
(real or injected via :mod:`repro.sim.faults`) degrades gracefully —
completed results are kept and the remaining topologies are
re-dispatched serially.  Tasks that fail permanently raise
:class:`RunnerError` *after* every other topology finished, so one
poisoned topology never discards a sweep's surviving results.

Checkpoint-resume: pass ``checkpoint=`` (a path) and every completed
:class:`TaskResult` is journaled to disk (``repro.ckpt/v1``, see
:mod:`repro.sim.checkpoint`); ``resume=True`` reloads completed indices
instead of recomputing them, bit-identically.

Result caching: pass ``cache=`` (a :class:`repro.cache.ResultCache`) and
every task is looked up by its content address before dispatch — hits
skip evaluation entirely — while freshly computed results are stored
after harvest.  Cache keys exclude execution-only state (attempt,
observation, fault plans), so caching composes with retries, chaos
injection and checkpoints: the journal fingerprint still covers the full
task list, and a cached result is bit-identical to a cold one (pinned by
``tests/sim/test_cache_differential.py``).

Graceful degradation: with ``workers=1`` (or one task, or an unpicklable
task, or a pool that fails to start) the runner evaluates serially in the
calling process and records why in :attr:`RunnerStats.fallback_reason`; it
never crashes because the platform lacks working multiprocessing.

Observability: pass ``collector=`` (a :class:`repro.obs.Collector`) to
:func:`run_tasks` and every dispatch unit runs under a worker-local
collector whose spans and metrics travel back with the unit's first
record.  Observation never changes the units, so traces are
batch-granular (see :func:`_merge_observations`).  Only accepted units
are merged: crashed, corrupted, timed-out or pool-orphaned attempts never
graft partial spans or metrics into the parent trace.  Retry, timeout and
fallback events appear as ``runner.retry``/``runner.timeout``/
``runner.fallback`` spans and counters.
"""

from __future__ import annotations

import math
import os
import pickle
import time
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..core import batch as batch_engine
from ..core.options import EngineOptions
from ..core.strategy import StrategyOutcome
from ..obs.collector import Collector, active
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import SpanRecord, graft
from ..phy.channel import ChannelSet
from ..phy.noise import ImperfectionModel
from .checkpoint import Journal
from .faults import FaultPlan

__all__ = [
    "SEED_OFFSET",
    "TopologyTask",
    "TopologyRecord",
    "TaskResult",
    "RetryPolicy",
    "RunnerEvent",
    "RunnerError",
    "RunnerStats",
    "build_tasks",
    "evaluate_batch",
    "evaluate_topology",
    "resolve_workers",
    "auto_chunk_size",
    "run_tasks",
]

#: The serial loop evaluates topology ``t`` with ``config.seed + 10_000 + t``;
#: tasks must carry exactly that seed for parallel results to be identical.
SEED_OFFSET = 10_000


@dataclass
class TopologyRecord:
    """Everything measured in one topology."""

    index: int
    channels: ChannelSet
    outcome: StrategyOutcome
    plus_outcome: Optional[StrategyOutcome] = None


@dataclass(frozen=True)
class TopologyTask:
    """Picklable spec for evaluating one topology in any process.

    Carries everything a worker needs — the channel realization, the
    imperfection model, the exact per-topology engine seed and the typed
    strategy-engine options — so evaluation depends on nothing ambient.
    """

    index: int
    channels: ChannelSet
    imperfections: ImperfectionModel
    #: Exact engine seed (``config.seed + SEED_OFFSET + index``).
    seed: int
    coherence_s: float
    #: Also evaluate the mercury/water-filling COPA+ variant.
    include_copa_plus: bool = False
    #: Validated :class:`StrategyEngine` overrides (picklable by
    #: construction unless a non-module-level callable is supplied, which
    #: triggers the serial fallback instead).
    options: EngineOptions = EngineOptions()
    #: Observe the task's dispatch unit (set by :func:`run_tasks` when it
    #: was given a collector).
    observe: bool = False
    #: Which retry this dispatch is (0 = first attempt).  Part of the spec
    #: so attempt-counted fault injection needs no cross-process state;
    #: never touches the RNG, so every attempt is a pure replay.
    attempt: int = 0
    #: Deterministic fault-injection hooks (chaos tests only; ``None`` in
    #: production runs).
    fault_plan: Optional[FaultPlan] = None


@dataclass
class TaskResult:
    """What one task evaluation produced, wherever it ran."""

    record: TopologyRecord
    #: Wall-clock seconds of this task's evaluation.
    elapsed_s: float
    #: Worker-local spans and metrics of the task's whole dispatch unit
    #: (``None`` unless observed, and on every record but the unit's first).
    spans: Optional[List[SpanRecord]] = None
    metrics: Optional[MetricsRegistry] = None


def evaluate_topology(task: TopologyTask) -> TaskResult:
    """Evaluate one task; module-level so workers import it by reference.

    A one-row :func:`repro.core.batch.run_batch` (one row per cluster
    when the task's cluster policy splits its topology).  The CSI RNG
    comes from the task seed alone; observation and the fault hooks never
    touch it, so results are bit-identical observed or not and a retried
    attempt is a pure replay.
    """
    if task.fault_plan is not None:
        task.fault_plan.fire_before(task.index, task.attempt)
    start = time.perf_counter()
    collector = Collector() if task.observe else None
    (result,) = _unit_results([task], batch_engine.run_batch([task], collector), start, collector)
    if task.fault_plan is not None:
        result = task.fault_plan.fire_after(task.index, task.attempt, result)
    return result


def _unit_results(
    tasks: Sequence[TopologyTask], outcomes: Sequence[Tuple], start: float, collector
) -> List[TaskResult]:
    """A unit's results: each task is charged an even share of the wall
    clock since ``start``; the first carries the unit's spans and metrics."""
    elapsed_s = (time.perf_counter() - start) / len(tasks)
    results = [
        TaskResult(TopologyRecord(task.index, task.channels, outcome, plus), elapsed_s)
        for task, (outcome, plus) in zip(tasks, outcomes)
    ]
    if collector is not None:
        results[0].spans = list(collector.spans)
        results[0].metrics = collector.metrics
    return results


def build_tasks(
    channel_sets: Sequence[ChannelSet],
    base_seed: int,
    coherence_s: float,
    imperfections: ImperfectionModel,
    include_copa_plus: bool = False,
    options: Optional[EngineOptions] = None,
    observe: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> List[TopologyTask]:
    """One task per channel realization, each with its private seed.

    ``options`` is the typed engine configuration
    (:class:`~repro.core.options.EngineOptions`) or ``None``; any other
    value — including the long-retired ``engine_kwargs`` dict — raises
    :class:`TypeError`.  ``fault_plan`` installs deterministic fault
    injection (chaos tests only).
    """
    resolved = EngineOptions.resolve(options)
    return [
        TopologyTask(
            index=index,
            channels=channels,
            imperfections=imperfections,
            seed=base_seed + SEED_OFFSET + index,
            coherence_s=coherence_s,
            include_copa_plus=include_copa_plus,
            options=resolved,
            observe=observe,
            fault_plan=fault_plan,
        )
        for index, channels in enumerate(channel_sets)
    ]


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner reacts to failing, hanging or corrupt dispatch units.

    ``max_retries`` bounds *re-attempts per task* (0 = fail on the first
    error; what a run without a policy gets).  ``task_timeout_s`` is the
    per-task result-wait timeout: a unit of n tasks waits ``n ×
    task_timeout_s`` on the pool path.  The serial path cannot pre-empt
    a running evaluation, so overruns there are detected post-hoc and
    counted without discarding the (valid) result.  A failed unit of
    several tasks is split into halves at the same attempt, with no
    backoff; retries apply to one-task units.  Backoff grows
    exponentially from ``backoff_base_s`` by ``backoff_factor`` per
    retry, capped at ``backoff_max_s``; ``sleep`` is injectable so tests
    stay instant.

    Retries never affect results: a re-dispatched task carries the same
    seed, so the accepted result is bit-identical to a fault-free run.
    """

    max_retries: int = 2
    task_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.task_timeout_s is not None and not self.task_timeout_s > 0:
            raise ValueError(f"task_timeout_s must be > 0, got {self.task_timeout_s}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0 or self.backoff_factor < 1:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")

    def backoff_s(self, retry_number: int) -> float:
        """Delay before retry ``retry_number`` (0-based)."""
        return min(self.backoff_max_s, self.backoff_base_s * self.backoff_factor**max(0, retry_number))


@dataclass(frozen=True)
class RunnerEvent:
    """One fault-tolerance event (retry, timeout, split, fallback or failure)."""

    kind: str
    index: int
    attempt: int
    detail: str = ""


class RunnerError(RuntimeError):
    """Some topologies failed permanently (retries exhausted).

    Raised only after every other topology finished, so surviving results
    are already journaled (when a checkpoint is active) and are also
    attached as :attr:`records`.  :attr:`failures` maps topology index to
    a one-line reason — what the CLI prints per index.
    """

    def __init__(
        self,
        failures: Mapping[int, str],
        records: Sequence[TopologyRecord] = (),
        total: int = 0,
    ):
        self.failures = dict(failures)
        self.records = list(records)
        self.total = total
        indices = ", ".join(f"topology[{index}]" for index in sorted(self.failures))
        super().__init__(
            f"{len(self.failures)} of {total} topologies failed permanently ({indices})"
        )


@dataclass(frozen=True)
class RunnerStats:
    """Timing/progress telemetry of one runner invocation."""

    #: Worker count the runner resolved to (1 for the serial path).
    workers: int
    #: Largest dispatch unit allowed: whole groups serially by default,
    #: :func:`auto_chunk_size` on a pool, or the caller's ``chunk_size``.
    chunk_size: int
    #: Whether the process pool actually ran (False → serial path).
    parallel: bool
    #: End-to-end wall-clock of the whole run, seconds.
    total_wall_s: float
    #: Per-topology wall-clock, seconds, in topology order.
    topology_wall_s: Tuple[float, ...]
    #: Why the runner degraded to serial, if it did.
    fallback_reason: Optional[str] = None
    #: Whether per-task observability was on for this run.
    observed: bool = False
    #: Spans merged into the parent trace (0 when not observed).
    spans_merged: int = 0
    #: Re-attempts dispatched after a crash, timeout or corrupt result.
    retries: int = 0
    #: Per-attempt timeout events (pool waits and serial post-hoc overruns).
    timeouts: int = 0
    #: Pool-breakage degradation events (serial re-dispatch episodes).
    fallbacks: int = 0
    #: Topologies restored from a checkpoint journal instead of recomputed.
    resumed: int = 0
    #: Topologies served from the content-addressed result cache.
    cache_hits: int = 0
    #: Topologies that missed the cache and were (re)computed (0 when no
    #: cache was attached).
    cache_misses: int = 0
    #: Largest group the batched engine actually ran (1 = every topology
    #: was evaluated on its own).
    batch_size: int = 1

    @property
    def n_topologies(self) -> int:
        return len(self.topology_wall_s)

    @property
    def busy_s(self) -> float:
        """Total compute time summed over topologies (all workers)."""
        return float(sum(self.topology_wall_s))

    @property
    def topologies_per_s(self) -> float:
        if self.total_wall_s <= 0:
            return 0.0
        return self.n_topologies / self.total_wall_s

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker·seconds spent evaluating topologies."""
        if self.total_wall_s <= 0 or self.workers <= 0:
            return 0.0
        return min(1.0, self.busy_s / (self.workers * self.total_wall_s))


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker request: ``None`` → serial, ``<= 0`` → all cores."""
    if workers is None:
        return 1
    if workers <= 0:
        return os.cpu_count() or 1
    return int(workers)


def auto_chunk_size(n_tasks: int, workers: int) -> int:
    """Default chunking: ~4 dispatch rounds per worker, at least 1 task.

    Small chunks keep workers busy when per-topology times vary (COPA+
    tails are long); one giant chunk would serialize stragglers.
    """
    if n_tasks <= 0 or workers <= 1:
        return 1
    return max(1, math.ceil(n_tasks / (workers * 4)))


def _picklable(task: TopologyTask) -> bool:
    try:
        pickle.dumps(task)
        return True
    except Exception:
        return False


def evaluate_batch(tasks: Sequence[TopologyTask]) -> List[TaskResult]:
    """Evaluate one dispatch unit with one engine call; results in task order.

    Module-level so pool workers import it by reference.  A unit is one
    task, run by :func:`evaluate_topology`, or one homogeneous group from
    :func:`repro.core.batch.partition_tasks`, run by one
    :func:`~repro.core.batch.run_batch`, bit-identical to its tasks run
    one by one.  Whatever the engine raises propagates: the retry loop in
    :func:`run_tasks` splits a failed group.
    """
    tasks = list(tasks)
    if len(tasks) == 1:
        return [evaluate_topology(tasks[0])]
    start = time.perf_counter()
    collector = Collector() if any(task.observe for task in tasks) else None
    return _unit_results(tasks, batch_engine.run_batch(tasks, collector), start, collector)


def _intact(task: TopologyTask, result: TaskResult) -> bool:
    """Cheap integrity check: does the result belong to this task?

    A corrupt result (a poisoned IPC message, or an injected CORRUPT
    fault) claims the wrong index; rejecting it turns corruption into an
    ordinary retryable failure.
    """
    return result.record.index == task.index and result.elapsed_s >= 0


# ---------------------------------------------------------------------------
# The dispatch loop.
# ---------------------------------------------------------------------------

Unit = List[TopologyTask]


def _units(tasks: Sequence[TopologyTask], chunk: Optional[int]) -> List[Unit]:
    """Dispatch units in task order: groups of at most ``chunk`` tasks,
    and every task that cannot batch on its own."""
    batches, singles = batch_engine.partition_tasks(tasks, max_batch=chunk)
    position = {task.index: offset for offset, task in enumerate(tasks)}
    return sorted(batches + [[task] for task in singles], key=lambda unit: position[unit[0].index])


class _Deferred:
    """A serial "future": the call runs in-process when its result is asked for."""

    def __init__(self, fn: Callable, unit: Unit):
        self.fn, self.unit = fn, unit

    def result(self, timeout: Optional[float] = None) -> List[TaskResult]:
        return self.fn(self.unit)


class _Inline:
    """The serial executor: the pool's ``submit``, evaluated in-process."""

    def submit(self, fn: Callable, unit: Unit) -> _Deferred:
        return _Deferred(fn, unit)


class _PoolBroken(Exception):
    """Internal: the pool died while running ``culprit``."""

    def __init__(self, culprit: Unit, error: BaseException):
        self.culprit = culprit
        self.error = error
        super().__init__(str(error))


def _submit(executor, unit: Unit):
    try:
        return executor.submit(evaluate_batch, unit)
    except BrokenProcessPool as error:
        raise _PoolBroken(unit, error)


def _dispatch(
    units: Sequence[Unit],
    executor,
    policy: RetryPolicy,
    events: List[RunnerEvent],
    failures: Dict[int, str],
    on_complete: Callable[[Unit, List[TaskResult]], None],
) -> bool:
    """The one retry loop: evaluate every unit on ``executor``.

    Units are harvested in order, so event accounting is deterministic
    for a given fault plan.  A unit of n tasks waits ``n ×
    task_timeout_s`` for its result.  A failed multi-task unit — it
    raised, timed out or failed :func:`_intact` — is split into halves
    that are re-dispatched at once at the same attempt; a failed
    one-task unit is retried with backoff until ``max_retries`` runs
    out, then lands in ``failures``.  The serial executor cannot
    pre-empt, so its overruns are recorded post-hoc and the result kept.
    On a pool, :class:`BrokenProcessPool` escalates as
    :class:`_PoolBroken`; serially it is an ordinary failure.  Returns
    whether any attempt was abandoned on a timeout.
    """
    serial = isinstance(executor, _Inline)
    first_attempt = {task.index: task.attempt for unit in units for task in unit}
    queue = deque((unit, _submit(executor, unit)) for unit in units)
    abandoned = False
    while queue:
        unit, future = queue.popleft()
        head = unit[0]
        limit = None if policy.task_timeout_s is None else policy.task_timeout_s * len(unit)
        reason = cause = ""
        results: Optional[List[TaskResult]] = None
        start = time.perf_counter()
        try:
            results = future.result(timeout=None if serial else limit)
        except Exception as error:  # noqa: BLE001 — every failure is retryable here
            if isinstance(error, BrokenProcessPool) and not serial:
                raise _PoolBroken(unit, error)
            if isinstance(error, FuturesTimeoutError) and not serial and limit is not None:
                # The attempt may still be running; abandon its future (its
                # eventual result is never merged) and re-dispatch.
                abandoned = True
                future.cancel()
                reason, cause = f"no result within {limit:.3f}s", "a timeout"
                events.append(RunnerEvent("timeout", head.index, head.attempt, reason))
            else:
                reason, cause = f"{type(error).__name__}: {error}", type(error).__name__
        if results is not None:
            wall_s = time.perf_counter() - start
            if serial and limit is not None and wall_s > limit:
                events.append(
                    RunnerEvent(
                        "timeout",
                        head.index,
                        head.attempt,
                        f"ran {wall_s:.3f}s > {limit:.3f}s "
                        "(post-hoc; serial evaluation cannot be pre-empted)",
                    )
                )
            if len(results) == len(unit) and all(map(_intact, unit, results)):
                on_complete(unit, results)
                continue
            reason, cause = "integrity check failed (corrupt result)", "a corrupt result"
        if len(unit) > 1:
            half = len(unit) // 2
            warnings.warn(
                f"batched engine raised {cause} on a group of {len(unit)} "
                f"topologies; splitting it into {half} + {len(unit) - half}",
                RuntimeWarning,
                stacklevel=3,
            )
            events.append(RunnerEvent("split", head.index, head.attempt, reason))
            halves = [(part, _submit(executor, part)) for part in (unit[:half], unit[half:])]
            queue.extendleft(reversed(halves))
            continue
        retries = head.attempt - first_attempt[head.index]
        if retries >= policy.max_retries:
            events.append(RunnerEvent("failure", head.index, head.attempt, reason))
            failures[head.index] = reason
            continue
        events.append(RunnerEvent("retry", head.index, head.attempt + 1, reason))
        policy.sleep(policy.backoff_s(retries))
        retry = [replace(head, attempt=head.attempt + 1)]
        queue.appendleft((retry, _submit(executor, retry)))
    return abandoned


# ---------------------------------------------------------------------------
# Observability merge.
# ---------------------------------------------------------------------------


def _merge_observations(
    collector: Collector,
    results: Sequence[TaskResult],
    units: Sequence[Sequence[int]],
    dispatch_start_s: float,
    n_workers: int,
    chunk: int,
    parallel: bool,
    events: Sequence[RunnerEvent] = (),
) -> int:
    """Graft worker spans/metrics into the parent collector.

    ``units`` lists the task indices of every accepted dispatch unit; a
    cache hit or resumed task is a unit of its own.  Each unit gets a
    ``runner.unit`` span under one ``runner.run_tasks`` span (itself a
    child of the caller's innermost open span, if any), holding its
    grafted spans once and one ``topology[i]`` span per task, laid out
    back-to-back from the dispatch start (a logical serial timeline).
    Fault-tolerance events become zero-duration ``runner.<kind>`` spans
    under the dispatch span plus ``runner.<kind>`` counters.  Returns the
    number of spans added to the parent trace.
    """
    tracer = collector.tracer
    dispatch_id = tracer.record(
        "runner.run_tasks",
        start_s=dispatch_start_s,
        duration_s=float(sum(result.elapsed_s for result in results)),
        parent_id=tracer.open_span_id(),
        workers=n_workers,
        chunk_size=chunk,
        parallel=parallel,
        tasks=len(results),
    )
    n_spans = 1
    head = {index: unit[0] for unit in units for index in unit}
    grouped: Dict[int, List[TaskResult]] = {}
    for result in results:
        index = result.record.index
        grouped.setdefault(head.get(index, index), []).append(result)
    cursor = dispatch_start_s
    for members in grouped.values():
        unit_id = tracer.record(
            "runner.unit",
            start_s=cursor,
            duration_s=float(sum(result.elapsed_s for result in members)),
            parent_id=dispatch_id,
            tasks=len(members),
        )
        n_spans += 1
        offset = cursor
        for result in members:
            tracer.record(
                f"topology[{result.record.index}]",
                start_s=offset,
                duration_s=result.elapsed_s,
                parent_id=unit_id,
                index=result.record.index,
            )
            n_spans += 1
            if result.spans:
                n_spans += graft(tracer, result.spans, parent_id=unit_id, base_offset_s=cursor)
            if result.metrics is not None:
                collector.metrics.merge(result.metrics)
            offset += result.elapsed_s
        cursor = offset
    for event in events:
        tracer.record(
            f"runner.{event.kind}",
            start_s=dispatch_start_s,
            duration_s=0.0,
            parent_id=dispatch_id,
            index=event.index,
            attempt=event.attempt,
            detail=event.detail,
        )
        n_spans += 1
        collector.inc(f"runner.{event.kind}")
    collector.inc("runner.tasks", len(results))
    return n_spans


def _count(events: Sequence[RunnerEvent], kind: str) -> int:
    return sum(1 for event in events if event.kind == kind)


def run_tasks(
    tasks: Sequence[TopologyTask],
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    collector: Optional[Collector] = None,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[Union[str, Journal]] = None,
    resume: bool = False,
    cache=None,
) -> Tuple[List[TopologyRecord], RunnerStats]:
    """Evaluate every task, in parallel when possible; results in task order.

    Every run takes one path.  The tasks are cut into dispatch units —
    the homogeneous groups of :func:`repro.core.batch.partition_tasks`,
    at most ``chunk_size`` tasks each, plus every task that cannot batch
    on its own — and each unit is evaluated by :func:`evaluate_batch`
    under one retry loop, in a process pool or in the calling process.
    ``chunk_size`` defaults to whole groups serially and to
    :func:`auto_chunk_size` on a pool; ``chunk_size=1`` evaluates every
    topology on its own.  Records come back ordered like ``tasks`` and
    are bit-identical whatever the workers or units (each task carries
    its own seed).  Pool-start failures, broken pools and unpicklable
    tasks degrade to the serial path with the reason recorded in the
    returned :class:`RunnerStats`.

    ``policy`` (default ``RetryPolicy(max_retries=0)``) governs failures.
    A failed multi-task unit is split into halves with a
    :class:`RuntimeWarning` and a ``split`` event; a failed one-task unit
    is retried with backoff, and once its retries run out it raises
    :class:`RunnerError` — only after every other topology finished, with
    the survivors attached.  ``checkpoint`` journals every completed task
    to ``repro.ckpt/v1`` (a path, or an open :class:`Journal`);
    ``resume=True`` reloads completed topologies bit-identically.

    When ``collector`` is given, every unit is observed (worker-local
    spans + metrics, merged back here by :func:`_merge_observations`);
    observation changes neither the units nor the results.

    When ``cache`` is given (a :class:`repro.cache.ResultCache`), each
    task is looked up by content address first; hits are excluded from
    dispatch and fresh results are stored after harvest.  A checkpoint
    journal, if any, is still fingerprinted over the *full* task list,
    so cached and uncached runs of one experiment share journals.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    policy = policy if policy is not None else RetryPolicy(max_retries=0)
    col = active(collector)
    tasks = list(tasks)
    if col.enabled:
        tasks = [replace(task, observe=True) for task in tasks]
    all_tasks = tasks
    cached: Dict[int, TaskResult] = {}
    if cache is not None:
        for task in all_tasks:
            hit = cache.load_result(task, collector=collector)
            if hit is not None:
                cached[task.index] = hit
        tasks = [task for task in all_tasks if task.index not in cached]
    n_workers = resolve_workers(workers)
    dispatch_start_s = col.tracer.now()
    start = time.perf_counter()

    journal: Optional[Journal] = None
    owns_journal = False
    if isinstance(checkpoint, Journal):
        journal = checkpoint
    elif checkpoint is not None:
        # Fingerprint over the full task list (not just cache misses) so
        # the journal stays resumable whether or not a cache was
        # attached, and however the hit pattern falls.
        journal = Journal.open(str(checkpoint), all_tasks, resume=resume)
        owns_journal = True
    completed: Dict[int, TaskResult] = dict(journal.completed) if journal is not None else {}
    resumed = len(completed)
    events: List[RunnerEvent] = []
    failures: Dict[int, str] = {}
    accepted: List[List[int]] = []

    def on_complete(unit: Unit, results: List[TaskResult]) -> None:
        accepted.append([task.index for task in unit])
        for task, result in zip(unit, results):
            completed[task.index] = result
            if journal is not None:
                journal.record(result)

    def unfinished() -> List[TopologyTask]:
        return [t for t in tasks if t.index not in completed and t.index not in failures]

    pending = unfinished()
    fallback_reason: Optional[str] = None
    use_pool = False
    if n_workers <= 1:
        if workers not in (None, 1):
            fallback_reason = "resolved to a single worker"
    elif len(pending) == 1:
        fallback_reason = "one task or fewer; pool overhead not worth it"
    elif pending and not _picklable(pending[0]):
        fallback_reason = "task is not picklable (e.g. a lambda in the engine options)"
    else:
        use_pool = bool(pending)
    if chunk_size is not None:
        chunk = int(chunk_size)
    elif use_pool:
        chunk = auto_chunk_size(len(pending), n_workers)
    else:
        chunk = max(1, len(pending))
    units = _units(pending, chunk)
    parallel = False
    try:
        if use_pool:
            try:
                pool = ProcessPoolExecutor(max_workers=n_workers)
                abandoned = True
                try:
                    abandoned = _dispatch(units, pool, policy, events, failures, on_complete)
                finally:
                    # Don't block on abandoned (possibly hung) attempts; their
                    # workers drain in the background, results discarded.
                    pool.shutdown(wait=not abandoned, cancel_futures=True)
                parallel, units = True, []
            except _PoolBroken as broken:
                parallel = True
                culprit = broken.culprit[0].index
                error = broken.error
                events.append(RunnerEvent("fallback", culprit, 0, f"{type(error).__name__}: {error}"))
                fallback_reason = (
                    f"process pool broke while waiting on topology {culprit} "
                    f"({type(error).__name__}); re-dispatching the remainder serially"
                )
                # The culprit's replay is a retry: its attempt counter
                # advances so injected faults don't re-fire forever.
                replays = {task.index: replace(task, attempt=task.attempt + 1) for task in broken.culprit}
                for task in replays.values():
                    events.append(
                        RunnerEvent("retry", task.index, task.attempt, "replay after pool breakage")
                    )
                units = _units([replays.get(t.index, t) for t in unfinished()], chunk)
            except (OSError, RuntimeError, pickle.PicklingError) as error:
                fallback_reason = f"process pool failed ({type(error).__name__}: {error})"
                units = _units(unfinished(), chunk)
        _dispatch(units, _Inline(), policy, events, failures, on_complete)
    finally:
        if owns_journal and journal is not None:
            journal.close()
    if failures:
        survivors = [
            (cached.get(t.index) or completed[t.index]).record
            for t in all_tasks
            if t.index in cached or t.index in completed
        ]
        raise RunnerError(failures, records=survivors, total=len(all_tasks))
    results = [completed[task.index] for task in tasks]

    if cache is not None:
        for task, result in zip(tasks, results):
            cache.store_result(task, result, collector=collector)
        computed = {task.index: result for task, result in zip(tasks, results)}
        results = [cached.get(task.index) or computed[task.index] for task in all_tasks]

    n_spans = 0
    if col.enabled:
        n_spans = _merge_observations(
            col,
            results,
            accepted,
            dispatch_start_s,
            n_workers if parallel else 1,
            chunk,
            parallel,
            events=events,
        )

    stats = RunnerStats(
        workers=n_workers if parallel else 1,
        chunk_size=chunk,
        parallel=parallel,
        total_wall_s=time.perf_counter() - start,
        topology_wall_s=tuple(result.elapsed_s for result in results),
        fallback_reason=fallback_reason,
        observed=col.enabled,
        spans_merged=n_spans,
        retries=_count(events, "retry"),
        timeouts=_count(events, "timeout"),
        fallbacks=_count(events, "fallback"),
        resumed=resumed,
        cache_hits=len(cached),
        cache_misses=len(tasks) if cache is not None else 0,
        batch_size=max(map(len, accepted), default=1),
    )
    return [result.record for result in results], stats
