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

Fault tolerance: pass ``policy=`` (a :class:`RetryPolicy`) and each task
gets bounded retries with exponential backoff, a per-attempt result-wait
timeout on the pool path, and an integrity check that rejects corrupt
results.  A broken pool (real or injected via :mod:`repro.sim.faults`)
degrades gracefully — completed results are kept and the remaining
topologies are re-dispatched serially.  Tasks that fail permanently raise
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
:func:`run_tasks` and every task is evaluated under a worker-local
collector whose spans and metrics travel back with the record — plain
picklable data — and are grafted into the parent trace under one
``topology[i]`` span per task.  Only the one accepted result per topology
is merged: crashed, corrupted, timed-out or pool-orphaned attempts never
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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import batch as batch_engine
from ..core.mercury import mercury_allocate
from ..core.ncell import GraphStrategyEngine
from ..core.options import EngineOptions
from ..core.strategy import StrategyEngine, StrategyOutcome
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
    #: Build a worker-local collector and ship spans/metrics back with the
    #: record (set by :func:`run_tasks` when it was given a collector).
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
    #: Worker-local spans (``None`` unless the task was observed).
    spans: Optional[List[SpanRecord]] = None
    #: Worker-local metrics (``None`` unless the task was observed).
    metrics: Optional[MetricsRegistry] = None


def evaluate_topology(task: TopologyTask) -> TaskResult:
    """Evaluate one task; module-level so workers import it by reference.

    The CSI RNG is rebuilt from the task seed for each engine, so COPA and
    COPA+ see identical noisy CSI and the result is independent of which
    process (or order) ran the task.  Observation never touches the RNG,
    so observed results are bit-identical to unobserved ones — and neither
    do the fault hooks, so a retried attempt is a pure replay.
    """
    if task.fault_plan is not None:
        task.fault_plan.fire_before(task.index, task.attempt)
    collector = Collector() if task.observe else None
    start = time.perf_counter()
    kwargs = task.options.engine_kwargs()
    cluster_kwargs = task.options.cluster_kwargs()
    # N-AP topologies (or an explicit cluster policy) route through the
    # interference-graph engine; plain 2-AP tasks run StrategyEngine
    # directly.  The graph engine's single-cluster N=2 path delegates
    # to StrategyEngine with the same RNG, so both spellings agree exactly.
    if len(task.channels.topology.aps) != 2 or cluster_kwargs:
        engine_cls: Callable = GraphStrategyEngine
        kwargs = {**kwargs, **cluster_kwargs}
    else:
        engine_cls = StrategyEngine
    outcome = engine_cls(
        task.channels,
        imperfections=task.imperfections,
        rng=np.random.default_rng(task.seed),
        coherence_s=task.coherence_s,
        collector=collector,
        **kwargs,
    ).run()
    plus_outcome = None
    if task.include_copa_plus:
        plus_kwargs = dict(kwargs)
        plus_kwargs["allocator"] = mercury_allocate
        plus_outcome = engine_cls(
            task.channels,
            imperfections=task.imperfections,
            rng=np.random.default_rng(task.seed),
            coherence_s=task.coherence_s,
            collector=collector,
            **plus_kwargs,
        ).run()
    record = TopologyRecord(
        index=task.index,
        channels=task.channels,
        outcome=outcome,
        plus_outcome=plus_outcome,
    )
    result = TaskResult(
        record=record,
        elapsed_s=time.perf_counter() - start,
        spans=list(collector.spans) if collector is not None else None,
        metrics=collector.metrics if collector is not None else None,
    )
    if task.fault_plan is not None:
        result = task.fault_plan.fire_after(task.index, task.attempt, result)
    return result


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
    """How the runner reacts to failing, hanging or corrupt tasks.

    ``max_retries`` bounds *re-attempts per task* (0 = fail on the first
    error).  ``task_timeout_s`` is the per-attempt result-wait timeout on
    the pool path; the serial path cannot pre-empt a running evaluation,
    so overruns there are detected post-hoc and counted without discarding
    the (valid) result.  Backoff grows exponentially from
    ``backoff_base_s`` by ``backoff_factor`` per retry, capped at
    ``backoff_max_s``; ``sleep`` is injectable so tests stay instant.

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
    """One fault-tolerance event (retry, timeout, fallback or failure)."""

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
    #: Tasks handed to each worker per dispatch round.
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
    #: Largest batched-engine dispatch unit used (1 = per-topology path).
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


def _run_serial(tasks: Sequence[TopologyTask]) -> List[TaskResult]:
    return [evaluate_topology(task) for task in tasks]


def evaluate_batch(tasks: Sequence[TopologyTask]) -> List[TaskResult]:
    """Evaluate a chunk of tasks through the batched engine; task order kept.

    Module-level so pool workers import it by reference, like
    :func:`evaluate_topology`.  Tasks are grouped by
    :func:`repro.core.batch.group_key`; each group runs as one
    :class:`~repro.core.batch.BatchedStrategyEngine` dispatch, bit-identical
    to the per-topology path.  Tasks that must stay per topology
    (observed, fault-injected, cluster-policy, non-2x2 topologies) go
    through :func:`evaluate_topology` individually, as
    does a whole group if its batched dispatch raises (with a
    :class:`RuntimeWarning` naming the exception).  Per-task
    ``elapsed_s`` is the batch wall-clock divided evenly over its rows —
    the logical serial timeline the observability merge expects.
    """
    tasks = list(tasks)
    results: Dict[int, TaskResult] = {}
    batches, singles = batch_engine.partition_tasks(tasks)
    for single in singles:
        results[single.index] = evaluate_topology(single)
    for group in batches:
        start = time.perf_counter()
        try:
            outcomes = batch_engine.run_batch(group)
        except Exception as exc:
            # Never lose a sweep to a batching defect: replay the group
            # through the reference per-topology path, and say so.
            warnings.warn(
                f"batched engine raised {type(exc).__name__} on a group of "
                f"{len(group)} topologies; replaying it per topology",
                RuntimeWarning,
                stacklevel=2,
            )
            for task in group:
                results[task.index] = evaluate_topology(task)
            continue
        elapsed_s = (time.perf_counter() - start) / len(group)
        for task, (outcome, plus_outcome) in zip(group, outcomes):
            record = TopologyRecord(
                index=task.index,
                channels=task.channels,
                outcome=outcome,
                plus_outcome=plus_outcome,
            )
            results[task.index] = TaskResult(record=record, elapsed_s=elapsed_s)
    return [results[task.index] for task in tasks]


def _intact(task: TopologyTask, result: TaskResult) -> bool:
    """Cheap integrity check: does the result belong to this task?

    A corrupt result (a poisoned IPC message, or an injected CORRUPT
    fault) claims the wrong index; rejecting it turns corruption into an
    ordinary retryable failure.
    """
    return result.record.index == task.index and result.elapsed_s >= 0


# ---------------------------------------------------------------------------
# Fault-tolerant dispatch (active when policy/checkpoint/faults are in play).
# ---------------------------------------------------------------------------


class _PoolBroken(Exception):
    """Internal: the pool died while waiting on ``culprit_index``."""

    def __init__(self, culprit_index: int, error: BaseException):
        self.culprit_index = culprit_index
        self.error = error
        super().__init__(str(error))


def _evaluate_with_retries(
    task: TopologyTask, policy: RetryPolicy, events: List[RunnerEvent]
) -> Tuple[Optional[TaskResult], Optional[str]]:
    """Serial evaluation of one task under the retry policy.

    The serial path cannot pre-empt a hung evaluation; overruns of
    ``task_timeout_s`` are detected post-hoc (wall-clock around the call)
    and recorded as timeout events while the completed result is kept.
    """
    attempt = task.attempt
    while True:
        reason: Optional[str] = None
        result: Optional[TaskResult] = None
        start = time.perf_counter()
        try:
            result = evaluate_topology(replace(task, attempt=attempt))
        except Exception as error:  # noqa: BLE001 — every failure is retryable here
            reason = f"{type(error).__name__}: {error}"
        if result is not None:
            wall_s = time.perf_counter() - start
            if policy.task_timeout_s is not None and wall_s > policy.task_timeout_s:
                events.append(
                    RunnerEvent(
                        "timeout",
                        task.index,
                        attempt,
                        f"ran {wall_s:.3f}s > {policy.task_timeout_s:.3f}s "
                        "(post-hoc; serial evaluation cannot be pre-empted)",
                    )
                )
            if _intact(task, result):
                return result, None
            reason = "integrity check failed (corrupt result)"
        if attempt - task.attempt >= policy.max_retries:
            events.append(RunnerEvent("failure", task.index, attempt, reason or ""))
            return None, reason
        events.append(RunnerEvent("retry", task.index, attempt + 1, reason or ""))
        policy.sleep(policy.backoff_s(attempt - task.attempt))
        attempt += 1


def _submit(pool: ProcessPoolExecutor, task: TopologyTask):
    try:
        return pool.submit(evaluate_topology, task)
    except BrokenProcessPool as error:
        raise _PoolBroken(task.index, error)


def _run_parallel_ft(
    pending: Sequence[TopologyTask],
    n_workers: int,
    policy: RetryPolicy,
    events: List[RunnerEvent],
    on_complete: Callable[[TopologyTask, TaskResult], None],
) -> Dict[int, str]:
    """Pool dispatch with per-attempt timeouts, retries and integrity checks.

    Every task is its own future; results are harvested in task order so
    retry/timeout accounting is deterministic for a given fault plan.  A
    :class:`BrokenProcessPool` (real or simulated) escalates as
    :class:`_PoolBroken` so the caller can degrade to serial re-dispatch.
    Returns index → reason for tasks that exhausted their retries.
    """
    failures: Dict[int, str] = {}
    abandoned = False
    pool = ProcessPoolExecutor(max_workers=n_workers)
    try:
        futures = {task.index: _submit(pool, task) for task in pending}
        for task in pending:
            attempt = task.attempt
            while True:
                future = futures[task.index]
                reason: Optional[str] = None
                result: Optional[TaskResult] = None
                try:
                    result = future.result(timeout=policy.task_timeout_s)
                except FuturesTimeoutError:
                    # The attempt may still be running; abandon its future
                    # (its eventual result is never merged) and re-dispatch.
                    abandoned = True
                    future.cancel()
                    reason = f"no result within {policy.task_timeout_s:.3f}s"
                    events.append(RunnerEvent("timeout", task.index, attempt, reason))
                except BrokenProcessPool as error:
                    abandoned = True
                    raise _PoolBroken(task.index, error)
                except Exception as error:  # noqa: BLE001 — worker exception
                    reason = f"{type(error).__name__}: {error}"
                if result is not None:
                    if _intact(task, result):
                        on_complete(task, result)
                        break
                    reason = "integrity check failed (corrupt result)"
                if attempt - task.attempt >= policy.max_retries:
                    events.append(RunnerEvent("failure", task.index, attempt, reason or ""))
                    failures[task.index] = reason or "unknown failure"
                    break
                events.append(RunnerEvent("retry", task.index, attempt + 1, reason or ""))
                policy.sleep(policy.backoff_s(attempt - task.attempt))
                attempt += 1
                futures[task.index] = _submit(pool, replace(task, attempt=attempt))
        return failures
    finally:
        # Don't block on abandoned (possibly hung) attempts; their workers
        # drain in the background and their results are discarded.
        pool.shutdown(wait=not abandoned, cancel_futures=True)


def _run_ft(
    tasks: Sequence[TopologyTask],
    n_workers: int,
    policy: RetryPolicy,
    journal: Optional[Journal],
    events: List[RunnerEvent],
) -> Tuple[Dict[int, TaskResult], Dict[int, str], bool, Optional[str], int]:
    """The fault-tolerant driver: resume, pool dispatch, serial degradation.

    Returns ``(completed, failures, parallel, fallback_reason, resumed)``.
    """
    completed: Dict[int, TaskResult] = {}
    resumed = 0
    if journal is not None:
        completed.update(journal.completed)
        resumed = len(completed)

    def on_complete(task: TopologyTask, result: TaskResult) -> None:
        completed[task.index] = result
        if journal is not None:
            journal.record(result)

    pending = [task for task in tasks if task.index not in completed]
    failures: Dict[int, str] = {}
    parallel = False
    fallback_reason: Optional[str] = None
    serial_pending: List[TopologyTask] = list(pending)

    if n_workers > 1 and len(pending) > 1 and _picklable(pending[0]):
        try:
            failures = _run_parallel_ft(pending, n_workers, policy, events, on_complete)
            parallel = True
            serial_pending = []
        except _PoolBroken as broken:
            parallel = True
            detail = f"{type(broken.error).__name__}: {broken.error}"
            events.append(RunnerEvent("fallback", broken.culprit_index, 0, detail))
            fallback_reason = (
                f"process pool broke while waiting on topology {broken.culprit_index} "
                f"({type(broken.error).__name__}); re-dispatching the remainder serially"
            )
            serial_pending = []
            for task in pending:
                if task.index in completed or task.index in failures:
                    continue
                if task.index == broken.culprit_index:
                    # The culprit's replay is a retry: its attempt counter
                    # advances so injected faults don't re-fire forever.
                    events.append(
                        RunnerEvent("retry", task.index, task.attempt + 1, "replay after pool breakage")
                    )
                    task = replace(task, attempt=task.attempt + 1)
                serial_pending.append(task)
        except (OSError, RuntimeError, pickle.PicklingError) as error:
            fallback_reason = f"process pool failed ({type(error).__name__}: {error})"
    elif n_workers > 1 and 0 < len(pending) <= 1:
        fallback_reason = "one task or fewer; pool overhead not worth it"
    elif n_workers > 1 and pending:
        fallback_reason = "task is not picklable (e.g. a lambda in the engine options)"

    for task in serial_pending:
        result, reason = _evaluate_with_retries(task, policy, events)
        if result is not None:
            on_complete(task, result)
        else:
            failures[task.index] = reason or "unknown failure"
    return completed, failures, parallel, fallback_reason, resumed


# ---------------------------------------------------------------------------
# Observability merge.
# ---------------------------------------------------------------------------


def _merge_observations(
    collector: Collector,
    results: Sequence[TaskResult],
    dispatch_start_s: float,
    n_workers: int,
    chunk: int,
    parallel: bool,
    events: Sequence[RunnerEvent] = (),
) -> int:
    """Graft worker spans/metrics into the parent collector.

    Each task gets a ``topology[i]`` span under one ``runner.run_tasks``
    span; tasks are laid out back-to-back from the dispatch start (a
    logical serial timeline — see the module docstring).  Fault-tolerance
    events become zero-duration ``runner.<kind>`` spans under the dispatch
    span plus ``runner.<kind>`` counters.  Returns the number of spans
    added to the parent trace.
    """
    tracer = collector.tracer
    elapsed = [result.elapsed_s for result in results]
    dispatch_id = tracer.record(
        "runner.run_tasks",
        start_s=dispatch_start_s,
        duration_s=float(sum(elapsed)),
        workers=n_workers,
        chunk_size=chunk,
        parallel=parallel,
        tasks=len(results),
    )
    n_spans = 1
    cursor = dispatch_start_s
    for result in results:
        topology_id = tracer.record(
            f"topology[{result.record.index}]",
            start_s=cursor,
            duration_s=result.elapsed_s,
            parent_id=dispatch_id,
            index=result.record.index,
        )
        n_spans += 1
        if result.spans:
            n_spans += graft(tracer, result.spans, parent_id=topology_id, base_offset_s=cursor)
        if result.metrics is not None:
            collector.metrics.merge(result.metrics)
        cursor += result.elapsed_s
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
    batch_size: Optional[int] = None,
    collector: Optional[Collector] = None,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[Union[str, Journal]] = None,
    resume: bool = False,
    cache=None,
) -> Tuple[List[TopologyRecord], RunnerStats]:
    """Evaluate every task, in parallel when possible; results in task order.

    Records come back ordered like ``tasks`` regardless of which worker
    finished first, and are bit-identical to what :func:`_run_serial` would
    produce (each task carries its own seed).  Pool-start failures, broken
    pools and unpicklable tasks degrade to the serial path with the reason
    recorded in the returned :class:`RunnerStats`.

    ``batch_size`` controls the batched-engine dispatch unit
    (:func:`evaluate_batch`): ``None`` (the default) batches automatically
    — each worker chunk (or the whole list, serially) is evaluated as
    stacked arrays, bit-identical to per-topology evaluation; ``1``
    forces the legacy per-topology path; ``k > 1`` caps batches at ``k``
    tasks.  Fault-tolerant runs (``policy``/``checkpoint``/fault plans)
    always evaluate per topology, whatever ``batch_size`` says.

    Fault tolerance activates when ``policy``/``checkpoint`` is given (or
    any task carries a fault plan): per-attempt timeouts, bounded retries
    with backoff, integrity checks, serial re-dispatch on pool breakage
    and an optional ``repro.ckpt/v1`` journal (``checkpoint=`` path;
    ``resume=True`` reloads completed topologies bit-identically).  Tasks
    that fail permanently raise :class:`RunnerError` only after all other
    topologies finished.

    When ``collector`` is given, every task is observed (worker-local
    spans + metrics, merged back here) regardless of which path ran it —
    so serial and parallel runs yield the same trace shape.

    When ``cache`` is given (a :class:`repro.cache.ResultCache`), each
    task is looked up by content address first; hits are excluded from
    dispatch and fresh results are stored after harvest.  A checkpoint
    journal, if any, is still fingerprinted over the *full* task list,
    so cached and uncached runs of one experiment share journals.
    """
    if batch_size is not None and batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    col = active(collector)
    tasks = list(tasks)
    fault_tolerant = (
        policy is not None
        or checkpoint is not None
        or any(task.fault_plan is not None for task in tasks)
    )
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
    chunk = int(chunk_size) if chunk_size else auto_chunk_size(len(tasks), n_workers)
    dispatch_start_s = col.tracer.now()
    start = time.perf_counter()

    fallback_reason: Optional[str] = None
    results: Optional[List[TaskResult]] = None
    parallel = False
    events: List[RunnerEvent] = []
    resumed = 0

    # Observed runs need per-topology traces, so they keep the per-task
    # path; everything else goes through the batched engine by default.
    use_batch = batch_size != 1 and not col.enabled
    effective_batch = 1

    if not fault_tolerant:
        if not tasks:
            results = []  # everything was served from the cache
        elif n_workers <= 1:
            fallback_reason = None if workers in (None, 1) else "resolved to a single worker"
        elif len(tasks) <= 1:
            fallback_reason = "one task or fewer; pool overhead not worth it"
        elif tasks and not _picklable(tasks[0]):
            fallback_reason = "task is not picklable (e.g. a lambda in the engine options)"
        else:
            try:
                with ProcessPoolExecutor(max_workers=n_workers) as pool:
                    if use_batch:
                        # One batched dispatch per worker chunk instead of
                        # one task: same load-balancing unit, B× fewer
                        # engine invocations.
                        unit = chunk if batch_size is None else batch_size
                        groups = [tasks[i : i + unit] for i in range(0, len(tasks), unit)]
                        nested = list(pool.map(evaluate_batch, groups))
                        results = [result for group in nested for result in group]
                        effective_batch = unit
                    else:
                        results = list(pool.map(evaluate_topology, tasks, chunksize=chunk))
                parallel = True
            except (OSError, BrokenProcessPool, RuntimeError, pickle.PicklingError) as error:
                fallback_reason = f"process pool failed ({type(error).__name__}: {error})"
                results = None
        if results is None:
            if use_batch and tasks:
                unit = len(tasks) if batch_size is None else batch_size
                results = []
                for offset in range(0, len(tasks), unit):
                    results.extend(evaluate_batch(tasks[offset : offset + unit]))
                effective_batch = unit
            else:
                results = _run_serial(tasks)
    else:
        retry_policy = policy if policy is not None else RetryPolicy()
        journal: Optional[Journal] = None
        owns_journal = False
        if isinstance(checkpoint, Journal):
            journal = checkpoint
        elif checkpoint is not None:
            # Fingerprint over the full task list (not just cache misses)
            # so the journal stays resumable whether or not a cache was
            # attached, and however the hit pattern falls.
            journal = Journal.open(str(checkpoint), all_tasks, resume=resume)
            owns_journal = True
        try:
            if n_workers <= 1 and workers not in (None, 1):
                fallback_reason = "resolved to a single worker"
            completed, failures, parallel, ft_fallback, resumed = _run_ft(
                tasks, n_workers, retry_policy, journal, events
            )
            if ft_fallback is not None:
                fallback_reason = ft_fallback
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
        chunk = 1 if parallel else chunk

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
            dispatch_start_s,
            n_workers if parallel else 1,
            chunk,
            parallel,
            events=events,
        )

    stats = RunnerStats(
        workers=n_workers if parallel else 1,
        chunk_size=chunk if parallel else len(tasks) or 1,
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
        batch_size=max(1, effective_batch),
    )
    return [result.record for result in results], stats
