"""Sharded multi-host experiment service over the shared result cache.

This module composes the pieces PRs 1/4/5 shipped — the deterministic
per-topology runner, the ``repro.ckpt/v1`` checkpoint journal and the
flock'd content-addressed :class:`~repro.cache.ResultCache` — into the
production-traffic path the ROADMAP asks for: **N cooperating processes
on one filesystem behave like one machine**, and a long-lived front end
answers strategy queries from the warm cache before falling back to
compute.

Two layers live here:

1. **The work-stealing shard runner.**  A *shard directory* holds one
   published experiment split into claimable shards of topology indices.
   Workers (:func:`run_worker`) race to claim shards through lease files
   — atomic ``os.replace`` publication under an ``fcntl`` flock sidecar,
   heartbeat-stamped so a dead worker's shard is reclaimed by a peer
   once its lease expires — and drain each claimed shard through the
   ordinary :func:`repro.sim.runner.run_tasks` with a per-shard
   ``repro.ckpt/v1`` journal and the shared cache as the artifact store.
   Because every task carries its private seed, *which* worker runs a
   shard (or re-runs it after stealing it from a corpse) is invisible in
   the results: a 4-process sharded run is bit-identical to one serial
   process, which is exactly what ``tests/sim/test_service_differential
   .py`` pins.

2. **The allocation service.**  :class:`AllocationService` answers
   "what should these channels do?" queries by *quantized* channel
   fingerprint (:func:`repro.sim.fingerprint.fingerprint_quantized`):
   channel sets that land in the same ``grid_db`` cell share a cached
   strategy answer, so repeat traffic is served from disk without
   touching the engine.  Misses compute through the regular engine and
   populate the cache for every later client.

Shard-directory layout (``repro.shard/v1``)::

    <shard_dir>/manifest.json          # the published experiment + shard table
    <shard_dir>/manifest.lock          # flock sidecar for publication
    <shard_dir>/leases/<shard>.lease   # current claim (owner, pid, heartbeat)
    <shard_dir>/leases/<shard>.lock    # flock sidecar for claim/heartbeat/release
    <shard_dir>/journals/<shard>.ckpt  # repro.ckpt/v1 journal of the shard's tasks
    <shard_dir>/done/<shard>.json      # completion marker (worker, counters)
    <shard_dir>/obs/<worker>.json      # repro.obs/v1 payload per observed worker

Protocol invariants:

* every published file (manifest, lease, done marker, obs payload) is
  written to a tmp file and moved into place with :func:`os.replace`, so
  readers never see torn state;
* claim, heartbeat and release all run under the shard's exclusive
  flock, so two workers never both conclude they won a lease that was
  live at decision time;
* a lease is *live* while its heartbeat stamp is younger than the TTL;
  workers heartbeat on every journaled task, and a dispatch unit's
  tasks are journaled as soon as it completes, so with a TTL that
  covers one unit only a dead (or entirely stalled) worker's lease
  expires.  Reclaiming an expired lease resumes the dead worker's
  journal — completed topologies are loaded, not recomputed — and is
  counted as ``service.reclaim``;
* results are pure functions of the task specs, so even the pathological
  race (a live worker's lease expires mid-task and a peer re-runs the
  shard) only wastes work: both write bit-identical journal entries and
  artifacts.

Observability: workers record ``service.claim`` / ``service.steal`` /
``service.reclaim`` / ``service.shard_done`` counters and
``service.worker`` / ``service.shard[...]`` spans; the allocation
service records ``service.hit`` / ``service.miss`` counters and
``service.query`` spans, with a miss's engine spans and metrics grafted
beneath its query.  Observed workers export their payload into
``obs/<worker>.json`` and :func:`harvest` merges every worker's spans
and metrics into the harvesting collector, so a multi-process run yields
one combined trace.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.lock import FileLock
from ..core.options import EngineOptions
from ..obs.collector import Collector, active
from ..obs.metrics import HistogramData, MetricsRegistry
from ..obs.tracing import SpanRecord, graft
from .checkpoint import Journal, load_completed
from .config import DEFAULT_CONFIG, SimConfig
from .experiment import ExperimentResult, ScenarioSpec, generate_channel_sets
from .faults import FaultPlan
from .fingerprint import (
    RESULT_IRRELEVANT_OPTION_FIELDS,
    check_grid_db,
    describe_value,
    fingerprint_quantized,
    fingerprint_tasks,
)
from .runner import (
    SEED_OFFSET,
    RetryPolicy,
    RunnerStats,
    TopologyRecord,
    TopologyTask,
    build_tasks,
    evaluate_topology,
    run_tasks,
)

__all__ = [
    "SCHEMA_ID",
    "SERVICE_SALT",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_GRID_DB",
    "ServiceError",
    "ServiceTimeout",
    "ShardSpec",
    "ShardManifest",
    "ServiceStats",
    "QueryStats",
    "ServiceAnswer",
    "AllocationService",
    "publish_shards",
    "read_manifest",
    "run_worker",
    "worker_entry",
    "harvest",
    "run_sharded_experiment",
]

SCHEMA_ID = "repro.shard/v1"
#: Salt for composed allocation-service query keys; bump when the hashed
#: query context changes.
SERVICE_SALT = "repro.service/v1"
#: A worker that journals nothing for this long is presumed dead and its
#: shard becomes reclaimable.  Heartbeats fire per journaled task, and a
#: dispatch unit's tasks are journaled together, so the TTL needs to cover
#: one unit's evaluation, not one shard.
DEFAULT_LEASE_TTL_S = 30.0
#: Default quantization grid for allocation-service lookups (dB).
DEFAULT_GRID_DB = 0.25


class ServiceError(RuntimeError):
    """The shard directory is missing, mismatched or incomplete."""


class ServiceTimeout(ServiceError):
    """Waiting on the shard directory exceeded the caller's deadline."""


# ---------------------------------------------------------------------------
# Atomic small-file helpers (manifest, leases, done markers).
# ---------------------------------------------------------------------------


def _write_json_atomic(path: str, payload: dict) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: str) -> Optional[dict]:
    """The parsed JSON at ``path``, or ``None`` if missing/unreadable."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def default_worker_id() -> str:
    """Host- and process-unique worker identity for leases and markers."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


# ---------------------------------------------------------------------------
# The manifest: one published experiment, split into shards.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One claimable slice of the experiment's topology indices."""

    shard_id: str
    start: int
    stop: int  # exclusive

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)


def _encode_options(options: EngineOptions) -> Dict[str, object]:
    """JSON-serializable form of the non-default engine options.

    Callables are encoded by ``module:qualname`` and resolved by import
    on the worker side, so only module-level callables are supported —
    the same constraint the process-pool runner already imposes.
    """
    payload: Dict[str, object] = {}
    for f in dataclasses.fields(options):
        value = getattr(options, f.name)
        if value is None:
            continue
        if callable(value):
            qualname = getattr(value, "__qualname__", "")
            module = getattr(value, "__module__", "")
            if not module or "<" in qualname:
                raise ServiceError(
                    f"option {f.name!r} must be a module-level callable to be "
                    f"published in a shard manifest, got {value!r}"
                )
            payload[f.name] = {"callable": f"{module}:{qualname}"}
        elif isinstance(value, (bool, int, float, str)):
            payload[f.name] = value
        else:
            raise ServiceError(f"option {f.name!r} is not manifest-serializable: {value!r}")
    return payload


def _decode_options(payload: Dict[str, object]) -> EngineOptions:
    kwargs: Dict[str, object] = {}
    for name, value in payload.items():
        if isinstance(value, dict) and "callable" in value:
            module_name, _, qualname = str(value["callable"]).partition(":")
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            kwargs[name] = obj
        else:
            kwargs[name] = value
    return EngineOptions(**kwargs)


@dataclass(frozen=True)
class ShardManifest:
    """The parsed ``manifest.json`` of one shard directory."""

    spec: ScenarioSpec
    config: SimConfig
    options: EngineOptions
    shards: Tuple[ShardSpec, ...]
    config_hash: str
    publisher: str

    @property
    def n_tasks(self) -> int:
        return self.config.n_topologies

    def build_tasks(self, cache=None, collector: Optional[Collector] = None) -> List[TopologyTask]:
        """Deterministically rebuild the full task list the publisher hashed.

        Channel realizations are drawn from the manifest's (spec, config)
        seeds — and memoized in the shared cache when one is attached, so
        only the first worker on a cold cache pays for generation.  The
        rebuilt tasks are verified against the published ``config_hash``;
        a mismatch means the code or manifest drifted and the worker must
        not contribute results.
        """
        channel_sets = generate_channel_sets(
            self.spec, self.config, cache=cache, collector=collector
        )
        tasks = build_tasks(
            channel_sets,
            base_seed=self.config.seed,
            coherence_s=self.config.coherence_s,
            imperfections=self.config.imperfections(),
            include_copa_plus=self.spec.include_copa_plus,
            options=self.options,
        )
        rebuilt_hash = fingerprint_tasks(tasks)
        if rebuilt_hash != self.config_hash:
            raise ServiceError(
                f"rebuilt tasks fingerprint {rebuilt_hash!r} does not match the "
                f"published config_hash {self.config_hash!r}; the shard directory "
                "was published by different code or configuration"
            )
        return tasks

    def as_payload(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA_ID,
            "scenario": dataclasses.asdict(self.spec),
            "config": dataclasses.asdict(self.config),
            "options": _encode_options(self.options),
            "shards": [
                {"id": shard.shard_id, "start": shard.start, "stop": shard.stop}
                for shard in self.shards
            ],
            "n_tasks": self.n_tasks,
            "config_hash": self.config_hash,
            "publisher": self.publisher,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ShardManifest":
        if payload.get("schema") != SCHEMA_ID:
            raise ServiceError(
                f"manifest schema {payload.get('schema')!r} is not {SCHEMA_ID!r}"
            )
        try:
            spec = ScenarioSpec(**payload["scenario"])
            config = SimConfig(**payload["config"])
            options = _decode_options(payload.get("options", {}))
            shards = tuple(
                ShardSpec(shard_id=str(entry["id"]), start=int(entry["start"]), stop=int(entry["stop"]))
                for entry in payload["shards"]
            )
            config_hash = str(payload["config_hash"])
            publisher = str(payload.get("publisher", ""))
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed shard manifest: {error}")
        return cls(
            spec=spec,
            config=config,
            options=options,
            shards=shards,
            config_hash=config_hash,
            publisher=publisher,
        )


def _manifest_path(shard_dir: str) -> str:
    return os.path.join(shard_dir, "manifest.json")


def _lease_paths(shard_dir: str, shard_id: str) -> Tuple[str, str]:
    leases = os.path.join(shard_dir, "leases")
    return os.path.join(leases, f"{shard_id}.lease"), os.path.join(leases, f"{shard_id}.lock")


def _journal_path(shard_dir: str, shard_id: str) -> str:
    return os.path.join(shard_dir, "journals", f"{shard_id}.ckpt")


def _done_path(shard_dir: str, shard_id: str) -> str:
    return os.path.join(shard_dir, "done", f"{shard_id}.json")


def _obs_path(shard_dir: str, worker_id: str) -> str:
    return os.path.join(shard_dir, "obs", f"{worker_id}.json")


def _partition(n_tasks: int, shard_size: Optional[int], n_shards: Optional[int]) -> Tuple[ShardSpec, ...]:
    """Contiguous shards covering ``range(n_tasks)`` exactly once."""
    if shard_size is not None and n_shards is not None:
        raise ValueError("pass shard_size or n_shards, not both")
    if n_tasks < 1:
        raise ValueError(f"cannot shard an empty experiment (n_tasks={n_tasks})")
    if shard_size is None:
        count = min(n_tasks, 8) if n_shards is None else n_shards
        if not 1 <= count <= n_tasks:
            raise ValueError(f"n_shards must be in [1, {n_tasks}], got {n_shards}")
        shard_size = -(-n_tasks // count)  # ceil
    elif not 1 <= shard_size <= n_tasks:
        raise ValueError(f"shard_size must be in [1, {n_tasks}], got {shard_size}")
    shards = []
    for number, start in enumerate(range(0, n_tasks, shard_size)):
        shards.append(
            ShardSpec(
                shard_id=f"shard_{number:03d}",
                start=start,
                stop=min(start + shard_size, n_tasks),
            )
        )
    return tuple(shards)


def read_manifest(shard_dir: str) -> Optional[ShardManifest]:
    """The published manifest of ``shard_dir``, or ``None`` if unpublished."""
    payload = _read_json(_manifest_path(shard_dir))
    return ShardManifest.from_payload(payload) if payload is not None else None


def publish_shards(
    shard_dir: str,
    spec: ScenarioSpec,
    config: SimConfig,
    options: Optional[EngineOptions] = None,
    shard_size: Optional[int] = None,
    n_shards: Optional[int] = None,
    publisher: Optional[str] = None,
    cache=None,
    collector: Optional[Collector] = None,
) -> ShardManifest:
    """Publish (or verify) one experiment's shard table in ``shard_dir``.

    Publication is idempotent and race-safe: the first caller to win the
    manifest flock writes ``manifest.json`` atomically; every later
    caller — concurrent or not — verifies that the existing manifest's
    ``config_hash`` matches what it would have published and raises
    :class:`ServiceError` on mismatch, so two different experiments can
    never share one shard directory.
    """
    options = EngineOptions.resolve(options)
    col = active(collector)
    with col.span("service.publish", scenario=spec.name, n_tasks=config.n_topologies):
        channel_sets = generate_channel_sets(spec, config, cache=cache, collector=collector)
        tasks = build_tasks(
            channel_sets,
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            include_copa_plus=spec.include_copa_plus,
            options=options,
        )
        manifest = ShardManifest(
            spec=spec,
            config=config,
            options=options,
            shards=_partition(len(tasks), shard_size, n_shards),
            config_hash=fingerprint_tasks(tasks),
            publisher=publisher or default_worker_id(),
        )
        os.makedirs(shard_dir, exist_ok=True)
        with FileLock(os.path.join(shard_dir, "manifest.lock")):
            existing = read_manifest(shard_dir)
            if existing is not None:
                if existing.config_hash != manifest.config_hash:
                    raise ServiceError(
                        f"{shard_dir} already holds a different experiment "
                        f"(config_hash {existing.config_hash!r} != {manifest.config_hash!r})"
                    )
                return existing
            _write_json_atomic(_manifest_path(shard_dir), manifest.as_payload())
    return manifest


def _wait_for_manifest(
    shard_dir: str, timeout_s: Optional[float], poll_s: float
) -> ShardManifest:
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        manifest = read_manifest(shard_dir)
        if manifest is not None:
            return manifest
        if deadline is not None and time.monotonic() >= deadline:
            raise ServiceTimeout(f"no manifest published in {shard_dir} within {timeout_s}s")
        if timeout_s is None:
            raise ServiceError(f"{shard_dir} holds no manifest; publish_shards first")
        time.sleep(poll_s)


# ---------------------------------------------------------------------------
# Leases: claim, heartbeat, release.
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    """One worker's live claim on one shard."""

    shard_id: str
    path: str
    lock_path: str
    worker_id: str
    ttl_s: float
    #: This claim took over an expired lease left by another worker.
    reclaimed: bool = False
    #: A peer reclaimed the shard from *us* (our heartbeat found a
    #: foreign owner).  We keep computing — results are bit-identical
    #: either way — but stop touching the lease file.
    lost: bool = False

    def _payload(self) -> dict:
        return {
            "schema": SCHEMA_ID,
            "shard": self.shard_id,
            "owner": self.worker_id,
            "pid": os.getpid(),
            "stamp": time.time(),
        }

    def heartbeat(self) -> None:
        """Refresh the lease stamp (no-op once the lease was lost)."""
        if self.lost:
            return
        with FileLock(self.lock_path):
            current = _read_json(self.path)
            if current is not None and current.get("owner") != self.worker_id:
                self.lost = True
                return
            _write_json_atomic(self.path, self._payload())

    def release(self) -> None:
        """Drop the claim so the lease file never outlives the work."""
        if self.lost:
            return
        with FileLock(self.lock_path):
            current = _read_json(self.path)
            if current is not None and current.get("owner") == self.worker_id:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass


def _try_claim(
    shard_dir: str, shard: ShardSpec, worker_id: str, ttl_s: float
) -> Optional[Lease]:
    """Atomically claim ``shard`` unless a live peer already holds it.

    The whole decision — read the current lease, judge its freshness,
    publish ours — happens under the shard's exclusive flock, so exactly
    one of N racing workers wins.  An expired (or unreadable) lease left
    by another worker is taken over and flagged ``reclaimed``.
    """
    lease_path, lock_path = _lease_paths(shard_dir, shard.shard_id)
    lease = Lease(
        shard_id=shard.shard_id,
        path=lease_path,
        lock_path=lock_path,
        worker_id=worker_id,
        ttl_s=ttl_s,
    )
    with FileLock(lock_path):
        if os.path.exists(_done_path(shard_dir, shard.shard_id)):
            return None
        current = _read_json(lease_path)
        if current is not None:
            age = time.time() - float(current.get("stamp", 0.0))
            if current.get("owner") != worker_id:
                if age < ttl_s:
                    return None
                lease.reclaimed = True
        _write_json_atomic(lease_path, lease._payload())
    return lease


class _ShardJournal(Journal):
    """A shard's journal that heartbeats its lease on every record.

    Heartbeat-per-record means the lease TTL has to cover one dispatch
    *unit*, not one shard: the runner drains a shard as batched units and
    journals a unit's tasks together once it completes, so the longest
    silence is one unit's evaluation.  A worker grinding through a long
    shard stays visibly alive.
    """

    lease: Optional[Lease] = None

    def record(self, result) -> None:
        super().record(result)
        if self.lease is not None:
            self.lease.heartbeat()


# ---------------------------------------------------------------------------
# Worker and harvest.
# ---------------------------------------------------------------------------


@dataclass
class ServiceStats:
    """One worker's (or one harvest's) shard-service telemetry."""

    worker_id: str
    shards_total: int = 0
    #: Shards this worker claimed (fresh, stolen and reclaimed alike).
    shards_claimed: int = 0
    #: Claimed shards that were published by a *different* worker — the
    #: work actually stolen from the shared queue.
    shards_stolen: int = 0
    #: Claimed shards whose previous owner's lease had expired.
    shards_reclaimed: int = 0
    shards_completed: int = 0
    #: Tasks this worker delivered (computed, cache-served or resumed).
    tasks_completed: int = 0
    #: Tasks restored from a predecessor's journal instead of recomputed.
    tasks_resumed: int = 0
    #: Tasks served from the shared result cache instead of computed.
    tasks_from_cache: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


def _run_shard(
    shard_dir: str,
    shard: ShardSpec,
    lease: Lease,
    tasks: Sequence[TopologyTask],
    worker_id: str,
    cache,
    collector: Optional[Collector],
    workers: Optional[int],
    policy: Optional[RetryPolicy],
    stats: ServiceStats,
) -> None:
    """Drain one claimed shard: resume, prefill from cache, run, mark done."""
    col = active(collector)
    shard_tasks = list(tasks[shard.start : shard.stop])
    journal = _ShardJournal.open(_journal_path(shard_dir, shard.shard_id), tasks, resume=True)
    journal.lease = lease
    start = time.perf_counter()
    try:
        resumed = len(journal.completed)
        # Journal cache hits up front so every shard journal is complete
        # on its own — harvest never needs to consult the cache — and the
        # runner below skips them as already-completed work.
        prefilled = 0
        if cache is not None:
            for task in shard_tasks:
                if task.index in journal.completed:
                    continue
                hit = cache.load_result(task, collector=collector)
                if hit is not None:
                    journal.record(hit)
                    prefilled += 1
        _, run_stats = run_tasks(
            shard_tasks,
            workers=workers,
            collector=collector,
            policy=policy if policy is not None else RetryPolicy(),
            checkpoint=journal,
            cache=cache,
        )
    finally:
        journal.close()
    _write_json_atomic(
        _done_path(shard_dir, shard.shard_id),
        {
            "schema": SCHEMA_ID,
            "shard": shard.shard_id,
            "start": shard.start,
            "stop": shard.stop,
            "worker": worker_id,
            "reclaimed": lease.reclaimed,
            "resumed": resumed,
            "from_cache": prefilled,
            "elapsed_s": time.perf_counter() - start,
            "stamp": time.time(),
        },
    )
    stats.shards_completed += 1
    stats.tasks_completed += len(shard_tasks)
    stats.tasks_resumed += resumed
    stats.tasks_from_cache += prefilled
    col.inc("service.shard_done")
    col.inc("service.tasks", len(shard_tasks))


def run_worker(
    shard_dir: str,
    cache=None,
    worker_id: Optional[str] = None,
    workers: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    collector: Optional[Collector] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.05,
    timeout_s: Optional[float] = None,
    wait: bool = True,
    fault_plan: Optional[FaultPlan] = None,
) -> ServiceStats:
    """Drain shards from ``shard_dir`` until the whole experiment is done.

    The worker scans the shard table, claims whatever is unclaimed (or
    held by an expired lease), runs each claimed shard through
    :func:`repro.sim.runner.run_tasks` with its per-shard journal and the
    shared ``cache``, and publishes a done marker.  With ``wait=True``
    (the default) it then lingers — polling every ``poll_s`` — until
    every shard has a done marker, reclaiming any shard whose owner dies
    on the way; this is what lets N workers started together all return
    only when the *experiment* (not just their own claims) is complete.
    ``timeout_s`` bounds the whole call (:class:`ServiceTimeout`).

    ``fault_plan`` installs deterministic fault injection on this
    worker's tasks (:mod:`repro.sim.faults`; chaos tests only), for
    example an ``EXIT`` that kills the worker mid-shard.

    Returns this worker's :class:`ServiceStats`; raises
    :class:`~repro.sim.runner.RunnerError` if a shard's tasks fail
    permanently (the lease is released first, so surviving workers — or
    a rerun — can pick the shard back up).
    """
    worker_id = worker_id or default_worker_id()
    col = active(collector)
    manifest = _wait_for_manifest(shard_dir, timeout_s if wait else None, poll_s)
    tasks = manifest.build_tasks(cache=cache, collector=collector)
    if fault_plan is not None:
        tasks = [dataclasses.replace(task, fault_plan=fault_plan) for task in tasks]
    stats = ServiceStats(worker_id=worker_id, shards_total=len(manifest.shards))
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    start = time.perf_counter()
    with col.span("service.worker", worker=worker_id, shards=len(manifest.shards)):
        while True:
            claimed_any = False
            for shard in manifest.shards:
                if os.path.exists(_done_path(shard_dir, shard.shard_id)):
                    continue
                lease = _try_claim(shard_dir, shard, worker_id, lease_ttl_s)
                if lease is None:
                    continue
                claimed_any = True
                stats.shards_claimed += 1
                col.inc("service.claim")
                if manifest.publisher != worker_id:
                    stats.shards_stolen += 1
                    col.inc("service.steal")
                if lease.reclaimed:
                    stats.shards_reclaimed += 1
                    col.inc("service.reclaim")
                try:
                    with col.span(
                        f"service.shard[{shard.shard_id}]",
                        worker=worker_id,
                        start=shard.start,
                        stop=shard.stop,
                        reclaimed=lease.reclaimed,
                    ):
                        _run_shard(
                            shard_dir,
                            shard,
                            lease,
                            tasks,
                            worker_id,
                            cache,
                            collector,
                            workers,
                            policy,
                            stats,
                        )
                finally:
                    lease.release()
            done = sum(
                1
                for shard in manifest.shards
                if os.path.exists(_done_path(shard_dir, shard.shard_id))
            )
            if done == len(manifest.shards):
                break
            if not wait and not claimed_any:
                break
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceTimeout(
                    f"{shard_dir}: {done}/{len(manifest.shards)} shards done "
                    f"within {timeout_s}s"
                )
            if not claimed_any:
                time.sleep(poll_s)
    stats.wall_s = time.perf_counter() - start
    if col.enabled:
        _export_worker_observations(shard_dir, worker_id, col, stats)
    return stats


def worker_entry(
    shard_dir: str,
    cache_root: Optional[str] = None,
    worker_id: Optional[str] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    timeout_s: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    observe: bool = True,
) -> Dict[str, object]:
    """Module-level worker entry for subprocess/pool dispatch.

    Builds its own cache handle and collector from plain strings (so the
    call pickles across any process boundary), runs :func:`run_worker`
    and returns the stats as a JSON-able dict — what the differential
    suite, the chaos suite and the benchmark all spawn.
    """
    cache = None
    if cache_root is not None:
        from ..cache import ResultCache

        cache = ResultCache(cache_root)
    stats = run_worker(
        shard_dir,
        cache=cache,
        worker_id=worker_id,
        collector=Collector() if observe else None,
        lease_ttl_s=lease_ttl_s,
        timeout_s=timeout_s,
        fault_plan=fault_plan,
    )
    return stats.as_dict()


def _export_worker_observations(
    shard_dir: str, worker_id: str, collector: Collector, stats: ServiceStats
) -> None:
    """Publish this worker's spans/metrics for harvest-side merging."""
    from ..obs.export import collector_payload

    _write_json_atomic(
        _obs_path(shard_dir, worker_id),
        collector_payload(collector, meta={"worker": worker_id, **stats.as_dict()}),
    )


def _merge_worker_observations(
    shard_dir: str, collector: Collector, exclude_worker: Optional[str]
) -> int:
    """Graft every exported worker payload into ``collector``.

    Spans are re-based at the harvesting tracer's current offset under a
    ``service.worker_trace[...]`` span per worker; metrics merge through
    the registry's commutative rules, so the combined totals are
    independent of worker completion order.  The harvesting process's own
    payload (``exclude_worker``) is skipped — its spans and metrics are
    already live in ``collector``.  Returns the number of payloads merged.
    """
    obs_dir = os.path.join(shard_dir, "obs")
    if not os.path.isdir(obs_dir):
        return 0
    merged = 0
    for name in sorted(os.listdir(obs_dir)):
        if not name.endswith(".json"):
            continue
        worker = name[: -len(".json")]
        if exclude_worker is not None and worker == exclude_worker:
            continue
        payload = _read_json(os.path.join(obs_dir, name))
        if payload is None:
            continue
        spans = [
            SpanRecord(
                span_id=int(entry["id"]),
                parent_id=entry["parent"],
                name=str(entry["name"]),
                start_s=float(entry["start_s"]),
                duration_s=float(entry["duration_s"]),
                attrs=dict(entry.get("attrs", {})),
            )
            for entry in payload.get("trace", {}).get("spans", [])
        ]
        base = collector.tracer.now()
        parent = collector.tracer.record(
            f"service.worker_trace[{worker}]",
            start_s=base,
            duration_s=max((span.end_s for span in spans), default=0.0),
            worker=worker,
        )
        graft(collector.tracer, spans, parent_id=parent, base_offset_s=base)
        registry = MetricsRegistry()
        metrics = payload.get("metrics", {})
        for counter, value in metrics.get("counters", {}).items():
            registry.counters[str(counter)] = float(value)
        for gauge, value in metrics.get("gauges", {}).items():
            registry.gauges[str(gauge)] = float(value)
        for histogram, data in metrics.get("histograms", {}).items():
            if not data.get("count"):
                continue
            registry.histograms[str(histogram)] = HistogramData(
                count=int(data["count"]),
                total=float(data["total"]),
                minimum=float(data["min"]),
                maximum=float(data["max"]),
            )
        collector.metrics.merge(registry)
        merged += 1
    return merged


def harvest(
    shard_dir: str,
    cache=None,
    collector: Optional[Collector] = None,
    timeout_s: Optional[float] = None,
    poll_s: float = 0.05,
    exclude_worker: Optional[str] = None,
) -> ExperimentResult:
    """Assemble the full :class:`ExperimentResult` from a shard directory.

    Reads every shard's journal (read-only — running workers are never
    disturbed), verifies each against the manifest's ``config_hash``, and
    orders the union of completed results into the exact record list a
    single serial :func:`~repro.sim.experiment.run_experiment` produces.
    With ``timeout_s`` the call polls until every shard has a done
    marker; otherwise an incomplete directory raises
    :class:`ServiceError` immediately.  Worker observability payloads are
    merged into ``collector`` (see :func:`_merge_worker_observations`).
    """
    col = active(collector)
    manifest = _wait_for_manifest(shard_dir, timeout_s, poll_s)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    while True:
        pending = [
            shard.shard_id
            for shard in manifest.shards
            if not os.path.exists(_done_path(shard_dir, shard.shard_id))
        ]
        if not pending:
            break
        if deadline is None or time.monotonic() >= deadline:
            raise (ServiceTimeout if deadline is not None else ServiceError)(
                f"{shard_dir}: shards not yet done: {pending}"
            )
        time.sleep(poll_s)
    with col.span("service.harvest", scenario=manifest.spec.name, shards=len(manifest.shards)):
        start = time.perf_counter()
        tasks = manifest.build_tasks(cache=cache, collector=collector)
        completed: Dict[int, object] = {}
        workers_seen = set()
        resumed = cache_hits = 0
        for shard in manifest.shards:
            completed.update(
                load_completed(
                    _journal_path(shard_dir, shard.shard_id),
                    manifest.config_hash,
                    len(tasks),
                )
            )
            marker = _read_json(_done_path(shard_dir, shard.shard_id)) or {}
            workers_seen.add(marker.get("worker", "?"))
            resumed += int(marker.get("resumed", 0))
            cache_hits += int(marker.get("from_cache", 0))
        missing = [task.index for task in tasks if task.index not in completed]
        if missing:
            raise ServiceError(
                f"{shard_dir}: journals are missing completed results for "
                f"topologies {missing}"
            )
        records: List[TopologyRecord] = [completed[task.index].record for task in tasks]
        col.inc("service.harvests")
        merged = 0
        if col.enabled:
            merged = _merge_worker_observations(shard_dir, col, exclude_worker)
    stats = RunnerStats(
        workers=max(1, len(workers_seen)),
        chunk_size=max(shard.stop - shard.start for shard in manifest.shards),
        parallel=len(workers_seen) > 1,
        total_wall_s=time.perf_counter() - start,
        topology_wall_s=tuple(completed[task.index].elapsed_s for task in tasks),
        observed=col.enabled,
        spans_merged=merged,
        resumed=resumed,
        cache_hits=cache_hits,
    )
    return ExperimentResult(spec=manifest.spec, records=records, stats=stats)


def run_sharded_experiment(
    spec: ScenarioSpec,
    config: SimConfig,
    shard_dir: str,
    options: Optional[EngineOptions] = None,
    workers: Optional[int] = None,
    cache=None,
    collector: Optional[Collector] = None,
    policy: Optional[RetryPolicy] = None,
    shard_size: Optional[int] = None,
    n_shards: Optional[int] = None,
    worker_id: Optional[str] = None,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    poll_s: float = 0.05,
    timeout_s: Optional[float] = None,
) -> ExperimentResult:
    """Publish, co-work and harvest one sharded experiment in-process.

    This is what ``run_experiment(..., shard_dir=...)`` routes to: the
    calling process publishes the shard table if nobody has (idempotent
    and race-safe), becomes one more cooperating worker, then harvests
    the combined result — so N processes each calling this on one shard
    directory all return the *same*, bit-identical
    :class:`ExperimentResult` that one serial process computes alone.
    """
    worker_id = worker_id or default_worker_id()
    publish_shards(
        shard_dir,
        spec,
        config,
        options=options,
        shard_size=shard_size,
        n_shards=n_shards,
        publisher=worker_id,
        cache=cache,
        collector=collector,
    )
    service_stats = run_worker(
        shard_dir,
        cache=cache,
        worker_id=worker_id,
        workers=workers,
        policy=policy,
        collector=collector,
        lease_ttl_s=lease_ttl_s,
        poll_s=poll_s,
        timeout_s=timeout_s,
    )
    result = harvest(
        shard_dir,
        cache=cache,
        collector=collector,
        timeout_s=timeout_s,
        poll_s=poll_s,
        exclude_worker=worker_id,
    )
    result.service_stats = service_stats
    return result


# ---------------------------------------------------------------------------
# The allocation service: strategy queries by quantized channel fingerprint.
# ---------------------------------------------------------------------------


@dataclass
class QueryStats:
    """Hit/miss telemetry for one :class:`AllocationService` handle."""

    hits: int = 0
    misses: int = 0

    @property
    def queries(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "queries": self.queries,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class ServiceAnswer:
    """One strategy query's answer and how it was served.

    ``record`` is the record a miss computes: index 0, the *caller's*
    channels, and the cell's ``outcome`` and ``plus_outcome``.  A hit
    rebuilds it from the cell's stored outcomes, so its channels are the
    querier's own even when another channel set of the cell filled it;
    its outcomes' arrays are read-only views of the loaded artifact.
    """

    record: TopologyRecord
    key: str
    hit: bool
    elapsed_s: float

    @property
    def outcome(self):
        return self.record.outcome

    @property
    def copa_mbps(self) -> float:
        return self.record.outcome.copa.aggregate_bps / 1e6


class AllocationService:
    """Answer strategy queries from the warm cache by quantized fingerprint.

    The service front-end for the many-client regime: a query presents a
    realized :class:`~repro.phy.channel.ChannelSet`, the service looks up
    the cache under a key composed of the channels' *quantized* cell
    (:func:`repro.sim.fingerprint.fingerprint_quantized` at ``grid_db``)
    plus every result-determining piece of query context (engine options,
    imperfection model, coherence time, the service seed, the COPA+
    flag).  A hit returns the cached strategy answer without touching the
    engine; a miss computes through :func:`repro.sim.runner
    .evaluate_topology` (deterministically — the service seed is fixed,
    so the same query always computes the same answer) and stores the
    answer for every later client of the shared cache.

    A cell stores only what a :class:`ServiceAnswer` exposes beyond the
    query itself: the ``(outcome, plus_outcome)`` pair, packed with its
    arrays in one buffer (``ResultCache.store_service_answer``).  A hit
    pairs those outcomes with the caller's own channels.

    Quantization is a tolerance trade-off, not a bit-identity claim: any
    channel set in the same ``grid_db`` cell is served the cell's first
    computed answer.  ``grid_db`` picks the operating point — the
    sensitivity matrix in ``tests/sim/test_fingerprint.py`` and the
    EXPERIMENTS.md policy section quantify the divergence; exact repeat
    queries are always bit-identical by construction.  ``grid_db`` must
    be finite and > 0, and a query whose channels hold a non-finite entry
    raises ``ValueError`` rather than share the zero bin's cell.

    Every query, hit or miss, pays for :meth:`query_key`.  The query
    context is hashed once, in ``__init__`` (which is why ``grid_db``,
    ``config``, ``options`` and ``include_copa_plus`` are read-only), and
    each key copies that digest and adds the channels' quantized
    fingerprint, built in one vectorized pass: all links are binned by
    one set of ufunc calls and the bins' decimal text is written by
    NumPy, with the same bytes as hashing the ``repr`` of
    :func:`~repro.sim.fingerprint.quantize_channels` (see
    :func:`~repro.sim.fingerprint.fingerprint_quantized`).
    """

    def __init__(
        self,
        cache,
        grid_db: float = DEFAULT_GRID_DB,
        config: Optional[SimConfig] = None,
        options: Optional[EngineOptions] = None,
        include_copa_plus: bool = False,
        collector: Optional[Collector] = None,
    ):
        self.cache = cache
        self._grid_db = check_grid_db(grid_db)
        self._config = DEFAULT_CONFIG if config is None else config
        self._options = EngineOptions.resolve(options)
        self._include_copa_plus = bool(include_copa_plus)
        self.collector = collector
        self.stats = QueryStats()
        context = hashlib.sha256()
        context.update(SERVICE_SALT.encode())
        context.update(
            f"|grid={self._grid_db!r}|coh={self._config.coherence_s!r}"
            f"|seed={self._config.seed}|plus={int(self._include_copa_plus)}|".encode()
        )
        for f in dataclasses.fields(self._options):
            if f.name in RESULT_IRRELEVANT_OPTION_FIELDS:
                continue
            value = getattr(self._options, f.name)
            context.update(f"opt|{f.name}={describe_value(value)}".encode())
        context.update(repr(self._config.imperfections()).encode())
        self._context = context

    @property
    def grid_db(self) -> float:
        return self._grid_db

    @property
    def config(self) -> SimConfig:
        return self._config

    @property
    def options(self) -> EngineOptions:
        return self._options

    @property
    def include_copa_plus(self) -> bool:
        return self._include_copa_plus

    def query_key(self, channels) -> str:
        """The composed service cache key for one query's channels."""
        digest = self._context.copy()
        digest.update(fingerprint_quantized(channels, self.grid_db).encode())
        return digest.hexdigest()

    def query(self, channels) -> ServiceAnswer:
        """Serve one strategy query: warm cache first, engine on miss."""
        col = active(self.collector)
        start = time.perf_counter()
        with col.span("service.query", grid_db=self.grid_db) as span:
            key = self.query_key(channels)
            span.set_attr("key", key[:12])
            answer = self.cache.load_service_answer(key, collector=self.collector)
            hit = answer is not None
            if hit:
                self.stats.hits += 1
                col.inc("service.hit")
                outcome, plus_outcome = answer
                record = TopologyRecord(
                    index=0, channels=channels, outcome=outcome, plus_outcome=plus_outcome
                )
            else:
                self.stats.misses += 1
                col.inc("service.miss")
                task = TopologyTask(
                    index=0,
                    channels=channels,
                    imperfections=self.config.imperfections(),
                    seed=self.config.seed + SEED_OFFSET,
                    coherence_s=self.config.coherence_s,
                    include_copa_plus=self.include_copa_plus,
                    options=self.options,
                    observe=col.enabled,
                )
                offset_s = col.tracer.now()
                result = evaluate_topology(task)
                # Both are no-ops unless the miss was observed.
                graft(col.tracer, result.spans or (), span.span_id, base_offset_s=offset_s)
                col.metrics.merge(result.metrics)
                record = result.record
                self.cache.store_service_answer(
                    key, record.outcome, record.plus_outcome, collector=self.collector
                )
        return ServiceAnswer(
            record=record,
            key=key,
            hit=hit,
            elapsed_s=time.perf_counter() - start,
        )
