"""The ``repro.cache/v1`` content-addressed artifact store.

On-disk layout (all under one root directory, shareable between
processes and runs)::

    <root>/v1/<namespace>/<key[:2]>/<key>.art     # one artifact
    <root>/v1/<namespace>/<key[:2]>/<key>.lock    # advisory lock sidecar

``namespace`` is ``results`` (one :class:`~repro.sim.runner.TaskResult`
per per-topology fingerprint), ``channels`` (one scenario's full list
of realized :class:`~repro.phy.channel.ChannelSet`) or ``answers`` (one
allocation-service answer, the ``(outcome, plus_outcome)`` pair, per
composed service key).  ``key`` is the 64-hex-char SHA-256 fingerprint
from :mod:`repro.sim.fingerprint` (or the service key built on it); the
schema version lives in the path, so bumping ``v1`` orphans (never
misreads) every old artifact.

Artifact format: one JSON header line, then the payload::

    {"schema": "repro.cache/v1", "namespace": ..., "key": ...,
     "sha256": <hex of payload>, "bytes": <payload length>}\\n
    <payload bytes>

The payload is a plain pickle, except in ``answers``: there it is a
*packed* pickle (:func:`_pack`), whose NumPy arrays sit in one
contiguous buffer after the pickle and come back as read-only views of
it.  Older code kept whole task results under the same keys in a
``service`` namespace, which nothing reads any more.

Durability and concurrency:

* **atomic writes** — payloads are written to a unique ``.tmp.*`` file
  (flushed and fsynced) and published with :func:`os.replace`, so a
  crash mid-store leaves at most a stray tmp file, never a partial
  artifact;
* **advisory locking** — writers hold the sidecar lock exclusively for
  write-then-rename, readers take it shared (see
  :mod:`repro.cache.lock`), so concurrent runners sharing the dir never
  see torn state;
* **integrity** — every load re-hashes the payload against the header's
  SHA-256; any mismatch (truncation, bit flip, bad header, unpicklable
  payload) counts as ``corrupt``, deletes the artifact best-effort and
  reports a miss — the caller transparently recomputes.

Artifacts are pickles of this repo's own dataclasses; like the
checkpoint journal, a cache directory is a trusted local artifact, never
untrusted input.

Observability: pass ``collector=`` to any load/store and the operation
is wrapped in a ``cache.lookup``/``cache.store`` span and counted in
``cache.hit`` / ``cache.miss`` / ``cache.corrupt`` / ``cache.bytes_read``
/ ``cache.store`` / ``cache.bytes_written``.  The same totals accumulate
dependency-free in :attr:`ResultCache.stats` for ``--cache-stats``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import struct
import uuid
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..sim.fingerprint import fingerprint_channel_config, fingerprint_task
from .lock import FileLock

__all__ = ["SCHEMA_ID", "CacheStats", "ResultCache"]

SCHEMA_ID = "repro.cache/v1"

#: Directory component carrying the schema version; a bump orphans every
#: artifact written by older code instead of risking a misread.
_VERSION_DIR = "v1"

RESULTS_NAMESPACE = "results"
CHANNELS_NAMESPACE = "channels"
#: Strategy answers keyed by *quantized* channel fingerprint — the
#: allocation service's namespace.  Kept apart from ``results`` because
#: these keys are tolerance-equivalent lookups (any channel set in the
#: grid cell shares the artifact), never bit-identity claims.  Its
#: artifacts are packed ``(outcome, plus_outcome)`` pairs.  Older code
#: stored whole task results under the same keys in ``service``; the new
#: name makes such a cache miss instead of loading the other type.
ANSWERS_NAMESPACE = "answers"

#: Lengths of a packed payload's array table and body pickles.
_PACKED_HEADER = struct.Struct("<QQ")
#: Array byte offsets in a packed buffer are multiples of this.
_ALIGN = 8


def _pack(value) -> bytes:
    """``value`` pickled with its NumPy arrays moved into one buffer.

    Layout: the two pickles' lengths, the array table pickle (``(dtype,
    shape, offset)`` per distinct array), the body pickle, in which each
    numeric array is a persistent id (its row in the table), then the
    aligned array buffer.  Arrays with equal dtype, shape and bytes share
    one row, so equal allocations are stored once; :func:`_unpack` makes
    every row one read-only view, which keeps that sharing harmless.
    """
    table, chunks, rows, size = [], [], {}, 0

    def persistent_id(obj):
        nonlocal size
        if type(obj) is not np.ndarray or obj.dtype.kind not in "biufc":
            return None
        data = obj.tobytes()
        content = (obj.dtype.str, obj.shape, data)
        row = rows.get(content)
        if row is None:
            row = rows[content] = len(table)
            table.append((obj.dtype.str, obj.shape, size))
            chunks.append(data + bytes(-len(data) % _ALIGN))
            size += len(chunks[-1])
        return row

    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(value)
    body = stream.getvalue()
    head = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    text = _PACKED_HEADER.pack(len(head), len(body)) + head + body
    return text + bytes(-len(text) % _ALIGN) + b"".join(chunks)


def _unpack(payload) -> object:
    """The value :func:`_pack` wrote; its arrays are read-only views."""
    n_head, n_body = _PACKED_HEADER.unpack_from(payload)
    body_start = _PACKED_HEADER.size + n_head
    buffer_start = body_start + n_body
    buffer_start += -buffer_start % _ALIGN
    table = pickle.loads(payload[_PACKED_HEADER.size : body_start])
    views = [
        np.frombuffer(payload, dtype, math.prod(shape), buffer_start + offset).reshape(shape)
        for dtype, shape, offset in table
    ]
    unpickler = pickle.Unpickler(io.BytesIO(payload[body_start:buffer_start]))
    unpickler.persistent_load = views.__getitem__
    return unpickler.load()


class _CorruptArtifact(Exception):
    """Internal: the artifact on disk fails an integrity check."""


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` handle's lifetime.

    ``corrupt`` is a subset of ``misses``: a corrupt artifact is deleted
    and reported as a miss, so the caller recomputes transparently.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "hit_rate": round(self.hit_rate, 4),
        }


class ResultCache:
    """Content-addressed memoization store rooted at one directory.

    One handle may serve many runs; handles in different processes may
    share one root.  All methods are safe under that sharing — see the
    module docstring for the protocol.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(os.path.join(self.root, _VERSION_DIR), exist_ok=True)
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({self.root!r}, stats={self.stats})"

    # -- generic keyed access ------------------------------------------------

    def _paths(self, namespace: str, key: str):
        shard = os.path.join(self.root, _VERSION_DIR, namespace, key[:2])
        return os.path.join(shard, f"{key}.art"), os.path.join(shard, f"{key}.lock")

    def load(self, namespace: str, key: str, collector=None) -> Optional[object]:
        """The object stored under ``(namespace, key)``, or ``None``.

        Corrupt artifacts are deleted (best-effort) and reported as a
        miss; this method never raises on bad cache contents.
        """
        path, lock_path = self._paths(namespace, key)
        if collector is not None:
            with collector.span("cache.lookup", namespace=namespace, key=key[:12]):
                return self._load_locked(namespace, key, path, lock_path, collector)
        return self._load_locked(namespace, key, path, lock_path, None)

    def _load_locked(self, namespace, key, path, lock_path, collector) -> Optional[object]:
        if not os.path.exists(path):
            return self._miss(collector)
        try:
            with FileLock(lock_path, shared=True):
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except FileNotFoundError:
                    # Unlinked between the existence check and the open —
                    # a concurrent eviction, not corruption.
                    return self._miss(collector)
            value, n_bytes = self._decode(namespace, key, data)
        except (_CorruptArtifact, OSError):
            self.stats.corrupt += 1
            if collector is not None:
                collector.inc("cache.corrupt")
            self._evict(path, lock_path)
            return self._miss(collector)
        self.stats.hits += 1
        self.stats.bytes_read += n_bytes
        if collector is not None:
            collector.inc("cache.hit")
            collector.inc("cache.bytes_read", n_bytes)
        return value

    def _miss(self, collector) -> None:
        self.stats.misses += 1
        if collector is not None:
            collector.inc("cache.miss")
        return None

    def _decode(self, namespace: str, key: str, data: bytes):
        newline = data.find(b"\n")
        if newline < 0:
            raise _CorruptArtifact("no header line")
        try:
            header = json.loads(data[:newline])
        except json.JSONDecodeError as error:
            raise _CorruptArtifact(f"unreadable header ({error})")
        payload = memoryview(data)[newline + 1 :]
        if (
            not isinstance(header, dict)
            or header.get("schema") != SCHEMA_ID
            or header.get("namespace") != namespace
            or header.get("key") != key
            or header.get("bytes") != len(payload)
            or header.get("sha256") != hashlib.sha256(payload).hexdigest()
        ):
            raise _CorruptArtifact("header/payload mismatch")
        decode = _unpack if namespace == ANSWERS_NAMESPACE else pickle.loads
        try:
            return decode(payload), len(data)
        except Exception as error:
            raise _CorruptArtifact(f"undecodable payload ({error})")

    def _evict(self, path: str, lock_path: str) -> None:
        """Best-effort removal of a corrupt artifact so it is recomputed."""
        try:
            with FileLock(lock_path):
                os.unlink(path)
        except OSError:
            pass

    def store(self, namespace: str, key: str, value: object, collector=None) -> bool:
        """Persist ``value`` under ``(namespace, key)``; True if written.

        An existing artifact is left untouched (content addressing makes
        rewrites pointless), so concurrent writers race harmlessly: one
        wins the rename, the rest skip.
        """
        if collector is not None:
            with collector.span("cache.store", namespace=namespace, key=key[:12]):
                return self._store_locked(namespace, key, value, collector)
        return self._store_locked(namespace, key, value, None)

    def _store_locked(self, namespace, key, value, collector) -> bool:
        path, lock_path = self._paths(namespace, key)
        if os.path.exists(path):
            return False
        if namespace == ANSWERS_NAMESPACE:
            payload = _pack(value)
        else:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps(
            {
                "schema": SCHEMA_ID,
                "namespace": namespace,
                "key": key,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            },
            sort_keys=True,
        ).encode("ascii")
        data = header + b"\n" + payload
        tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex}"
        with FileLock(lock_path):
            if os.path.exists(path):  # another writer won while we pickled
                return False
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    try:
                        os.unlink(tmp)
                    except OSError:  # pragma: no cover - cleanup race
                        pass
        self.stats.stores += 1
        self.stats.bytes_written += len(data)
        if collector is not None:
            collector.inc("cache.store")
            collector.inc("cache.bytes_written", len(data))
        return True

    # -- typed entry points --------------------------------------------------

    def load_result(self, task, collector=None):
        """The cached :class:`TaskResult` for ``task``, or ``None``."""
        return self.load(RESULTS_NAMESPACE, fingerprint_task(task), collector=collector)

    def store_result(self, task, result, collector=None) -> bool:
        """Cache one computed task result (spans/metrics stripped).

        Observation data is execution detail — it depends on whether a
        collector was attached, not on the inputs — so it is excluded
        from the artifact to keep cached and uncached runs key-compatible
        and the artifacts lean.  ``elapsed_s`` is kept: it records what
        the evaluation originally cost.
        """
        stripped = dataclasses.replace(result, spans=None, metrics=None)
        return self.store(
            RESULTS_NAMESPACE, fingerprint_task(task), stripped, collector=collector
        )

    def load_service_answer(self, key: str, collector=None):
        """The cached ``(outcome, plus_outcome)`` for one service key, or ``None``.

        ``key`` is the composed service key (quantized channel cell +
        result-determining query context) built by
        :meth:`repro.sim.service.AllocationService.query_key`.  The
        outcomes' arrays are read-only views of the loaded artifact (see
        :func:`_pack`); ``plus_outcome`` is ``None`` without COPA+.
        """
        return self.load(ANSWERS_NAMESPACE, key, collector=collector)

    def store_service_answer(self, key: str, outcome, plus_outcome=None, collector=None) -> bool:
        """Cache one computed strategy answer under its service key.

        Only what a service answer exposes is stored: the outcome and the
        COPA+ outcome, not the channels that produced them (a hit carries
        its own caller's channels) nor any timing or observation data.
        """
        return self.store(
            ANSWERS_NAMESPACE, key, (outcome, plus_outcome), collector=collector
        )

    def load_channel_sets(self, spec, config, collector=None) -> Optional[List]:
        """The cached channel realizations for (spec, config), or ``None``."""
        key = fingerprint_channel_config(spec, config)
        value = self.load(CHANNELS_NAMESPACE, key, collector=collector)
        return list(value) if value is not None else None

    def store_channel_sets(self, spec, config, channel_sets: Sequence, collector=None) -> bool:
        """Cache one scenario's full list of realized channel sets."""
        key = fingerprint_channel_config(spec, config)
        return self.store(CHANNELS_NAMESPACE, key, list(channel_sets), collector=collector)

    # -- reporting -----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A JSON-ready snapshot (what ``--cache-stats`` prints/uploads)."""
        return {"schema": SCHEMA_ID, "root": self.root, **self.stats.as_dict()}
