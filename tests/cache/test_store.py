"""Unit tests for the ``repro.cache/v1`` artifact store and its lock.

Covers the store's durability contract in isolation (round trips,
integrity checking, corruption eviction, atomic publication, advisory
locking, observability counters); the experiment-level guarantees —
cached runs bit-identical to cold ones — live in
``tests/sim/test_cache_differential.py``.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.cache import SCHEMA_ID, CacheStats, FileLock, ResultCache
from repro.cache.store import ANSWERS_NAMESPACE, CHANNELS_NAMESPACE, RESULTS_NAMESPACE
from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets
from repro.sim.fingerprint import fingerprint_channel_config, fingerprint_task
from repro.sim.runner import build_tasks, evaluate_topology

CONFIG = SimConfig(n_topologies=2)
SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)

KEY = "ab" + "0" * 62  # a syntactically valid sha256 hex key


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(str(tmp_path / "cache"))


@pytest.fixture(scope="module")
def tasks():
    return build_tasks(
        generate_channel_sets(SPEC, CONFIG),
        base_seed=CONFIG.seed,
        coherence_s=CONFIG.coherence_s,
        imperfections=CONFIG.imperfections(),
    )


def artifact_path(cache, namespace, key):
    return os.path.join(cache.root, "v1", namespace, key[:2], f"{key}.art")


class TestGenericRoundTrip:
    def test_miss_on_absent_key(self, cache):
        assert cache.load("results", KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_store_then_load_round_trips(self, cache):
        value = {"xs": [1, 2, 3], "label": "anything picklable"}
        assert cache.store("results", KEY, value) is True
        assert cache.load("results", KEY) == value
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.bytes_written > 0
        assert cache.stats.bytes_read > 0

    def test_store_is_skip_if_exists(self, cache):
        assert cache.store("results", KEY, "first") is True
        assert cache.store("results", KEY, "second") is False
        assert cache.load("results", KEY) == "first"
        assert cache.stats.stores == 1

    def test_namespaces_are_disjoint(self, cache):
        cache.store("results", KEY, "a result")
        assert cache.load("channels", KEY) is None

    def test_artifact_layout_is_sharded_and_versioned(self, cache):
        cache.store("results", KEY, 42)
        assert os.path.exists(artifact_path(cache, "results", KEY))

    def test_no_tmp_files_left_behind(self, cache):
        cache.store("results", KEY, list(range(1000)))
        leftovers = [
            name
            for _, _, names in os.walk(cache.root)
            for name in names
            if ".tmp." in name
        ]
        assert leftovers == []

    def test_header_is_honest_json(self, cache):
        cache.store("results", KEY, "payload")
        with open(artifact_path(cache, "results", KEY), "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        assert header["schema"] == SCHEMA_ID
        assert header["namespace"] == "results"
        assert header["key"] == KEY
        assert header["bytes"] == len(payload)


class TestCorruption:
    """Any on-disk damage → counted corrupt miss → transparent recompute."""

    def _corrupt(self, cache, mutate):
        cache.store("results", KEY, {"value": 123})
        path = artifact_path(cache, "results", KEY)
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(mutate(data))
        return path

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda data: data[: len(data) // 2],
            lambda data: data[:-10] + bytes(10),
            lambda data: b"not json at all\n" + data.split(b"\n", 1)[1],
            lambda data: b"",
        ],
        ids=["truncated", "bit_flipped", "bad_header", "empty"],
    )
    def test_corrupt_artifact_is_a_counted_miss(self, cache, mutate):
        path = self._corrupt(cache, mutate)
        assert cache.load("results", KEY) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0
        assert not os.path.exists(path), "corrupt artifact must be evicted"

    def test_recompute_after_corruption_restores_the_entry(self, cache):
        self._corrupt(cache, lambda data: data[:30])
        assert cache.load("results", KEY) is None
        assert cache.store("results", KEY, {"value": 123}) is True
        assert cache.load("results", KEY) == {"value": 123}

    def test_key_mismatch_is_corrupt(self, cache):
        """An artifact renamed to the wrong key must not be served."""
        other = "cd" + "0" * 62
        cache.store("results", KEY, "under the right key")
        src = artifact_path(cache, "results", KEY)
        dst = artifact_path(cache, "results", other)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        os.rename(src, dst)
        assert cache.load("results", other) is None
        assert cache.stats.corrupt == 1

    def test_unpicklable_payload_is_corrupt(self, cache):
        import hashlib

        payload = b"\x80\x05garbage that is not a pickle"
        header = json.dumps(
            {
                "schema": SCHEMA_ID,
                "namespace": "results",
                "key": KEY,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        ).encode()
        path = artifact_path(cache, "results", KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + payload)
        assert cache.load("results", KEY) is None
        assert cache.stats.corrupt == 1


class TestFileLock:
    def test_exclusive_blocks_second_acquirer(self, tmp_path):
        path = str(tmp_path / "x.lock")
        order = []
        with FileLock(path):
            thread = threading.Thread(
                target=lambda: (FileLock(path).acquire().release(), order.append("locked"))
            )
            thread.start()
            time.sleep(0.05)
            assert order == [], "second exclusive acquire must block while held"
        thread.join(timeout=5)
        assert order == ["locked"]

    def test_shared_locks_coexist(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with FileLock(path, shared=True):
            second = FileLock(path, shared=True).acquire()
            assert second.locked
            second.release()

    def test_reacquire_while_held_raises(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            with pytest.raises(RuntimeError):
                lock.acquire()
        assert not lock.locked

    def test_release_is_idempotent(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock")).acquire()
        lock.release()
        lock.release()


class TestTornReads:
    """A reader racing a writer sees a complete artifact or a miss, never junk."""

    def test_reads_during_concurrent_writes_are_never_torn(self, cache):
        value = {"blob": list(range(5000))}
        stop = threading.Event()
        outcomes = []

        def reader():
            local = ResultCache(cache.root)
            while not stop.is_set():
                outcomes.append(local.load("results", KEY))
            outcomes.append(local.load("results", KEY))
            assert local.stats.corrupt == 0, "reader must never decode a torn artifact"

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(20):
                cache.store("results", KEY, value)
                path = artifact_path(cache, "results", KEY)
                with FileLock(path.replace(".art", ".lock")):
                    os.unlink(path)  # force the next store to re-publish
        finally:
            cache.store("results", KEY, value)  # reader's final load must hit
            stop.set()
            thread.join(timeout=10)
        assert all(result is None or result == value for result in outcomes)
        assert any(result == value for result in outcomes)


class TestObservability:
    def test_hit_and_miss_counters_and_spans(self, cache):
        collector = Collector()
        cache.load("results", KEY, collector=collector)  # miss
        cache.store("results", KEY, "value", collector=collector)
        cache.load("results", KEY, collector=collector)  # hit
        counters = collector.metrics.counters
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.store"] == 1
        assert counters["cache.bytes_read"] > 0
        assert counters["cache.bytes_written"] > 0
        names = [span.name for span in collector.spans]
        assert names.count("cache.lookup") == 2
        assert names.count("cache.store") == 1

    def test_corrupt_counter(self, cache):
        collector = Collector()
        cache.store("results", KEY, "value")
        path = artifact_path(cache, "results", KEY)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        cache.load("results", KEY, collector=collector)
        counters = collector.metrics.counters
        assert counters["cache.corrupt"] == 1
        assert counters["cache.miss"] == 1

    def test_no_collector_means_no_requirement_on_obs(self, cache):
        """collector=None must not touch any observability machinery."""
        cache.store("results", KEY, "value")
        assert cache.load("results", KEY) == "value"


class TestTypedEntryPoints:
    def test_task_result_round_trip_is_bit_identical(self, cache, tasks):
        computed = evaluate_topology(tasks[0])
        assert cache.store_result(tasks[0], computed) is True
        loaded = cache.load_result(tasks[0])
        assert loaded is not None
        assert loaded.record.index == computed.record.index
        assert loaded.elapsed_s == computed.elapsed_s
        for scheme, outcome in computed.record.outcome.schemes.items():
            assert loaded.record.outcome.schemes[scheme].aggregate_bps == outcome.aggregate_bps
        for key, h in computed.record.channels.channels.items():
            np.testing.assert_array_equal(loaded.record.channels.channels[key], h)

    def test_observation_is_stripped_from_artifacts(self, cache, tasks):
        import dataclasses

        observed = dataclasses.replace(tasks[0], observe=True)
        computed = evaluate_topology(observed)
        assert computed.spans is not None
        cache.store_result(observed, computed)
        loaded = cache.load_result(tasks[0])  # unobserved task, same key
        assert loaded is not None
        assert loaded.spans is None
        assert loaded.metrics is None

    def test_result_key_is_the_task_fingerprint(self, cache, tasks):
        computed = evaluate_topology(tasks[0])
        cache.store_result(tasks[0], computed)
        key = fingerprint_task(tasks[0])
        assert os.path.exists(artifact_path(cache, RESULTS_NAMESPACE, key))

    def test_channel_sets_round_trip(self, cache):
        sets = generate_channel_sets(SPEC, CONFIG)
        assert cache.store_channel_sets(SPEC, CONFIG, sets) is True
        loaded = cache.load_channel_sets(SPEC, CONFIG)
        assert loaded is not None
        assert len(loaded) == len(sets)
        for loaded_set, original in zip(loaded, sets):
            assert loaded_set.channels.keys() == original.channels.keys()
            for key in original.channels:
                np.testing.assert_array_equal(loaded_set.channels[key], original.channels[key])
        key = fingerprint_channel_config(SPEC, CONFIG)
        assert os.path.exists(artifact_path(cache, CHANNELS_NAMESPACE, key))

    def test_channel_sets_miss(self, cache):
        assert cache.load_channel_sets(SPEC, CONFIG) is None


class TestPackedAnswers:
    """The ``answers`` namespace: arrays in one buffer, read-only views."""

    @staticmethod
    def arrays():
        square = np.arange(12.0).reshape(3, 4)
        return {
            "float": square,
            "fortran": np.asfortranarray(square),
            "strided": square[:, ::2],
            "bool": square > 4,
            "int": np.arange(5, dtype=np.int64),
            "complex": np.exp(1j * square),
            "big_endian": square.astype(">f8"),
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 2)),
            "object": np.array([None, "x"], dtype=object),
        }

    def test_arrays_round_trip(self, cache):
        value = self.arrays()
        cache.store(ANSWERS_NAMESPACE, KEY, value)
        loaded = cache.load(ANSWERS_NAMESPACE, KEY)
        assert loaded.keys() == value.keys()
        for name, array in value.items():
            assert loaded[name].dtype == array.dtype, name
            assert loaded[name].shape == array.shape, name
            np.testing.assert_array_equal(loaded[name], array)
        assert not loaded["float"].flags.writeable
        # Only numeric arrays go to the buffer; the rest are pickled.
        assert loaded["object"].flags.writeable

    def test_equal_arrays_share_one_read_only_view(self, cache):
        base = np.linspace(0.0, 1.0, 52)
        value = (base, base.copy(), np.zeros(52), np.zeros(52, dtype=np.int64))
        cache.store(ANSWERS_NAMESPACE, KEY, value)
        shared, copy, zeros, int_zeros = cache.load(ANSWERS_NAMESPACE, KEY)
        assert shared is copy
        # Equal bytes under another dtype are another array.
        assert zeros is not int_zeros and int_zeros.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 1.0
        assert base[0] == 0.0

    def test_equal_arrays_are_stored_once(self, cache):
        import pickle

        big = np.arange(4096.0)
        value = [big.copy() for _ in range(4)]
        cache.store(ANSWERS_NAMESPACE, KEY, value)
        assert cache.stats.bytes_written < len(pickle.dumps(value)) / 3

    def test_inconsistent_packed_payload_is_corrupt(self, cache):
        import hashlib

        payload = bytes(16) + b"\x80\x05garbage"
        header = json.dumps(
            {
                "schema": SCHEMA_ID,
                "namespace": ANSWERS_NAMESPACE,
                "key": KEY,
                "sha256": hashlib.sha256(payload).hexdigest(),
                "bytes": len(payload),
            }
        ).encode()
        path = artifact_path(cache, ANSWERS_NAMESPACE, KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(header + b"\n" + payload)
        assert cache.load(ANSWERS_NAMESPACE, KEY) is None
        assert cache.stats.corrupt == 1
        assert not os.path.exists(path)


class TestStatsAndSummary:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_summary_is_json_ready(self, cache):
        cache.store("results", KEY, "value")
        cache.load("results", KEY)
        summary = cache.summary()
        assert summary["schema"] == SCHEMA_ID
        assert summary["root"] == cache.root
        assert summary["hits"] == 1
        json.dumps(summary)

    def test_two_handles_share_artifacts_not_stats(self, tmp_path):
        first = ResultCache(str(tmp_path / "shared"))
        second = ResultCache(str(tmp_path / "shared"))
        first.store("results", KEY, "value")
        assert second.load("results", KEY) == "value"
        assert first.stats.hits == 0
        assert second.stats.hits == 1
