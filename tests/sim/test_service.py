"""Unit coverage for the sharded experiment service (`repro.sim.service`).

The cross-process guarantees (N workers bit-identical to serial, chaos
kill/steal/resume) live in ``tests/sim/test_service_differential.py`` and
``tests/sim/test_chaos.py``; this module pins the protocol pieces those
suites build on: shard partitioning, manifest publish/verify round-trips,
lease claim/heartbeat/reclaim/release semantics, harvest assembly, cache
prefill into shard journals, and the :class:`AllocationService` hit/miss
contract.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from repro.cache import ResultCache
from repro.core.options import EngineOptions
from repro.obs import Collector
from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, generate_channel_sets, run_experiment
from repro.sim import service
from repro.sim.service import (
    AllocationService,
    Lease,
    ServiceError,
    ServiceTimeout,
    ShardManifest,
    _partition,
    _try_claim,
    harvest,
    publish_shards,
    read_manifest,
    run_sharded_experiment,
    run_worker,
    worker_entry,
)
from tests.core.test_batch import assert_same_outcome

SPEC = ScenarioSpec("1x1", 1, 1, include_copa_plus=False)
N_TOPOLOGIES = 4
CONFIG = SimConfig(n_topologies=N_TOPOLOGIES)


@pytest.fixture(scope="module")
def baseline():
    """The serial reference every sharded run must reproduce exactly."""
    return run_experiment(SPEC, CONFIG, workers=1)


@pytest.fixture(scope="module")
def channel_sets():
    return generate_channel_sets(SPEC, CONFIG)


def assert_identical(result, reference):
    assert result.available_series() == reference.available_series()
    for key in reference.available_series():
        np.testing.assert_array_equal(
            result.series_mbps(key), reference.series_mbps(key)
        )


class TestPartition:
    def test_shards_cover_every_index_exactly_once(self):
        shards = _partition(10, shard_size=3, n_shards=None)
        indices = [i for shard in shards for i in shard.indices]
        assert indices == list(range(10))
        assert [s.shard_id for s in shards] == [f"shard_{i:03d}" for i in range(4)]

    def test_n_shards_splits_evenly(self):
        shards = _partition(8, shard_size=None, n_shards=4)
        assert [(s.start, s.stop) for s in shards] == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_default_is_at_most_eight_shards(self):
        assert len(_partition(30, None, None)) == 8
        assert len(_partition(3, None, None)) == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_size": 0, "n_shards": None},
            {"shard_size": 11, "n_shards": None},
            {"shard_size": None, "n_shards": 0},
            {"shard_size": None, "n_shards": 11},
            {"shard_size": 2, "n_shards": 2},
        ],
        ids=["size-zero", "size-too-big", "count-zero", "count-too-big", "both"],
    )
    def test_invalid_partitions_raise(self, kwargs):
        with pytest.raises(ValueError):
            _partition(10, **kwargs)

    def test_empty_experiment_rejected(self):
        with pytest.raises(ValueError):
            _partition(0, None, None)


class TestManifest:
    def test_publish_read_round_trip(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        manifest = publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        loaded = read_manifest(shard_dir)
        assert loaded.spec == SPEC
        assert loaded.config == CONFIG
        assert loaded.options == EngineOptions()
        assert loaded.shards == manifest.shards
        assert loaded.config_hash == manifest.config_hash

    def test_republish_is_idempotent(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        second = publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        assert second.config_hash == first.config_hash
        assert second.shards == first.shards

    def test_publishing_a_different_experiment_raises(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG)
        with pytest.raises(ServiceError, match="different experiment"):
            publish_shards(shard_dir, SPEC, CONFIG.with_(seed=CONFIG.seed + 1))

    def test_unpublished_directory_reads_none(self, tmp_path):
        assert read_manifest(str(tmp_path)) is None

    def test_build_tasks_verifies_config_hash(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        manifest = publish_shards(shard_dir, SPEC, CONFIG)
        import dataclasses

        tampered = dataclasses.replace(manifest, config_hash="0" * 64)
        with pytest.raises(ServiceError, match="does not match"):
            tampered.build_tasks()

    def test_wrong_schema_rejected(self):
        with pytest.raises(ServiceError, match="schema"):
            ShardManifest.from_payload({"schema": "repro.shard/v0"})

    def test_retired_option_in_manifest_rejected(self, tmp_path):
        """A manifest naming an option this code no longer has (here the
        retired array-backend field) must be refused, never served."""
        shard_dir = str(tmp_path / "shards")
        payload = publish_shards(shard_dir, SPEC, CONFIG).as_payload()
        payload["options"] = {"backend": "numpy"}
        with pytest.raises(ServiceError, match="malformed shard manifest"):
            ShardManifest.from_payload(payload)

    @pytest.mark.parametrize("backend", ["numpy-fused", "jax"])
    def test_every_retired_backend_value_rejected(self, tmp_path, backend):
        """The refusal does not depend on which substrate was named."""
        shard_dir = str(tmp_path / "shards")
        payload = publish_shards(shard_dir, SPEC, CONFIG).as_payload()
        payload["options"] = {"max_iterations": 4, "backend": backend}
        with pytest.raises(ServiceError, match="malformed shard manifest"):
            ShardManifest.from_payload(payload)

    def test_published_options_name_only_set_fields(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        options = EngineOptions(max_iterations=4, tx_power_dbm=20.0)
        publish_shards(shard_dir, SPEC, CONFIG, options=options)
        payload = json.load(open(os.path.join(shard_dir, "manifest.json")))
        assert payload["options"] == {"max_iterations": 4, "tx_power_dbm": 20.0}
        assert read_manifest(shard_dir).options == options

    def test_callable_options_round_trip_by_qualname(self, tmp_path):
        from repro.core.mercury import mercury_allocate

        shard_dir = str(tmp_path / "shards")
        options = EngineOptions(allocator=mercury_allocate)
        publish_shards(shard_dir, SPEC, CONFIG, options=options)
        loaded = read_manifest(shard_dir)
        assert loaded.options.allocator is mercury_allocate
        payload = json.load(open(os.path.join(shard_dir, "manifest.json")))
        assert payload["options"]["allocator"] == {
            "callable": "repro.core.mercury:mercury_allocate"
        }

    def test_local_callables_are_rejected(self, tmp_path):
        def local_allocator(*args, **kwargs):  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ServiceError, match="module-level callable"):
            publish_shards(
                str(tmp_path / "shards"),
                SPEC,
                CONFIG,
                options=EngineOptions(allocator=local_allocator),
            )


class TestLeases:
    def _shard(self, tmp_path):
        shard_dir = str(tmp_path)
        os.makedirs(os.path.join(shard_dir, "leases"), exist_ok=True)
        return shard_dir, service.ShardSpec("shard_000", 0, 2)

    def test_fresh_claim_wins(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        lease = _try_claim(shard_dir, shard, "alice", ttl_s=30.0)
        assert lease is not None and not lease.reclaimed
        assert os.path.exists(lease.path)

    def test_live_foreign_lease_blocks_claim(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        assert _try_claim(shard_dir, shard, "alice", ttl_s=30.0) is not None
        assert _try_claim(shard_dir, shard, "bob", ttl_s=30.0) is None

    def test_own_lease_can_be_refreshed_by_reclaim(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        _try_claim(shard_dir, shard, "alice", ttl_s=30.0)
        again = _try_claim(shard_dir, shard, "alice", ttl_s=30.0)
        assert again is not None and not again.reclaimed

    def test_expired_lease_is_reclaimed(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        _try_claim(shard_dir, shard, "victim", ttl_s=30.0)
        time.sleep(0.02)
        lease = _try_claim(shard_dir, shard, "rescuer", ttl_s=0.01)
        assert lease is not None and lease.reclaimed

    def test_corrupt_lease_is_treated_as_expired(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        lease_path = os.path.join(shard_dir, "leases", "shard_000.lease")
        with open(lease_path, "w") as handle:
            handle.write("not json {")
        lease = _try_claim(shard_dir, shard, "rescuer", ttl_s=30.0)
        assert lease is not None

    def test_done_marker_blocks_any_claim(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        done = os.path.join(shard_dir, "done")
        os.makedirs(done)
        with open(os.path.join(done, "shard_000.json"), "w") as handle:
            handle.write("{}")
        assert _try_claim(shard_dir, shard, "alice", ttl_s=30.0) is None

    def test_heartbeat_refreshes_stamp(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        lease = _try_claim(shard_dir, shard, "alice", ttl_s=30.0)
        before = json.load(open(lease.path))["stamp"]
        time.sleep(0.02)
        lease.heartbeat()
        assert json.load(open(lease.path))["stamp"] > before

    def test_heartbeat_detects_foreign_takeover_and_backs_off(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        stale = _try_claim(shard_dir, shard, "victim", ttl_s=30.0)
        time.sleep(0.02)
        rescuer = _try_claim(shard_dir, shard, "rescuer", ttl_s=0.01)
        assert rescuer.reclaimed
        stale.heartbeat()
        assert stale.lost
        # The victim never overwrites the new owner's lease.
        assert json.load(open(stale.path))["owner"] == "rescuer"

    def test_release_removes_only_own_lease(self, tmp_path):
        shard_dir, shard = self._shard(tmp_path)
        lease = _try_claim(shard_dir, shard, "alice", ttl_s=30.0)
        lease.release()
        assert not os.path.exists(lease.path)
        # Released shard is claimable again, as a fresh (not reclaimed) claim.
        again = _try_claim(shard_dir, shard, "bob", ttl_s=30.0)
        assert again is not None and not again.reclaimed


class TestWorkerAndHarvest:
    def test_single_worker_completes_and_matches_serial(self, tmp_path, baseline):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        stats = run_worker(shard_dir, worker_id="solo")
        assert stats.shards_completed == 2
        assert stats.tasks_completed == N_TOPOLOGIES
        assert_identical(harvest(shard_dir), baseline)

    def test_worker_without_manifest_raises(self, tmp_path):
        with pytest.raises(ServiceError, match="no manifest"):
            run_worker(str(tmp_path), wait=False)

    def test_worker_timeout_waiting_for_manifest(self, tmp_path):
        with pytest.raises(ServiceTimeout):
            run_worker(str(tmp_path), timeout_s=0.05, poll_s=0.01)

    def test_harvest_of_incomplete_directory_raises(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        with pytest.raises(ServiceError, match="not yet done"):
            harvest(shard_dir)
        with pytest.raises(ServiceTimeout):
            harvest(shard_dir, timeout_s=0.05, poll_s=0.01)

    def test_run_sharded_experiment_matches_serial(self, tmp_path, baseline):
        result = run_sharded_experiment(SPEC, CONFIG, str(tmp_path / "shards"))
        assert_identical(result, baseline)
        assert result.service_stats.shards_completed == len(
            read_manifest(str(tmp_path / "shards")).shards
        )
        assert result.stats.resumed == 0

    def test_shard_dir_kwarg_routes_run_experiment(self, tmp_path, baseline):
        result = run_experiment(SPEC, CONFIG, shard_dir=str(tmp_path / "shards"))
        assert_identical(result, baseline)
        assert result.service_stats is not None

    def test_shard_dir_rejects_explicit_channels(self, tmp_path, channel_sets):
        with pytest.raises(ValueError, match="regenerable"):
            run_experiment(
                SPEC, CONFIG, channel_sets=channel_sets, shard_dir=str(tmp_path)
            )

    @pytest.mark.parametrize(
        "flags",
        [{"checkpoint": "j.ckpt"}, {"resume": True}, {"chunk_size": 2}],
        ids=["checkpoint", "resume", "chunk_size"],
    )
    def test_shard_dir_rejects_checkpoint_flags(self, tmp_path, flags):
        """Refused before publishing, never silently dropped."""
        shard_dir = str(tmp_path / "shards")
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_experiment(SPEC, CONFIG, shard_dir=shard_dir, **flags)
        assert not os.path.exists(shard_dir)

    def test_second_run_resumes_everything_from_journals(self, tmp_path, baseline):
        shard_dir = str(tmp_path / "shards")
        run_sharded_experiment(SPEC, CONFIG, shard_dir)
        again = run_sharded_experiment(SPEC, CONFIG, shard_dir)
        assert_identical(again, baseline)
        # Nothing left to claim: the whole experiment came from done markers.
        assert again.service_stats.shards_claimed == 0

    def test_cache_prefill_journals_every_hit(self, tmp_path, baseline):
        cache = ResultCache(str(tmp_path / "cache"))
        run_sharded_experiment(SPEC, CONFIG, str(tmp_path / "cold"), cache=cache)
        warm = run_sharded_experiment(SPEC, CONFIG, str(tmp_path / "warm"), cache=cache)
        assert_identical(warm, baseline)
        assert warm.service_stats.tasks_from_cache == N_TOPOLOGIES
        # Harvest never consults the cache: the journals alone are complete.
        assert_identical(harvest(str(tmp_path / "warm")), baseline)

    def test_worker_entry_returns_stats_dict(self, tmp_path, baseline):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG)
        stats = worker_entry(shard_dir, cache_root=str(tmp_path / "cache"))
        assert stats["tasks_completed"] == N_TOPOLOGIES
        assert json.dumps(stats)  # JSON-able across process boundaries
        assert_identical(harvest(shard_dir), baseline)

    def test_observed_worker_exports_valid_obs_payload(self, tmp_path):
        from repro.obs.export import validate_payload

        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        run_worker(shard_dir, worker_id="observed", collector=Collector())
        payload = json.load(open(os.path.join(shard_dir, "obs", "observed.json")))
        validate_payload(payload)
        counters = payload["metrics"]["counters"]
        assert counters["service.claim"] == 2.0
        assert counters["service.shard_done"] == 2.0
        assert payload["meta"]["worker"] == "observed"

    def test_harvest_merges_other_workers_observations(self, tmp_path, baseline):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2)
        run_worker(shard_dir, worker_id="remote", collector=Collector())
        col = Collector()
        assert_identical(harvest(shard_dir, collector=col), baseline)
        # The remote worker's counters and spans landed in our collector.
        assert col.metrics.counters["service.claim"] == 2.0
        names = {span.name for span in col.spans}
        assert "service.worker_trace[remote]" in names
        assert "service.worker" in names
        assert any(name.startswith("service.shard[") for name in names)

    def test_service_counters_track_steal_and_claim(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        publish_shards(shard_dir, SPEC, CONFIG, n_shards=2, publisher="publisher")
        col = Collector()
        stats = run_worker(shard_dir, worker_id="thief", collector=col)
        # Every claim of another publisher's shard counts as stolen work.
        assert stats.shards_stolen == 2
        assert col.metrics.counters["service.steal"] == 2.0
        assert col.metrics.counters["service.claim"] == 2.0
        assert "service.reclaim" not in col.metrics.counters


class TestAllocationService:
    @pytest.fixture()
    def cache(self, tmp_path):
        return ResultCache(str(tmp_path / "cache"))

    @staticmethod
    def assert_same_answer(warm, cold):
        """A warm answer is the cold answer that filled its cell, bit for bit."""
        assert warm.key == cold.key
        assert_same_outcome(warm.record.outcome, cold.record.outcome)

    @pytest.mark.parametrize("repeats", [2, 20])
    def test_repeat_query_hits_bit_identically(self, cache, channel_sets, repeats):
        svc = AllocationService(cache, config=CONFIG)
        cold = [svc.query(channels) for channels in channel_sets]
        assert not any(answer.hit for answer in cold)
        for _ in range(repeats - 1):
            for channels, first in zip(channel_sets, cold):
                answer = svc.query(channels)
                assert answer.hit
                self.assert_same_answer(answer, first)
        assert svc.stats.queries == repeats * len(channel_sets)
        assert svc.stats.hit_rate == (repeats - 1) / repeats

    def test_warm_cache_serves_other_handles(self, cache, channel_sets):
        first = AllocationService(cache, config=CONFIG)
        cold = [first.query(channels) for channels in channel_sets]
        other = AllocationService(cache, config=CONFIG)
        for channels, answer in zip(channel_sets, cold):
            warm = other.query(channels)
            assert warm.hit
            self.assert_same_answer(warm, answer)

    def test_distinct_channels_miss(self, cache, channel_sets):
        svc = AllocationService(cache, config=CONFIG)
        assert not svc.query(channel_sets[0]).hit
        assert not svc.query(channel_sets[1]).hit

    def test_grid_is_part_of_the_key(self, cache, channel_sets):
        coarse = AllocationService(cache, grid_db=1.0, config=CONFIG)
        fine = AllocationService(cache, grid_db=0.25, config=CONFIG)
        assert coarse.query_key(channel_sets[0]) != fine.query_key(channel_sets[0])
        coarse.query(channel_sets[0])
        assert not fine.query(channel_sets[0]).hit

    def test_query_context_is_part_of_the_key(self, cache, channel_sets):
        base = AllocationService(cache, config=CONFIG)
        plus = AllocationService(cache, config=CONFIG, include_copa_plus=True)
        tuned = AllocationService(
            cache, config=CONFIG, options=EngineOptions(max_iterations=3)
        )
        keys = {
            svc.query_key(channel_sets[0]) for svc in (base, plus, tuned)
        }
        assert len(keys) == 3

    def test_counters_and_span_names(self, cache, channel_sets):
        col = Collector()
        svc = AllocationService(cache, config=CONFIG, collector=col)
        svc.query(channel_sets[0])
        svc.query(channel_sets[0])
        assert col.metrics.counters["service.miss"] == 1.0
        assert col.metrics.counters["service.hit"] == 1.0
        assert sum(span.name == "service.query" for span in col.spans) == 2

    def test_miss_grafts_its_engine_trace_under_the_query(self, cache, channel_sets):
        col = Collector()
        svc = AllocationService(cache, config=CONFIG, collector=col)
        miss, hit = svc.query(channel_sets[0]), svc.query(channel_sets[0])
        assert (miss.hit, hit.hit) == (False, True)
        by_id = {span.span_id: span for span in col.spans}

        def query_of(span):
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                if span.name == "service.query":
                    return span
            return None

        miss_query, _ = [s for s in col.spans if s.name == "service.query"]
        # The miss ran the engine under its query; the hit ran none.
        (engine_run,) = [s for s in col.spans if s.name == "engine.run"]
        assert query_of(engine_run) is miss_query
        assert miss_query.start_s <= engine_run.start_s
        assert engine_run.end_s <= miss_query.end_s + 1e-9
        assert col.metrics.counters["engine.runs"] == 1.0

    def test_elapsed_and_span_include_the_key(self, cache, channel_sets, monkeypatch):
        col = Collector()
        svc = AllocationService(cache, config=CONFIG, collector=col)
        svc.query(channel_sets[0])  # warm the cell; the timed query hits
        compose = svc.query_key

        def slow_key(channels):
            time.sleep(0.02)
            return compose(channels)

        monkeypatch.setattr(svc, "query_key", slow_key)
        answer = svc.query(channel_sets[0])
        assert answer.hit and answer.elapsed_s >= 0.02
        span = [span for span in col.spans if span.name == "service.query"][-1]
        assert span.duration_s >= 0.02 and span.attrs["key"] == answer.key[:12]

    def test_invalid_grid_rejected(self, cache):
        with pytest.raises(ValueError):
            AllocationService(cache, grid_db=0.0)

    @pytest.mark.parametrize("grid_db", [np.inf, np.nan, 1e400])
    def test_non_finite_grid_rejected(self, cache, grid_db):
        with pytest.raises(ValueError, match="finite"):
            AllocationService(cache, grid_db=grid_db)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_channels_fail_the_query(self, cache, channel_sets, value):
        """A corrupt entry is not served the cached answer of a zeroed one."""

        def with_first_entry(entry):
            channels = channel_sets[0]
            key = sorted(channels.channels)[0]
            array = channels.channels[key].copy()
            array[0, 0, 0] = entry
            return dataclasses.replace(channels, channels={**channels.channels, key: array})

        svc = AllocationService(cache, config=CONFIG)
        svc.query(with_first_entry(0.0))
        with pytest.raises(ValueError, match="non-finite"):
            svc.query(with_first_entry(value))
        assert (svc.stats.hits, svc.stats.misses) == (0, 1)
