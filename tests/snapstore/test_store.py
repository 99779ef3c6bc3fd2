"""SnapStore tier state machine: placement, staging, eviction, faults."""

from types import SimpleNamespace

import pytest

import random

from repro.faults import FaultConfig, RemoteFetchInjector
from repro.faults.schedule import FaultStats
from repro.metrics.registry import MetricsRegistry
from repro.sim import Environment, Event
from repro.snapstore import ChunkRegistry, SnapStore, SnapStoreSpec
from repro.storage.device import BlockIOError
from repro.units import MIB
from repro.workloads.profile import FunctionProfile


def make_profile(name="alpha", seed=7, **overrides):
    fields = dict(name=name, mem_bytes=8 * MIB, ws_bytes=2 * MIB,
                  alloc_bytes=1 * MIB, compute_seconds=0.01,
                  run_len_mean=8.0, seed=seed)
    fields.update(overrides)
    return FunctionProfile(**fields)


def make_store(env, **spec_overrides):
    spec = SnapStoreSpec(chunk_pages=16, **spec_overrides)
    return SnapStore(env, spec, metrics=MetricsRegistry())


def record_one(store, name="alpha", ino=1):
    file = SimpleNamespace(ino=ino, name=name)
    manifest = store.record(file, make_profile(name))
    return file, manifest


def run_stage(env, store, plan, prio=0):
    def driver():
        yield from store.stage(plan, prio)

    proc = env.process(driver())
    env.run(proc)
    return proc


class TestPlacement:
    def test_record_marks_chunks_local(self):
        env = Environment()
        store = make_store(env)
        file, manifest = record_one(store)
        assert store.local_bytes == manifest.logical_bytes
        # All-local reads plan to None: the flat-file identity path.
        assert store.plan_read(file, 0, manifest.size_pages) is None

    def test_remote_placement_clears_the_local_tier(self):
        env = Environment()
        store = make_store(env, placement="remote")
        file, manifest = record_one(store)
        store.apply_placement()
        assert store.local_bytes == 0
        plan = store.plan_read(file, 0, manifest.size_pages)
        assert len(plan) == len(manifest.cids)

    def test_base_local_keeps_only_shared_chunks(self):
        env = Environment()
        store = make_store(env, placement="base-local")
        # Two distinct snapshots of the same runtime: base chunks shared.
        file_a, manifest_a = record_one(store, "alpha", ino=1)
        file_b, manifest_b = record_one(store, "beta", ino=2)
        store.apply_placement()
        shared = set(manifest_a.cids) & set(manifest_b.cids)
        assert shared
        resident = set(store._local)
        assert resident == shared
        # A read over the private extent must stage something.
        assert store.plan_read(file_a, 0, manifest_a.size_pages)

    def test_apply_placement_is_idempotent(self):
        env = Environment()
        store = make_store(env, placement="local")
        file, manifest = record_one(store)
        store.apply_placement()
        before = dict(store._local)
        store.apply_placement()
        assert store._local == before
        assert store.local_bytes == manifest.logical_bytes


class TestStaging:
    def test_staging_promotes_and_charges_the_remote_device(self):
        env = Environment()
        store = make_store(env, placement="remote")
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, manifest.size_pages)
        run_stage(env, store, plan)
        assert env.now > 0.0  # remote RTT + bandwidth were charged
        assert store.remote.registry.get("device_requests_total").value >= 1
        assert store.plan_read(file, 0, manifest.size_pages) is None
        extras = store.result_extras()
        assert extras["snapstore_staged_chunks"] == len(manifest.cids)
        assert extras["snapstore_remote_fetch_bytes"] >= (
            manifest.logical_bytes)

    def test_adjacent_chunks_coalesce_into_one_request(self):
        env = Environment()
        store = make_store(env, placement="remote")
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, manifest.size_pages)
        run_stage(env, store, plan)
        # Contiguously recorded chunks are offset-adjacent: one request.
        assert store.remote.registry.get("device_requests_total").value == 1

    def test_inflight_fetches_are_awaited_not_duplicated(self):
        env = Environment()
        store = make_store(env, placement="remote")
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, manifest.size_pages)

        def driver():
            yield from store.stage(plan)

        first = env.process(driver())
        second = env.process(driver())
        env.run(env.all_of([first, second]))
        assert store.remote.registry.get("device_requests_total").value == 1
        assert store.result_extras()["snapstore_staged_chunks"] == len(
            manifest.cids)

    def test_partial_reads_stage_only_covered_chunks(self):
        env = Environment()
        store = make_store(env, placement="remote")
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, store.spec.chunk_pages)
        assert len(plan) == 1
        run_stage(env, store, plan)
        assert len(store._local) == 1


class TestEviction:
    def test_capacity_demotes_private_before_shared(self):
        env = Environment()
        registry = ChunkRegistry()
        spec = SnapStoreSpec(chunk_pages=16, hdd_tier=True,
                             local_capacity_bytes=4 * MIB)
        store = SnapStore(env, spec, chunks=registry,
                          metrics=MetricsRegistry())
        _, manifest_a = record_one(store, "alpha", ino=1)
        _, manifest_b = record_one(store, "beta", ino=2)
        shared = set(manifest_a.cids) & set(manifest_b.cids)
        assert store.local_bytes <= 4 * MIB
        demoted = set(store._on_hdd)
        assert demoted  # capacity forced spills
        # Shared base chunks are spared while private victims remain.
        private_resident = [c for c in store._local if c not in shared]
        shared_demoted = [c for c in demoted if c in shared]
        if private_resident:
            assert not shared_demoted
        # Demotion is an event count: a chunk re-promoted by a later
        # record can demote again, so events >= unique demoted chunks.
        assert store.result_extras()["snapstore_demotions"] >= len(demoted)

    def test_demoted_chunks_stage_from_the_hdd_tier(self):
        env = Environment()
        spec = SnapStoreSpec(chunk_pages=16, hdd_tier=True,
                             local_capacity_bytes=2 * MIB)
        store = SnapStore(env, spec, metrics=MetricsRegistry())
        file, manifest = record_one(store)
        assert store._on_hdd
        plan = store.plan_read(file, 0, manifest.size_pages)
        run_stage(env, store, plan)
        # The spindle served it, not the network.
        assert store.remote.registry.get("device_requests_total").value == 0
        assert store.metrics.get(
            "snapstore_chunk_hits_hdd_total").value > 0


class TestGC:
    def test_release_reclaims_only_unreferenced_chunks(self):
        env = Environment()
        store = make_store(env)
        _, manifest_a = record_one(store, "alpha", ino=1)
        _, manifest_b = record_one(store, "beta", ino=2)
        shared = set(manifest_a.cids) & set(manifest_b.cids)
        reclaimed = store.release(1)
        assert reclaimed > 0
        for cid in manifest_b.cids:
            assert cid in store.chunks  # live references survive
        assert all(cid in store._local for cid in manifest_b.cids)
        assert store.release_all() > 0
        assert len(store.chunks) == 0
        assert store.local_bytes == 0

    def test_release_unknown_ino_raises(self):
        env = Environment()
        store = make_store(env)
        with pytest.raises(FileNotFoundError):
            store.release(99)

    def test_duplicate_record_raises(self):
        env = Environment()
        store = make_store(env)
        file, _ = record_one(store)
        with pytest.raises(FileExistsError):
            store.record(file, make_profile())


def make_injector(**config_overrides):
    config = FaultConfig(**config_overrides)
    return RemoteFetchInjector(random.Random(1), config, FaultStats())


class TestFaults:
    def test_forced_error_retries_then_succeeds(self):
        env = Environment()
        store = make_store(env, placement="remote")
        store.fault_injector = make_injector()
        store.fault_injector.fail_next(1)
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, manifest.size_pages)
        run_stage(env, store, plan)
        extras = store.result_extras()
        assert extras["snapstore_fetch_retries"] == 1
        assert store.plan_read(file, 0, manifest.size_pages) is None

    def test_exhausted_retries_fail_the_staged_read(self):
        env = Environment()
        store = make_store(env, placement="remote")
        store.fault_injector = make_injector()
        store.fault_injector.fail_next(10)
        file, manifest = record_one(store)
        store.apply_placement()
        plan = store.plan_read(file, 0, manifest.size_pages)
        with pytest.raises(BlockIOError):
            run_stage(env, store, plan)
        assert not store._inflight  # waiters were failed, not leaked

    def test_remote_exhaustion_degrades_to_the_hdd_tier(self):
        env = Environment()
        spec = SnapStoreSpec(chunk_pages=16, placement="remote",
                             hdd_tier=True)
        store = SnapStore(env, spec, metrics=MetricsRegistry())
        store.fault_injector = make_injector()
        file, manifest = record_one(store)
        store.apply_placement()
        cid = manifest.cids[0]
        nbytes = manifest.chunk_nbytes(0)
        # The chunk landed on the spindle after the remote run was
        # dispatched (demotion race): the exhausted remote fetch must
        # fall back to the surviving tier instead of failing.
        store._on_hdd[cid] = nbytes
        store.hdd_bytes += nbytes
        event = Event(env)
        event._defused = True
        store._inflight[cid] = event
        store.fault_injector.fail_next(10)
        offset = store.chunks.get(cid).remote_offset
        env.run(env.process(store._fetch(
            "remote", [(offset, nbytes, cid, event)], 0)))
        assert cid in store._local
        extras = store.result_extras()
        assert extras["snapstore_degraded_fetches"] == 1
        assert extras["snapstore_fetch_retries"] == 2

    def test_stall_charges_simulated_time(self):
        env = Environment()
        store = make_store(env, placement="remote")
        store.fault_injector = make_injector(
            remote_fetch_stall_seconds=5e-3)
        store.fault_injector.stall_next(1)
        file, manifest = record_one(store)
        store.apply_placement()

        clean_env = Environment()
        clean = make_store(clean_env, placement="remote")
        clean_file, _ = record_one(clean)
        clean.apply_placement()

        run_stage(env, store, store.plan_read(file, 0, 16))
        run_stage(clean_env, clean, clean.plan_read(clean_file, 0, 16))
        assert env.now == pytest.approx(clean_env.now + 5e-3)
