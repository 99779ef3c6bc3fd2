"""Block-device models: timing, queueing, priorities, stats."""

import pytest

from repro.sim import Environment
from repro.storage.device import (
    PRIO_READAHEAD,
    PRIO_SYNC,
    READ,
    IORequest,
)
from repro.storage.hdd import HDDevice
from repro.storage.ssd import SSDevice
from repro.units import KIB, MIB, PAGE_SIZE


def run_io(env, device, requests):
    events = [device.submit(r) for r in requests]
    env.run()
    return events


class TestIORequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            IORequest(0, 0)
        with pytest.raises(ValueError):
            IORequest(-1, 10)
        with pytest.raises(ValueError):
            IORequest(0, 10, op="scribble")

    def test_end(self):
        assert IORequest(4096, 8192).end == 12288


class TestSSD:
    def test_single_read_latency(self, env):
        ssd = SSDevice(env)
        ssd.read(0, PAGE_SIZE)
        env.run()
        # command overhead + transfer + media latency, well under 1 ms
        assert 50e-6 < env.now < 300e-6

    def test_bandwidth_bound_large_read(self, env):
        ssd = SSDevice(env)
        nbytes = 64 * MIB
        ssd.read(0, nbytes)
        env.run()
        assert env.now == pytest.approx(nbytes / ssd.read_bandwidth,
                                        rel=0.05)

    def test_queue_parallelism(self, env):
        """Random 4K reads overlap media time across queue slots."""
        ssd = SSDevice(env)
        serial_estimate = 32 * (ssd.read_command_overhead
                                + PAGE_SIZE / ssd.read_bandwidth
                                + ssd.read_media_latency)
        for i in range(32):
            ssd.read(i * 2 * PAGE_SIZE, PAGE_SIZE)
        env.run()
        assert env.now < serial_estimate / 2

    def test_capacity_bound(self, env):
        ssd = SSDevice(env, capacity_bytes=MIB)
        with pytest.raises(ValueError):
            ssd.read(MIB - PAGE_SIZE, 2 * PAGE_SIZE)

    def test_write_slower_than_read(self, env):
        ssd = SSDevice(env)
        ssd.read(0, PAGE_SIZE)
        env.run()
        read_time = env.now
        env2 = Environment()
        ssd2 = SSDevice(env2)
        ssd2.write(0, PAGE_SIZE)
        env2.run()
        assert env2.now > read_time

    def test_stats_accounting(self, env):
        ssd = SSDevice(env)
        ssd.read(0, 4 * PAGE_SIZE)
        ssd.write(0, PAGE_SIZE)
        env.run()
        metrics = ssd.registry.snapshot()
        assert metrics["device_requests_total"] == 2
        assert metrics["device_read_requests_total"] == 1
        assert metrics["device_write_requests_total"] == 1
        assert metrics["device_bytes_read_total"] == 4 * PAGE_SIZE
        assert metrics["device_bytes_written_total"] == PAGE_SIZE

    def test_sequential_detection(self, env):
        ssd = SSDevice(env, queue_depth=1)
        ssd.read(0, PAGE_SIZE)
        ssd.read(PAGE_SIZE, PAGE_SIZE)       # sequential
        ssd.read(100 * PAGE_SIZE, PAGE_SIZE)  # random
        env.run()
        assert ssd.registry.get(
            "device_sequential_requests_total").value == 1

    def test_priority_overtakes_queue(self, env):
        """A sync read submitted after many readahead reads finishes
        before most of them — the property SnapBPF's trigger relies on."""
        ssd = SSDevice(env)
        ra_events = [ssd.submit(IORequest(i * MIB, 512 * KIB, READ,
                                          prio=PRIO_READAHEAD))
                     for i in range(64)]
        sync = ssd.submit(IORequest(200 * MIB, PAGE_SIZE, READ,
                                    prio=PRIO_SYNC))
        env.run()
        sync_done = sync.value.complete_time
        ra_done = sorted(e.value.complete_time for e in ra_events)
        # The sync read must beat the vast majority of the RA stream.
        assert sync_done < ra_done[len(ra_done) // 4]

    def test_reset_stats(self, env):
        ssd = SSDevice(env)
        ssd.read(0, PAGE_SIZE)
        env.run()
        ssd.reset_stats()
        assert ssd.registry.get("device_requests_total").value == 0


class TestHDD:
    def test_random_read_pays_seek(self, env):
        hdd = HDDevice(env)
        hdd.read(500 * MIB, PAGE_SIZE)
        env.run()
        assert env.now > hdd.avg_seek_time  # dominated by mechanics

    def test_sequential_stream_fast(self, env):
        hdd = HDDevice(env)
        def stream():
            for i in range(16):
                yield hdd.read(i * 512 * KIB, 512 * KIB)
        env.process(stream())
        env.run()
        sequential_time = env.now

        env2 = Environment()
        hdd2 = HDDevice(env2)
        def scattered():
            for i in range(16):
                yield hdd2.read(i * 64 * MIB, 512 * KIB)
        env2.process(scattered())
        env2.run()
        # At 512 KiB requests, random access still pays a seek+rotation
        # per request: at least 3x slower than the sequential stream
        # (the gap widens as requests shrink — see the 4 KiB ablation).
        assert env2.now > 3 * sequential_time

    def test_queue_depth_forced_to_one(self, env):
        assert HDDevice(env).queue_depth == 1

    def test_rotational_latency_from_rpm(self, env):
        hdd = HDDevice(env, rpm=15000)
        assert hdd.avg_rotational_latency == pytest.approx(0.002)


class TestDeviceValidation:
    def test_positive_capacity_required(self, env):
        with pytest.raises(ValueError):
            SSDevice(env, capacity_bytes=0)

    def test_queue_depth_validation(self, env):
        with pytest.raises(ValueError):
            SSDevice(env, queue_depth=0)
