"""Snapshot creation pipeline."""

import pytest

from repro.vmm.builder import SnapshotBuilder
from tests.conftest import drive


def test_build_produces_usable_snapshot(kernel, tiny_profile):
    report = drive(kernel.env,
                   SnapshotBuilder(kernel).build(tiny_profile))
    snapshot = report.snapshot
    assert snapshot.file.size_bytes == tiny_profile.mem_bytes
    assert snapshot.meta.free_spans == tiny_profile.free_spans
    # The produced snapshot restores like any other.
    space = kernel.spawn_space("restore")
    space.mmap(snapshot.mem_pages, file=snapshot.file, at=1 << 20)
    cost = drive(kernel.env, space.handle_fault((1 << 20) + 5, False))
    assert cost > 0


def test_serialization_writes_whole_memory_sequentially(kernel,
                                                        tiny_profile):
    report = drive(kernel.env,
                   SnapshotBuilder(kernel).build(tiny_profile))
    metrics = kernel.metrics.snapshot()
    assert metrics["device_bytes_written_total"] == tiny_profile.mem_bytes
    # Large sequential chunks: almost every write follows its predecessor.
    assert (metrics["device_sequential_requests_total"]
            >= metrics["device_write_requests_total"] - 1)
    assert report.serialize_seconds > 0


def test_phases_all_take_time(kernel, tiny_profile):
    report = drive(kernel.env,
                   SnapshotBuilder(kernel).build(tiny_profile))
    assert report.boot_seconds > 0
    assert report.prewarm_seconds > 0
    assert report.total_seconds == pytest.approx(
        report.boot_seconds + report.prewarm_seconds
        + report.serialize_seconds)


def test_boot_memory_released_after_build(kernel, tiny_profile):
    drive(kernel.env, SnapshotBuilder(kernel).build(tiny_profile))
    # The boot sandbox's anonymous memory is gone; only page-cache pages
    # (none — nothing was read back) may remain.
    assert kernel.frames.counters.anon == 0


def test_zero_free_pages_variant(kernel, tiny_profile):
    report = drive(
        kernel.env,
        SnapshotBuilder(kernel).build(tiny_profile, zero_free_pages=True))
    zeros = set(report.snapshot.file.zero_pages())
    assert zeros == set(report.snapshot.meta.iter_free_gfns())
