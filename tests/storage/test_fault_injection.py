"""I/O error injection and propagation through the stack."""

import pytest

from repro.faults import FaultSchedule
from repro.storage import BlockIOError
from repro.units import MIB
from tests.conftest import drive


@pytest.fixture
def faults(kernel):
    """A zero-rate schedule installed on the kernel: nothing fires
    unless a test forces it through the injector hooks."""
    return FaultSchedule(seed=0).install(kernel)


def test_blockioerror_alias():
    # Callers catch media errors as the builtin IOError (OSError).
    assert issubclass(BlockIOError, IOError)


def test_device_fails_injected_request(kernel, faults):
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()
    event = kernel.filestore.read_pages(file, 0, 4)

    def waiter():
        with pytest.raises(BlockIOError):
            yield event
        return "saw-error"

    assert drive(kernel.env, waiter()) == "saw-error"
    assert kernel.metrics.get("device_errors_total").value == 1
    assert kernel.metrics.get("device_transient_errors_total").value == 1


def test_error_consumes_only_one_injection(kernel, faults):
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()

    def sequence():
        with pytest.raises(BlockIOError):
            yield kernel.filestore.read_pages(file, 0, 1)
        done = yield kernel.filestore.read_pages(file, 1, 1)
        return done

    drive(kernel.env, sequence())
    assert kernel.metrics.get("device_errors_total").value == 1
    # Only the success is counted.
    assert kernel.metrics.get("device_requests_total").value == 1


def test_failed_request_charges_busy_time(kernel, faults):
    """A failed request spends real device time: busy_time and the
    latency histogram must include it even though the success counters
    (requests, bytes_read) must not."""
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()

    def read():
        with pytest.raises(BlockIOError):
            yield kernel.filestore.read_pages(file, 0, 4)

    drive(kernel.env, read())
    metrics = kernel.metrics.snapshot()
    assert metrics["device_requests_total"] == 0
    assert metrics["device_bytes_read_total"] == 0
    assert metrics["device_errors_total"] == 1
    assert metrics["device_busy_seconds_total"] > 0.0
    assert metrics["device_request_latency_seconds_count"] == 1
    assert metrics["device_request_latency_seconds_sum"] > 0.0


def test_persistent_error_poisons_extent(kernel, faults):
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next(persistent=True)

    def sequence():
        with pytest.raises(BlockIOError) as first:
            yield kernel.filestore.read_pages(file, 0, 4)
        assert not first.value.transient
        # The same extent now fails without any forced error queued...
        with pytest.raises(BlockIOError):
            yield kernel.filestore.read_pages(file, 0, 4)
        # ...while a disjoint extent is unaffected.
        yield kernel.filestore.read_pages(file, 8, 4)
        return "done"

    assert drive(kernel.env, sequence()) == "done"
    assert kernel.metrics.get("device_persistent_errors_total").value == 2
    assert kernel.metrics.get("device_requests_total").value == 1


def test_page_cache_drops_failed_pages_and_retries(kernel, faults):
    kernel.page_cache.retry_policy = None  # fail waiters on first error
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()
    kernel.page_cache.populate(file, 0, 8)
    kernel.env.run()
    # Failed pages are gone — not stuck locked forever.
    assert kernel.page_cache.cached_pages() == 0
    assert kernel.frames.in_use == 0
    # A retry succeeds.
    kernel.page_cache.populate(file, 0, 8)
    kernel.env.run()
    assert kernel.page_cache.resident(file.ino, 7)


def test_fault_path_surfaces_eio_to_waiter(kernel, faults):
    file = kernel.filestore.create("f", MIB)
    space = kernel.spawn_space("vm")
    space.mmap(64, file=file, at=1000, ra_pages=0)
    # Persistent: the page cache's retry ladder must not (and cannot)
    # heal it, so the fault surfaces even with the default policy.
    kernel.device.fault_injector.fail_next(persistent=True)

    def faulter():
        with pytest.raises(BlockIOError):
            yield from space.handle_fault(1000, False)
        return "sigbus"

    assert drive(kernel.env, faulter()) == "sigbus"
    # The mapping was never installed.
    assert space.pte(1000) is None


def test_unwaited_readahead_error_is_silent(kernel, faults):
    """A failing *async* readahead must not crash the simulation — like
    Linux, the error surfaces only if someone later needs the page."""
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next(persistent=True)
    kernel.page_cache.page_cache_ra_unbounded(file, 0, 32)
    kernel.env.run()  # must not raise
    assert kernel.page_cache.cached_pages() == 0
