"""Page-cache EIO semantics: waiter wakeup, entry teardown, retry ladder."""

import pytest

from repro.faults import FaultSchedule, RetryPolicy
from repro.storage import BlockIOError
from repro.units import MIB
from tests.conftest import drive


@pytest.fixture
def faults(kernel):
    return FaultSchedule(seed=0).install(kernel)


def test_concurrent_waiters_all_see_eio(kernel, faults):
    """Every process blocked on a failed fill gets EIO, exactly like
    concurrent faulters on a locked page whose read fails."""
    kernel.page_cache.retry_policy = None
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()
    kernel.page_cache.populate(file, 0, 4)
    entries = [kernel.page_cache.lookup(file.ino, i) for i in range(4)]
    outcomes = []

    def waiter(entry):
        try:
            yield entry.io_event
        except BlockIOError:
            outcomes.append("eio")
        else:
            outcomes.append("ok")

    processes = [kernel.env.process(waiter(e), name=f"w{i}")
                 for i, e in enumerate(entries)]
    kernel.env.run(kernel.env.all_of(processes))
    assert outcomes == ["eio"] * 4
    # The failed entries are gone and their frames freed.
    assert kernel.page_cache.cached_pages() == 0
    assert kernel.frames.in_use == 0
    assert kernel.metrics.get("cache_io_failures_total").value == 1
    # A later populate starts from scratch and succeeds.
    kernel.page_cache.populate(file, 0, 4)
    kernel.env.run()
    assert all(kernel.page_cache.resident(file.ino, i) for i in range(4))


def test_retry_heals_transient_error_invisibly(kernel, faults):
    """With the default policy a transient error is re-issued after a
    backoff; waiters never observe it."""
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next()
    kernel.page_cache.populate(file, 0, 8)
    entry = kernel.page_cache.lookup(file.ino, 0)

    def waiter():
        result = yield entry.io_event
        return result

    assert drive(kernel.env, waiter()) is entry
    assert all(kernel.page_cache.resident(file.ino, i) for i in range(8))
    assert kernel.metrics.get("cache_io_retries_total").value == 1
    assert kernel.metrics.get("cache_io_failures_total").value == 0
    assert kernel.metrics.get("device_errors_total").value == 1


def test_retry_budget_exhaustion_surfaces_eio(kernel, faults):
    """max_attempts failures in a row exhaust the ladder: waiters see
    EIO and the entries are dropped."""
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next(3)  # matches max_attempts=3
    kernel.page_cache.populate(file, 0, 2)
    entry = kernel.page_cache.lookup(file.ino, 0)

    def waiter():
        with pytest.raises(BlockIOError):
            yield entry.io_event
        return "eio"

    assert drive(kernel.env, waiter()) == "eio"
    assert kernel.metrics.get("cache_io_retries_total").value == 2
    assert kernel.metrics.get("cache_io_failures_total").value == 1
    assert kernel.page_cache.cached_pages() == 0
    assert kernel.frames.in_use == 0


def test_persistent_error_is_not_retried(kernel, faults):
    file = kernel.filestore.create("f", MIB)
    kernel.device.fault_injector.fail_next(persistent=True)
    kernel.page_cache.populate(file, 0, 2)
    kernel.env.run()
    assert kernel.metrics.get("cache_io_retries_total").value == 0
    assert kernel.metrics.get("cache_io_failures_total").value == 1
    assert kernel.page_cache.cached_pages() == 0


def test_retry_backoff_delays_completion(kernel, faults):
    """The healed read completes later than a clean one by at least the
    first backoff step."""
    kernel.page_cache.retry_policy = RetryPolicy(backoff_base=1e-3)
    file = kernel.filestore.create("f", MIB)

    kernel.page_cache.populate(file, 0, 1)
    kernel.env.run()
    clean_duration = kernel.env.now

    kernel.drop_caches()
    start = kernel.env.now
    kernel.device.fault_injector.fail_next()
    kernel.page_cache.populate(file, 0, 1)
    kernel.env.run()
    assert kernel.env.now - start >= clean_duration + 1e-3


def test_torn_page_heals_through_retry(kernel, faults):
    """A torn snapshot page is transient: the re-read comes back clean."""
    file = kernel.filestore.create("f", MIB)
    kernel.filestore.fault_injector.tear_next()
    kernel.page_cache.populate(file, 0, 4)
    kernel.env.run()
    assert all(kernel.page_cache.resident(file.ino, i) for i in range(4))
    assert kernel.metrics.get("cache_io_retries_total").value == 1
    assert kernel.faults.stats.torn_pages == 1
