"""Property tests: page-cache bookkeeping stays consistent under
arbitrary populate / wait / drop / fault-injection sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSchedule
from repro.mm.kernel import Kernel
from repro.sim import Environment

FILE_PAGES = 256

op_strategy = st.one_of(
    st.tuples(st.just("populate"), st.integers(0, FILE_PAGES - 1),
              st.integers(1, 64)),
    st.tuples(st.just("ra"), st.integers(0, FILE_PAGES + 32),
              st.integers(1, 64)),
    st.tuples(st.just("run"), st.just(0), st.just(0)),
    st.tuples(st.just("drop"), st.just(0), st.just(0)),
    st.tuples(st.just("fail_next"), st.just(0), st.integers(1, 3)),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(op_strategy, min_size=1, max_size=25))
def test_cache_frame_accounting_invariant(ops):
    kernel = Kernel(env=Environment())
    FaultSchedule(seed=0).install(kernel)
    file = kernel.filestore.create("f", FILE_PAGES * 4096)
    for op, a, b in ops:
        if op == "populate":
            count = min(b, FILE_PAGES - a)
            if count > 0:
                kernel.page_cache.populate(file, a, count)
        elif op == "ra":
            kernel.page_cache.page_cache_ra_unbounded(file, a, b)
        elif op == "run":
            kernel.env.run()
        elif op == "drop":
            kernel.env.run()
            kernel.drop_caches()
        elif op == "fail_next":
            kernel.device.fault_injector.fail_next(b)

        # Invariant: one FILE frame per cache entry, at all times.
        assert (kernel.frames.counters.file
                == kernel.page_cache.cached_pages())
        assert kernel.frames.counters.anon == 0
        # The uptodate set's bulk-kept count equals a recount.
        uptodate = kernel.page_cache._uptodate
        assert uptodate.count(file.ino) == len(uptodate) == sum(
            kernel.page_cache.residency_bytes(file.ino, 0, FILE_PAGES))

    kernel.env.run()
    assert kernel.frames.counters.file == kernel.page_cache.cached_pages()
    # After a final drain + drop, nothing leaks.
    kernel.drop_caches()
    assert kernel.frames.in_use == 0


@settings(max_examples=40, deadline=None)
@given(
    windows=st.lists(st.tuples(st.integers(0, FILE_PAGES - 1),
                               st.integers(1, 48)),
                     min_size=1, max_size=10))
def test_populate_is_idempotent_and_complete(windows):
    kernel = Kernel(env=Environment())
    file = kernel.filestore.create("f", FILE_PAGES * 4096)
    requested: set[int] = set()
    for start, count in windows:
        count = min(count, FILE_PAGES - start)
        if count <= 0:
            continue
        kernel.page_cache.populate(file, start, count)
        requested.update(range(start, start + count))
    kernel.env.run()
    resident = {index for index in range(FILE_PAGES)
                if kernel.page_cache.resident(file.ino, index)}
    assert resident == requested
    # Re-populating everything is a no-op I/O-wise.
    reads_before = kernel.metrics.get("device_requests_total").value
    for start, count in windows:
        count = min(count, FILE_PAGES - start)
        if count > 0:
            kernel.page_cache.populate(file, start, count)
    kernel.env.run()
    assert kernel.metrics.get("device_requests_total").value == reads_before
