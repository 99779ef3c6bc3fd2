"""Device-model property tests: conservation and monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.storage.device import PRIO_READAHEAD, PRIO_SYNC, IORequest
from repro.storage.ssd import SSDevice
from repro.units import PAGE_SIZE

request_strategy = st.tuples(
    st.integers(0, 1000),              # page offset
    st.integers(1, 64),                # pages
    st.sampled_from([PRIO_SYNC, PRIO_READAHEAD]),
)


@settings(max_examples=50, deadline=None)
@given(specs=st.lists(request_strategy, min_size=1, max_size=30))
def test_all_requests_complete_and_bytes_conserved(specs):
    env = Environment()
    ssd = SSDevice(env)
    events = []
    total_bytes = 0
    for page, count, prio in specs:
        nbytes = count * PAGE_SIZE
        total_bytes += nbytes
        events.append(ssd.submit(IORequest(page * PAGE_SIZE, nbytes,
                                           prio=prio)))
    env.run()
    assert all(e.processed and e.ok for e in events)
    metrics = ssd.registry.snapshot()
    assert metrics["device_requests_total"] == len(specs)
    assert metrics["device_bytes_read_total"] == total_bytes
    # Completions never precede submissions; clock advanced.
    for event in events:
        request = event.value
        assert request.complete_time >= request.submit_time
    assert env.now >= max(e.value.complete_time for e in events)


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 64))
def test_bigger_reads_take_longer(count):
    def duration(npages):
        env = Environment()
        ssd = SSDevice(env)
        ssd.read(0, npages * PAGE_SIZE)
        env.run()
        return env.now

    small = duration(count)
    bigger = duration(count + 16)
    assert bigger > small


@settings(max_examples=30, deadline=None)
@given(ra_specs=st.lists(st.tuples(st.integers(0, 1000),
                                   st.integers(1, 64)),
                         min_size=6, max_size=20),
       sync_page=st.integers(0, 1000))
def test_sync_overtakes_saturated_readahead_queue(ra_specs, sync_page):
    """A sync request arriving behind a deep readahead backlog must not
    be the global straggler: priority admission lets it overtake the
    still-queued readahead requests (only already-admitted ones finish
    first)."""
    env = Environment()
    ssd = SSDevice(env, queue_depth=2)
    ra_events = [ssd.submit(IORequest(page * PAGE_SIZE,
                                      count * PAGE_SIZE,
                                      prio=PRIO_READAHEAD))
                 for page, count in ra_specs]
    sync = ssd.submit(IORequest(sync_page * PAGE_SIZE, PAGE_SIZE,
                                prio=PRIO_SYNC))
    env.run()
    sync_done = sync.value.complete_time
    ra_done = sorted(e.value.complete_time for e in ra_events)
    # At most queue_depth readahead requests (the admitted ones) may
    # complete before the sync read.
    earlier = sum(1 for t in ra_done if t < sync_done)
    assert earlier <= ssd.queue_depth + 1
    assert sync_done < ra_done[-1]
