"""Stage-callback block service ≡ the process-served reference.

:class:`~repro.storage.device.BlockDevice` serves each request through
stage callbacks instead of a DES process.  The contract is that nothing
observable changes: this fuzz drives every shipped device class and its
process-served twin (``reference_device.py``) with the same request
bursts and the same seeded fault injector, and requires identical
per-request times, completion order and outcomes, device counters and
latency buckets, device spans, the time and priority of every DES event
in processing order, and the final clock.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import DeviceFaultInjector
from repro.faults.schedule import FaultConfig, FaultStats
from repro.sim import Environment
from repro.storage.device import (
    PRIO_READAHEAD,
    PRIO_SYNC,
    READ,
    WRITE,
    BlockIOError,
    IORequest,
)
from repro.storage.hdd import HDDevice
from repro.storage.remote import RemoteObjectStore
from repro.storage.ssd import SSDevice
from repro.trace import Tracer
from repro.units import KIB, MIB, PAGE_SIZE
from tests.storage.reference_device import REFERENCE, ReferenceSSDevice

requests = st.tuples(
    # Gap before submitting: 0 submits in the same instant.
    st.sampled_from([0.0, 0.0, 0.0, 5e-6, 40e-6, 150e-6, 1e-3, 12e-3]),
    # Offset; None continues right after the previous request.
    st.one_of(st.none(), st.integers(0, 256 * MIB)),
    st.one_of(st.integers(1, 256 * KIB),
              st.integers(1, 64).map(lambda pages: pages * PAGE_SIZE)),
    st.sampled_from([READ, WRITE]),
    st.sampled_from([PRIO_SYNC, PRIO_READAHEAD]),
)

faults = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "seed": st.integers(0, 2**32 - 1),
        "media_error_rate": st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        "persistent_fraction": st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        "latency_spike_rate": st.sampled_from([0.0, 0.2, 0.5]),
        "latency_spike_multiplier": st.sampled_from([1.0, 3.0, 8.0]),
        "degraded_multiplier": st.sampled_from([1.0, 1.5]),
    }),
)


class LoggedEnvironment(Environment):
    """Records the (time, priority) of every event as it is processed."""

    def __init__(self):
        super().__init__()
        self.schedule: list[tuple[float, int]] = []

    def step(self) -> None:
        self.schedule.append(self._heap[0][:2])
        super().step()


def make_device(cls, env: Environment, queue_depth: int):
    if issubclass(cls, HDDevice):
        return cls(env)  # the actuator forces queue depth 1
    return cls(env, queue_depth=queue_depth)


def make_injector(fault: dict) -> DeviceFaultInjector:
    config = dict(fault)
    seed = config.pop("seed")
    return DeviceFaultInjector(random.Random(seed), FaultConfig(**config),
                               FaultStats())


def simulate(cls, queue_depth: int, burst, fault) -> dict:
    """Serve ``burst`` on a fresh ``cls`` device; everything observable."""
    env = LoggedEnvironment()
    env.tracer = Tracer()
    env.tracer.enable()
    device = make_device(cls, env, queue_depth)
    injector = None
    if fault is not None:
        injector = device.fault_injector = make_injector(fault)
    submitted: list[IORequest] = []
    completions: list[tuple] = []

    def observe(event, index):
        request = submitted[index]
        if event.ok:
            assert event.value is request
            outcome = "ok"
        else:
            error = event.value
            assert isinstance(error, BlockIOError)
            assert error.request is request
            outcome = ("transient" if error.transient else "persistent")
        completions.append((index, env.now, outcome))

    def submitter():
        end = 0
        for gap, offset, nbytes, op, prio in burst:
            if gap:
                yield env.timeout(gap)
            request = IORequest(end if offset is None else offset, nbytes,
                                op, prio=prio)
            end = request.end
            done = device.submit(request)
            done._defused = True  # observe() sees every failure
            done.callbacks.append(lambda ev, i=len(submitted): observe(ev, i))
            submitted.append(request)

    env.process(submitter(), name="submitter")
    env.run()
    stats = device.stats
    return {
        "times": [(r.submit_time, r.complete_time) for r in submitted],
        "completions": completions,
        "stats": stats.snapshot(),
        "errors": (stats.transient_errors, stats.persistent_errors),
        "buckets": stats.latency.bucket_counts(),
        "device_spans": [(s.name, s.ts, s.dur, s.track, s.args)
                         for s in env.tracer.spans(cat="device")],
        "faults": (None if injector is None else
                   (vars(injector.stats), injector.bad_extents)),
        "events": env.events_processed,
        "schedule": env.schedule,
        "now": env.now,
        "queues_drained": (device._slots.count, device._slots.queue_length,
                           device._controller.count,
                           device._controller.queue_length),
    }


@settings(max_examples=200, deadline=None)
@given(cls=st.sampled_from([SSDevice, HDDevice, RemoteObjectStore]),
       queue_depth=st.integers(1, 32),
       burst=st.lists(requests, min_size=1, max_size=40),
       fault=faults)
def test_stage_service_matches_process_reference(cls, queue_depth, burst,
                                                 fault):
    served = simulate(cls, queue_depth, burst, fault)
    reference = simulate(REFERENCE[cls], queue_depth, burst, fault)
    assert served == reference
    assert len(served["completions"]) == len(burst)
    assert served["queues_drained"] == (0, 0, 0, 0)


@pytest.mark.parametrize("cls", [SSDevice, ReferenceSSDevice])
def test_unobserved_failure_raises_from_run(cls):
    """A failed request nobody waits on is an error, not a silent drop."""
    env = Environment()
    device = cls(env)
    device.fault_injector = make_injector({"seed": 0})
    device.fault_injector.fail_next(persistent=True)
    device.read(0, PAGE_SIZE)
    with pytest.raises(BlockIOError) as info:
        env.run()
    assert not info.value.transient
    assert device.stats.errors == 1


def test_requests_run_without_processes():
    """Only the device span is traced per request: no DES process (and
    so no process lifetime span) is created for it."""
    env = Environment()
    env.tracer = Tracer()
    env.tracer.enable()
    device = SSDevice(env)
    for page in range(5):
        device.read(page * 2 * PAGE_SIZE, PAGE_SIZE)
    env.run()
    assert len(env.tracer.spans(cat="device")) == 5
    assert env.tracer.spans(cat="process") == []
