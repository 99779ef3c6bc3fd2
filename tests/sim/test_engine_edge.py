"""Engine edge cases: urgent ordering, nested processes, reentrancy."""

import pytest



def test_urgent_beats_normal_at_same_time(env):
    """URGENT events (process wakeups, resource grants) fire before
    NORMAL events scheduled earlier at the same timestamp."""
    from repro.sim.engine import URGENT
    order = []
    env.timeout(0).callbacks.append(lambda e: order.append("normal"))
    urgent = env.event()
    urgent.callbacks.append(lambda e: order.append("urgent"))
    urgent.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "normal"]


def test_deeply_nested_yield_from(env):
    def level(n):
        if n == 0:
            yield env.timeout(1)
            return 1
        value = yield from level(n - 1)
        return value + 1

    p = env.process(level(50))
    env.run()
    assert p.value == 51


def test_many_processes_same_event(env):
    event = env.event()
    procs = []

    def waiter(i):
        value = yield event
        return (i, value)

    for i in range(100):
        procs.append(env.process(waiter(i)))
    event.succeed("go")
    env.run()
    assert [p.value for p in procs] == [(i, "go") for i in range(100)]


def test_event_callback_can_schedule_more_events(env):
    fired = []

    def chain(event):
        fired.append(env.now)
        if len(fired) < 5:
            env.timeout(1).callbacks.append(chain)

    env.timeout(1).callbacks.append(chain)
    env.run()
    assert fired == [1, 2, 3, 4, 5]


def test_process_failing_before_first_yield(env):
    def bad():
        raise ValueError("immediate")
        yield  # pragma: no cover

    env.process(bad())
    with pytest.raises(ValueError, match="immediate"):
        env.run()


def test_process_waiting_on_failed_past_event(env):
    event = env.event()
    event._defused = True
    event.fail(RuntimeError("old failure"))
    env.run()

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            return str(exc)

    p = env.process(waiter())
    env.run()
    assert p.value == "old failure"


def test_interrupt_cancels_pending_redelivery(env):
    """Yielding a fired event schedules a re-delivery; an interrupt that
    lands first must cancel it, not resume the next wait with it."""
    from repro.sim.engine import Interrupt
    fired = env.event()
    fired.succeed("stale")
    env.run()
    out = []

    def sleeper():
        try:
            yield env.timeout(1)
        except Interrupt:
            pass
        try:
            yield fired
        except Interrupt:
            pass
        value = yield env.timeout(5, value="slept")
        out.append((value, env.now))

    def interrupter(target):
        yield env.timeout(0)
        target.interrupt("first")
        target.interrupt("second")

    proc = env.process(sleeper())
    env.process(interrupter(proc))
    env.run()
    assert out == [("slept", 5.0)]


def test_zero_delay_timeout(env):
    def proc():
        yield env.timeout(0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0


@pytest.mark.parametrize("priority", [-1, 2, 5])
def test_unknown_priority_rejected(env, priority):
    """Only URGENT and NORMAL exist: an URGENT event must fire at the
    current time, and a third level would fit neither queue."""
    from repro.sim import SimulationError
    event = env.event()
    with pytest.raises(SimulationError, match="priority"):
        event.succeed(priority=priority)
    with pytest.raises(SimulationError, match="priority"):
        event.fail(RuntimeError("x"), priority=priority)
    assert not event.triggered
    assert env.peek() == float("inf")
    event.succeed("late")  # still usable once given a real priority
    env.run()
    assert event.processed and event.value == "late"
