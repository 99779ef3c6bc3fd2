"""Resource (counted slots + priorities) and Store semantics."""

import pytest

from repro.sim import Resource, SimulationError, Store


def test_capacity_must_be_positive(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_immediate_grant_under_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2 = res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert res.count == 2


def test_free_slot_granted_urgently(env):
    """An immediate grant fires before same-time NORMAL events that
    were scheduled earlier, like any URGENT event."""
    order = []
    env.timeout(0).callbacks.append(lambda e: order.append("timeout"))
    Resource(env).request().callbacks.append(lambda e: order.append("grant"))
    env.run()
    assert order == ["grant", "timeout"]


def test_queueing_over_capacity(env):
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert r1.triggered and not r2.triggered
    assert res.queue_length == 1
    res.release(r1)
    assert r2.triggered
    assert res.count == 1


def test_release_without_hold_rejected(env):
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    with pytest.raises(SimulationError):
        res.release(r2)
    res.release(r1)


def test_fifo_within_priority(env):
    res = Resource(env, capacity=1)
    first = res.request()
    order = []
    for tag in ("a", "b", "c"):
        req = res.request()
        req.callbacks.append(lambda e, t=tag: order.append(t))
    res.release(first)
    held = [r for r in res._users]
    while held:
        res.release(held.pop())
        held = [r for r in res._users]
        env.run()
    assert order == ["a", "b", "c"]


def test_priority_overtakes_fifo(env):
    res = Resource(env, capacity=1)
    first = res.request()
    order = []
    low = res.request(priority=10)
    low.callbacks.append(lambda e: order.append("low"))
    high = res.request(priority=0)
    high.callbacks.append(lambda e: order.append("high"))
    res.release(first)
    env.run()
    res.release(high)
    env.run()
    assert order == ["high", "low"]


def test_cancel_removes_waiter(env):
    res = Resource(env, capacity=1)
    first = res.request()
    waiting = res.request()
    waiting.cancel()
    assert res.queue_length == 0
    res.release(first)
    assert res.count == 0


def test_cancel_middle_waiter_keeps_grant_order(env):
    """Cancelling one queued waiter leaves the others granted in
    (priority, request order), and the cancelled one never fires."""
    res = Resource(env, capacity=1)
    holder = res.request()
    waiters = {}
    order = []
    for tag, priority in (("a", 5), ("b", 0), ("c", 5), ("d", 0),
                          ("e", 10)):
        req = waiters[tag] = res.request(priority=priority)
        req.callbacks.append(lambda e, t=tag: order.append(t))
    waiters["c"].cancel()
    assert res.queue_length == 4
    res.release(holder)
    env.run()
    while res.count:
        res.release(waiters[order[-1]])
        env.run()
    assert order == ["b", "d", "a", "e"]
    assert not waiters["c"].triggered
    assert res.queue_length == 0


def test_resource_in_process_usage(env):
    res = Resource(env, capacity=2)
    active = [0]
    peaks = [0]

    def worker():
        req = res.request()
        yield req
        active[0] += 1
        peaks[0] = max(peaks[0], active[0])
        yield env.timeout(1)
        active[0] -= 1
        res.release(req)

    for _ in range(6):
        env.process(worker())
    env.run()
    assert peaks[0] == 2
    assert env.now == 3  # 6 workers, 2 at a time, 1s each


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("x")
        def proc():
            item = yield store.get()
            return item
        p = env.process(proc())
        env.run()
        assert p.value == "x"

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        def getter():
            item = yield store.get()
            return (item, env.now)
        p = env.process(getter())
        def putter():
            yield env.timeout(5)
            store.put("late")
        env.process(putter())
        env.run()
        assert p.value == ("late", 5)

    def test_fifo_order(self, env):
        store = Store(env)
        for i in range(3):
            store.put(i)
        got = []
        def proc():
            for _ in range(3):
                got.append((yield store.get()))
        env.process(proc())
        env.run()
        assert got == [0, 1, 2]

    def test_len(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2
