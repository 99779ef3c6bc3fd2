"""The warm pool both node models share, on a pool of named sandboxes:
take order, per-park reaping, pre-warm, and shutdown."""

import pytest

from repro.cluster.keepalive import FixedTTLPolicy, KeepAlivePolicy, WarmPool
from repro.sim import Environment


class Pool(WarmPool):
    """Spawns a pre-warm in 0.1 s and records every teardown."""

    def __init__(self, keepalive, take_newest=True, functions=()):
        super().__init__(Environment(), keepalive, functions)
        self.take_newest = take_newest
        self.torn_down: list[tuple[float, str]] = []

    def _spawn_prewarmed(self, function):
        yield self.env.timeout(0.1)
        return f"{function}-prewarm"

    def _teardown(self, sandbox):
        self.torn_down.append((self.env.now, sandbox))


class PrewarmOnce(KeepAlivePolicy):
    """Parks for 1 s; the first reap pre-warms 0.5 s later."""

    fired = False

    def ttl(self, function):
        return 1.0

    def prewarm_at(self, function, now):
        if self.fired:
            return None
        self.fired = True
        return now + 0.5


def at(pool, when, action):
    """Run ``action()`` as a process at sim-time ``when``."""
    def body():
        yield pool.env.timeout(when - pool.env.now)
        action()
    pool.env.process(body())


@pytest.mark.parametrize("take_newest, first", [(True, "c"), (False, "a")])
def test_take_order_is_the_models_setting(take_newest, first):
    pool = Pool(FixedTTLPolicy(1.0), take_newest=take_newest)
    for sandbox in "abc":
        pool.park("f", sandbox)
    assert pool.take("f") == first
    assert pool.pooled_sandboxes("f") == 2
    assert pool.take("g") is None


def test_policy_without_ttl_tears_down_at_once():
    pool = Pool(FixedTTLPolicy(None))
    pool.park("f", "a")
    assert pool.torn_down == [(0.0, "a")]
    assert pool.pooled_sandboxes("f") == 0


def test_reaper_tears_down_only_its_own_park():
    pool = Pool(FixedTTLPolicy(1.0))
    pool.park("f", "a")
    # Taken and re-parked at 0.5: the first park's reaper, firing at
    # 1.0, must leave the re-parked sandbox for the second one at 1.5.
    at(pool, 0.5, lambda: pool.park("f", pool.take("f")))
    pool.env.run()
    assert pool.torn_down == [(1.5, "a")]


def test_reap_prewarms_and_parks_the_new_sandbox():
    policy = PrewarmOnce()
    pool = Pool(policy)
    pool.park("f", "a")
    pool.env.run(until=1.2)
    assert pool.torn_down == [(1.0, "a")]
    assert policy.pending_prewarms == 1
    pool.env.run()
    # Spawned at 1.5 + 0.1, parked for 1 s, reaped; no second pre-warm.
    assert pool.torn_down == [(1.0, "a"), (2.6, "f-prewarm")]
    assert policy.pending_prewarms == 0


def test_close_pool_tears_down_in_function_then_park_order():
    pool = Pool(FixedTTLPolicy(1.0), functions=("g", "f"))
    for function, sandbox in (("f", "f1"), ("g", "g1"), ("f", "f2")):
        pool.park(function, sandbox)
    pool.close_pool()
    assert pool.torn_down == [(0.0, "g1"), (0.0, "f1"), (0.0, "f2")]
    # A request still in flight parks as usual; its reaper tears it down.
    pool.park("f", "late")
    pool.env.run()
    assert pool.torn_down[3:] == [(1.0, "late")]
