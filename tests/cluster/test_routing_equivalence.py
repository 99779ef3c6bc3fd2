"""Memoized routing ≡ a fresh policy; gateway membership tuples.

:class:`~repro.cluster.routing.SnapshotLocalityRouting` keeps its hash
ring while it is handed the same node tuple, and memoizes each
function's ring key.  Over any membership history its answer must be
the one a freshly built policy gives for the same nodes.  The gateway
rebuilds its routable tuple on every membership or state change and
never mutates a tuple it handed out.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.gateway import (BOOTING, CRASHED, DRAINING, RETIRED, UP,
                                   Gateway)
from repro.cluster.routing import SnapshotLocalityRouting
from repro.sim import Environment

FUNCTIONS = [f"fn{i:03d}" for i in range(12)]


class FakeNode:
    def __init__(self, node_id: int, rng: random.Random):
        self.node_id = node_id
        self.inflight = 0
        self._residency = {fn: rng.randrange(4) for fn in FUNCTIONS}

    def snapshot_residency(self, function: str) -> int:
        return self._residency[function]


membership_ops = st.lists(
    st.tuples(st.sampled_from(["add", "drain", "crash", "retire", "re-add",
                               "same-members", "same-tuple", "list",
                               "list-mutated"]),
              st.integers(0, 2**16)),
    min_size=1, max_size=40)


@settings(max_examples=120, deadline=None)
@given(ops=membership_ops, overflow=st.integers(1, 4),
       seed=st.integers(0, 2**16))
def test_memoized_choice_matches_fresh_policy(ops, overflow, seed):
    rng = random.Random(seed)
    pool: dict[int, FakeNode] = {}  # every node ever built, by id
    members: list[int] = []
    policy = SnapshotLocalityRouting(overflow_inflight=overflow)
    nodes: tuple | list = ()
    for op, arg in ops:
        if op == "add" or not members:
            node_id = len(pool)
            pool[node_id] = FakeNode(node_id, rng)
            members.append(node_id)
        elif op in ("drain", "crash", "retire"):
            members.remove(members[arg % len(members)])
        elif op == "re-add":
            gone = sorted(set(pool) - set(members))
            if gone:
                members.append(gone[arg % len(gone)])
        if not members:
            continue
        if op == "same-tuple" and isinstance(nodes, tuple) and nodes:
            pass  # hand the policy the very same tuple object again
        elif op == "list-mutated" and isinstance(nodes, list):
            # The same list object, changed in place.
            nodes[:] = [pool[i] for i in sorted(members)]
        elif op in ("list", "list-mutated"):
            nodes = [pool[i] for i in sorted(members)]
        else:
            # "same-members" included: a new tuple with the same nodes.
            nodes = tuple(pool[i] for i in sorted(members))
        for node in nodes:
            node.inflight = rng.randrange(overflow + 2)
        for function in rng.sample(FUNCTIONS, 4):
            fresh = SnapshotLocalityRouting(overflow_inflight=overflow)
            assert policy.home(function, nodes) is fresh.home(function,
                                                              nodes)
            assert policy.choose(function, nodes) is fresh.choose(function,
                                                                  nodes)


class StubNode:
    """The FaaSNode surface the gateway touches outside a request."""

    def snapshot_residency(self, function: str) -> int:
        return 0

    def shutdown(self) -> int:
        return 0


gateway_ops = st.lists(
    st.tuples(st.sampled_from(["add-up", "add-booting", "mark", "drain",
                               "crash", "retire"]),
              st.integers(0, 2**16),
              st.sampled_from([BOOTING, UP, DRAINING, CRASHED, RETIRED])),
    min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(ops=gateway_ops)
def test_routable_tuple_tracks_every_change(ops):
    env = Environment()
    gateway = Gateway(env, SnapshotLocalityRouting())
    handed_out: list[tuple[tuple, list]] = []
    assert gateway.routable_nodes() == ()
    for op, arg, state in ops:
        nodes = list(gateway.nodes.values())
        if op.startswith("add") or not nodes:
            gateway.add_node(StubNode(),
                             state=UP if op == "add-up" else BOOTING)
        else:
            cnode = nodes[arg % len(nodes)]
            if op == "mark":
                gateway.mark(cnode, state)
            else:
                getattr(gateway, op)(cnode)
        routable = gateway.routable_nodes()
        assert type(routable) is tuple
        assert routable == tuple(n for n in gateway.nodes.values()
                                 if n.state == UP)
        assert routable is gateway.routable_nodes()  # no rebuild per call
        assert gateway.node_timeline[-1] == (env.now, float(len(routable)))
        handed_out.append((routable, list(routable)))
        for earlier, contents in handed_out:
            assert list(earlier) == contents


def test_gateway_routes_like_a_fresh_policy():
    env = Environment()
    gateway = Gateway(env, SnapshotLocalityRouting(overflow_inflight=2))
    cnodes = [gateway.add_node(StubNode()) for _ in range(5)]
    rng = random.Random(3)
    for step in range(60):
        if step % 7 == 3:
            gateway.drain(cnodes[rng.randrange(len(cnodes))])
        if step % 11 == 5:
            cnodes.append(gateway.add_node(StubNode()))
        for cnode in cnodes:
            cnode.inflight = rng.randrange(4)
        routable = gateway.routable_nodes()
        if not routable:
            continue
        function = rng.choice(FUNCTIONS)
        fresh = SnapshotLocalityRouting(overflow_inflight=2)
        expected = fresh.choose(function, list(routable))
        assert gateway.route(function) is expected
