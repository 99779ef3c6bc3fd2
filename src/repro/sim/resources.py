"""Shared-resource primitives for the DES engine.

:class:`Resource` models a fixed number of service slots (e.g. an SSD's
NCQ depth, a core count); processes yield a :class:`Request` to acquire a
slot and call :meth:`Resource.release` when done.  :class:`Store` is an
unbounded FIFO of items with blocking ``get`` — used for request queues
between producer and consumer processes (e.g. the userfaultfd message
queue between the faulting vCPU and the userspace handler).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any

from repro.sim.engine import URGENT, Environment, Event, SimulationError


class Request(Event):
    """Pending acquisition of one slot of a :class:`Resource`."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        # Event.__init__, inlined: one request per device stage.
        self.env = resource.env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._defused = False
        self.resource = resource
        self.priority = priority

    def cancel(self) -> None:
        """Withdraw an un-granted request from the wait queue."""
        if not self._triggered:
            self.resource._remove_waiter(self)


class Resource:
    """A counted resource with priority + FIFO granting.

    Lower ``priority`` values are granted first; ties go in request
    order.  The default priority 0 with no other levels degenerates to
    plain FIFO.  Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release(req)

    The block-device layer uses two levels: synchronous (fault-path)
    reads overtake queued readahead/prefetch I/O, as the Linux block
    layer deprioritizes REQ_RAHEAD requests.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._heap: list[tuple[int, int, Request]] = []
        self._seq = 0
        self._users: set[Request] = set()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._heap)

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        if len(self._users) < self.capacity:
            self._users.add(req)
            # succeed(priority=URGENT), inlined: a free slot is the
            # common case on the block-request path.
            req._triggered = True
            env = self.env
            env._seq = seq = env._seq + 1
            heapq.heappush(env._heap, (env._now, URGENT, seq, req))
        else:
            self._seq += 1
            heapq.heappush(self._heap, (priority, self._seq, req))
        return req

    def release(self, request: Request) -> None:
        if request not in self._users:
            raise SimulationError("releasing a request that does not hold a slot")
        self._users.remove(request)
        while self._heap and len(self._users) < self.capacity:
            _prio, _seq, nxt = heapq.heappop(self._heap)
            self._users.add(nxt)
            nxt.succeed(priority=URGENT)

    def _remove_waiter(self, request: Request) -> None:
        # Eager removal, so every heap entry is a live waiter and
        # release() grants whatever it pops.
        for i, (_p, _s, req) in enumerate(self._heap):
            if req is request:
                del self._heap[i]
                heapq.heapify(self._heap)
                return


class Store:
    """Unbounded FIFO store with blocking ``get``.

    ``put`` never blocks; ``get`` returns an event that fires with the next
    item (immediately if one is buffered).
    """

    def __init__(self, env: Environment):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(event)
        return event
