"""The heap-only DES scheduler, kept as a test-only reference.

:class:`~repro.sim.engine.Environment` used to keep every event, URGENT
or NORMAL, in one heap of ``(time, priority, seq, event)`` tuples.  It
now keeps NORMAL events in a heap of ``(time, seq, event)`` and URGENT
events in a FIFO lane that pops first.  This module keeps the one-heap
scheduler, with the :class:`Resource` whose inline grant pushes onto
that heap and the :class:`Store` built on its events, so
``test_engine_equivalence.py`` can run the same program on both engines
and require the same callbacks at the same times, in the same order.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable

from repro.sim.engine import NORMAL, URGENT, Interrupt, SimulationError


class Event:
    """A condition that fires exactly once at some simulated time.

    Processes wait on events by yielding them.  An event carries a
    ``value`` (delivered as the result of the yield) and may instead fail
    with an exception, which is re-raised inside every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered",
                 "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Waiters to call when the event fires; None once it has fired.
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        # A failed event whose failure someone will observe (a waiting
        # process or condition) is "defused": the engine must not treat
        # it as an unhandled error.
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (vs. failed with an exception)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire successfully with ``value``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        # Scheduling, inlined here, in fail() and in Timeout: it runs
        # once per event.
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env.now, priority, seq, self))
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire by raising ``exc`` in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._ok = False
        self._value = exc
        env = self.env
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env.now, priority, seq, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Event.__init__ plus succeed(), inlined: the most common event.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._defused = False
        self.delay = delay
        env._seq = seq = env._seq + 1
        heappush(env._heap, (env.now + delay, NORMAL, seq, self))


class Process(Event):
    """Wraps a generator and drives it by subscribing to yielded events.

    A ``Process`` is itself an :class:`Event` that fires when the generator
    returns (with the return value) or raises (failing the event), so
    processes can wait on each other by yielding them.
    """

    __slots__ = ("generator", "_target", "name", "_started_at")

    def __init__(self, env: "Environment", generator: Generator,
                 name: str | None = None):
        if not hasattr(generator, "send"):
            raise SimulationError(f"process needs a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        self._started_at = env.now
        # Kick off at current time.
        init = Event(env)
        init.callbacks.append(self._resume)
        init.succeed(priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError("cannot interrupt a finished process")
        # A failed event, so that _resume throws the Interrupt in.
        event = Event(self.env)
        event._defused = True
        event.callbacks.append(self._resume_interrupt)
        event.fail(Interrupt(cause), priority=URGENT)

    # -- internal ---------------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:
            return  # process finished before the interrupt was delivered
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        """Send ``event``'s value into the generator (or throw its
        exception), then wait on the event the generator yields next."""
        self._target = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self._trace_lifetime(env, ok=True)
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            env._active_process = None
            self._trace_lifetime(env, ok=False)
            self.fail(exc, priority=URGENT)
            return
        env._active_process = None

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {target!r}")
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current time.
            # The re-delivery is the target, so an interrupt or abandon
            # that comes first cancels it.
            immediate = Event(env)
            immediate._defused = True  # this process observes the outcome
            immediate.callbacks.append(self._resume)
            self._target = immediate
            if target._ok:
                immediate.succeed(target._value, priority=URGENT)
            else:
                immediate.fail(target._value, priority=URGENT)
        else:
            self._target = target
            target._defused = True  # this process will observe a failure
            callbacks.append(self._resume)

    def _trace_lifetime(self, env: "Environment", ok: bool) -> None:
        tracer = env.tracer
        if tracer is not None and tracer.enabled:
            tracer.complete(self.name, "process", self._started_at,
                            end=env.now, track="process", ok=ok)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.callbacks is None:
                self._check(event)
            else:
                event._defused = True  # failures surface via the condition
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired; value maps event->value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._count += 1
        if self._count == len(self.events):
            self.succeed({e: e._value for e in self.events})


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self.succeed({event: event._value})


class Environment:
    """Simulation environment: clock, event heap, process factory."""

    def __init__(self, initial_time: float = 0.0):
        #: Current simulated time (seconds by convention in repro).  A
        #: plain attribute, read on every fault and every event; only
        #: the engine writes it (here, in :meth:`step` and in
        #: :meth:`run`'s final clamp).
        self.now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Process | None = None
        #: Trace plane hook (duck-typed; see repro.trace).  When set and
        #: enabled, every completed process emits a lifetime span.  The
        #: engine never imports the trace package — same layering as the
        #: fault plane's injector attributes.
        self.tracer = None
        #: Serve plane hook (duck-typed; see repro.serve.hub).  When set,
        #: every processed event offers the hub a chance to publish a
        #: snapshot (self-throttled by sim time).  Observation-only: the
        #: default None costs one attribute check per event and the
        #: engine never imports the serve package.
        self.telemetry = None
        #: Total events processed since construction.  Observation-only
        #: (never consulted by the engine); the repo benchmark
        #: (perfbench/) divides it by wall time for its events/sec.
        self.events_processed = 0

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling -----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        self.now, _prio, _seq, event = heappop(self._heap)
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure (nothing waited on the event) is an
            # error: errors should never pass silently.
            raise event._value
        if self.telemetry is not None:
            self.telemetry.on_sim_event(self.now)

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap drains, ``until`` time passes, or event fires."""
        heap, step = self._heap, self.step
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:
                if not heap:
                    raise SimulationError(
                        "simulation starved before awaited event fired")
                step()
            if not stop._ok:
                raise stop._value
            return stop._value
        limit = float("inf") if until is None else float(until)
        while heap and heap[0][0] <= limit:
            step()
        if until is not None:
            self.now = max(self.now, limit)
        return None


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
            heapq.heappush(env._heap, (env.now, URGENT, seq, req))
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
