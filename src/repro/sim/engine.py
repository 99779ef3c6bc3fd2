"""Core discrete-event simulation kernel.

The engine follows the classic event-heap design: :class:`Environment`
keeps a priority queue of ``(time, priority, seq, event)`` tuples and pops
them in order, advancing the simulated clock.  Processes are Python
generators driven by :class:`Process`; each ``yield`` hands back an
:class:`Event` whose firing resumes the generator.
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable

#: Event priorities.  URGENT events scheduled at the same timestamp fire
#: before NORMAL ones; used so that e.g. process resumption after a
#: resource release happens before same-time timeouts.
URGENT = 0
NORMAL = 1


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value given to ``interrupt()``.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


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
        heappush(env._heap, (env._now, priority, seq, self))
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
        heappush(env._heap, (env._now, priority, seq, self))
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
        heappush(env._heap, (env._now + delay, NORMAL, seq, self))


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
        self._started_at = env._now
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
            immediate = Event(env)
            immediate._defused = True  # this process observes the outcome
            immediate.callbacks.append(self._resume)
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
                            end=env._now, track="process", ok=ok)


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
        self._now = float(initial_time)
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
    def now(self) -> float:
        """Current simulated time (seconds by convention in repro)."""
        return self._now

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
        self._now, _prio, _seq, event = heappop(self._heap)
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An unhandled failure (nothing waited on the event) is an
            # error: errors should never pass silently.
            raise event._value
        if self.telemetry is not None:
            self.telemetry.on_sim_event(self._now)

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
            self._now = max(self._now, limit)
        return None
