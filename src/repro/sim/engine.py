"""Core discrete-event simulation kernel.

Events fire in ``(time, priority, seq)`` order, advancing the simulated
clock.  :class:`Environment` keeps two queues for that order: a heap of
``(time, seq, event)`` tuples for NORMAL events, and a FIFO lane for
URGENT ones.  Every URGENT event is scheduled at the current time (a
trigger, a resource grant, a process start or end, an interrupt), and
no heap entry is ever earlier than the current time, so an URGENT event
sorts before every heap entry and after every URGENT event scheduled
before it: the lane pops first, oldest first.  Processes are Python
generators driven by :class:`Process`; each ``yield`` hands back an
:class:`Event` whose firing resumes the generator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Iterable
from heapq import heappop, heappush
from typing import Any, Callable

#: Event priorities.  URGENT events scheduled at the same timestamp fire
#: before NORMAL ones; used so that e.g. process resumption after a
#: resource release happens before same-time timeouts.  URGENT events
#: are only ever scheduled at the current time.
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
        # Scheduling, inlined here, in fail() and in Timeout: it runs
        # once per event.
        env = self.env
        if priority == URGENT:
            env._urgent.append(self)
        elif priority == NORMAL:
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env.now, seq, self))
        else:
            raise SimulationError(f"unknown event priority {priority!r}")
        self._triggered = True
        self._ok = True
        self._value = value
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Schedule this event to fire by raising ``exc`` in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        env = self.env
        if priority == URGENT:
            env._urgent.append(self)
        elif priority == NORMAL:
            env._seq = seq = env._seq + 1
            heappush(env._heap, (env.now, seq, self))
        else:
            raise SimulationError(f"unknown event priority {priority!r}")
        self._triggered = True
        self._ok = False
        self._value = exc
        return self

    def abandon(self) -> None:
        """Drop the waiters of an event that will never fire (see
        :meth:`Environment.close`)."""
        if self.callbacks:
            self.callbacks.clear()

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
        heappush(env._heap, (env.now + delay, seq, self))


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
        env._processes[self] = None
        # Kick off at current time: an URGENT start event, built and
        # scheduled inline like a Timeout.
        init = Event.__new__(Event)
        init.env = env
        init.callbacks = [self._resume]
        init._value = None
        init._ok = True
        init._triggered = True
        init._defused = False
        env._urgent.append(init)

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

    def abandon(self) -> None:
        """Stop an unfinished process for good: it leaves the event it
        waits on, its generator is closed (running its ``finally``
        blocks) and its own waiters are dropped."""
        self._leave_target()
        super().abandon()
        self.generator.close()

    # -- internal ---------------------------------------------------------
    def _leave_target(self) -> None:
        target, self._target = self._target, None
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume_interrupt(self, event: Event) -> None:
        if self._triggered:
            return  # process finished before the interrupt was delivered
        self._leave_target()
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
                # Handled: drop the traceback gathered on the way in.
                # Its frames hold this process, and the event that
                # failed holds the exception: a reference cycle.
                event._value.__traceback__ = None
        except StopIteration as stop:
            env._active_process = None
            del env._processes[self]
            tracer = env.tracer
            if tracer is not None and tracer.enabled:
                self._trace_lifetime(tracer, ok=True)
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            env._active_process = None
            del env._processes[self]
            tracer = env.tracer
            if tracer is not None and tracer.enabled:
                self._trace_lifetime(tracer, ok=False)
            if isinstance(exc, OSError):
                # A simulated I/O error is an outcome, not a bug: keep
                # it without the traceback, whose frames hold this
                # process (and the stack that ran it) in a cycle.
                exc.__traceback__ = None
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

    def _trace_lifetime(self, tracer, ok: bool) -> None:
        tracer.complete(self.name, "process", self._started_at,
                        end=self.env.now, track="process", ok=ok)


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
    """Simulation environment: clock, event queues, process factory."""

    def __init__(self):
        #: Current simulated time (seconds by convention in repro).  A
        #: plain attribute, read on every fault and every event; only
        #: the engine writes it (here, in :meth:`step` and in
        #: :meth:`run`'s final clamp).
        self.now = 0.0
        #: NORMAL events as ``(time, seq, event)``; ``seq`` breaks ties
        #: in scheduling order.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: URGENT events, all at ``now``, in scheduling order.
        self._urgent: deque[Event] = deque()
        self._active_process: Process | None = None
        #: Started, unfinished processes, in start order (for close()).
        self._processes: dict[Process, None] = {}
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
        if self._urgent:
            return self.now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        if self._urgent:
            event = self._urgent.popleft()
        elif self._heap:
            self.now, _seq, event = heappop(self._heap)
        else:
            raise SimulationError("no scheduled events")
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

    def close(self) -> None:
        """End the simulation for good, with whatever is still in
        flight: abandon every unfinished process
        (:meth:`Process.abandon`) and every scheduled event, and empty
        the queues.

        A run that stopped at the event it awaited may leave work in
        flight and daemons parked, each tied to its events in a
        reference cycle; after ``close()`` reference counting frees the
        run instead of the cyclic garbage collector.  Nothing runs
        afterwards; idempotent."""
        while self._processes:  # a finally block may start another
            processes, self._processes = self._processes, {}
            for process in processes:
                process.abandon()
        for _time, _seq, event in self._heap:
            event.abandon()
        for event in self._urgent:
            event.abandon()
        self._heap.clear()
        self._urgent.clear()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queues drain, ``until`` time passes, or event fires."""
        heap, urgent, step = self._heap, self._urgent, self.step
        if isinstance(until, Event):
            stop = until
            while stop.callbacks is not None:
                if not urgent and not heap:
                    raise SimulationError(
                        "simulation starved before awaited event fired")
                step()
            if not stop._ok:
                raise stop._value
            return stop._value
        limit = float("inf") if until is None else float(until)
        # Lane events sit at ``now``, so they run exactly when now <= limit.
        while (self.now <= limit if urgent
               else heap and heap[0][0] <= limit):
            step()
        if until is not None:
            self.now = max(self.now, limit)
        return None
