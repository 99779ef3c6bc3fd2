"""URGENT lane + NORMAL heap ≡ the one-heap reference scheduler.

:class:`~repro.sim.engine.Environment` pops URGENT events from a FIFO
lane before its heap of NORMAL events.  The contract is the old
``(time, priority, seq)`` order exactly: this fuzz runs the same random
program on the engine and on the heap-only reference
(``reference_engine.py``) and requires every logged callback and
process step, ``(label, now)`` in order, the events processed and the
final clock to match.

A program is a few processes, each a list of operations: timeouts from
a small delay set (0 and repeats included, so events tie), shared
events succeeded or failed at URGENT and NORMAL (and waited on before
and after they fire), resources of capacity 1-3 requested at two
priorities with cancellation by timeout, store puts and gets, child
processes, interrupts and ``all_of``/``any_of``.  It runs in
``run(until=t)`` checkpoints before, at and after event times, with a
shared event triggered from outside the run at each checkpoint.
"""

from __future__ import annotations

import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
import repro.sim.resources as resources
from repro.sim.engine import NORMAL, URGENT, Interrupt, SimulationError
from tests.sim import reference_engine

LANE = types.SimpleNamespace(Environment=engine.Environment,
                             Resource=resources.Resource,
                             Store=resources.Store)
HEAP = types.SimpleNamespace(Environment=reference_engine.Environment,
                             Resource=reference_engine.Resource,
                             Store=reference_engine.Store)

N_SHARED = 3
N_RESOURCES = 2
N_STORES = 2
N_PROCS = 4

delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
priorities = st.sampled_from([URGENT, NORMAL])
shared = st.integers(0, N_SHARED - 1)


def operations(depth: int):
    ops = [
        st.tuples(st.just("timeout"), delays),
        st.tuples(st.just("wait"), shared),
        st.tuples(st.just("trigger"), shared, st.booleans(), priorities),
        st.tuples(st.just("acquire"), st.integers(0, N_RESOURCES - 1),
                  st.integers(0, 1), delays,
                  st.one_of(st.none(), delays)),
        st.tuples(st.just("put"), st.integers(0, N_STORES - 1)),
        st.tuples(st.just("get"), st.integers(0, N_STORES - 1)),
        st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
        st.tuples(st.sampled_from(["all_of", "any_of"]),
                  st.lists(st.one_of(delays.map(lambda d: ("t", d)),
                                     shared.map(lambda k: ("e", k))),
                           max_size=3)),
    ]
    if depth:
        ops.append(st.tuples(st.just("child"), st.booleans(),
                             st.lists(operations(depth - 1), max_size=4)))
    return st.one_of(ops)


programs = st.fixed_dictionaries({
    "capacities": st.lists(st.integers(1, 3), min_size=N_RESOURCES,
                           max_size=N_RESOURCES),
    "procs": st.lists(st.tuples(delays, st.lists(operations(1),
                                                 max_size=7)),
                      min_size=1, max_size=N_PROCS),
    # run(until=t) checkpoints, each followed by an outside trigger;
    # unsorted, so some lie before the clock.
    "checkpoints": st.lists(
        st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5,
                                   5.0]),
                  shared, st.booleans(), priorities),
        max_size=4),
})


class Boom(Exception):
    """The exception shared events fail with."""


def simulate(ns, program) -> dict:
    """Run ``program`` on the engine in ``ns``; everything observable."""
    env = ns.Environment()
    log: list[tuple] = []
    events = [env.event() for _ in range(N_SHARED)]
    for k, event in enumerate(events):
        event.callbacks.append(
            lambda ev, k=k: log.append((f"shared{k}", ev.ok, env.now)))
    res = [ns.Resource(env, capacity=c) for c in program["capacities"]]
    stores = [ns.Store(env) for _ in range(N_STORES)]
    procs: list = []
    puts = [0]

    def trigger(k: int, ok: bool, prio: int, who: str) -> None:
        event = events[k]
        if event.triggered:
            return
        log.append((f"{who} triggers shared{k}", ok, prio, env.now))
        if ok:
            event.succeed(k, priority=prio)
        else:
            event.fail(Boom(k), priority=prio)

    def run_ops(name: str, ops):
        for i, op in enumerate(ops):
            label = f"{name}.{i}:{op[0]}"
            try:
                yield from run_op(label, op)
            except Interrupt as interrupt:
                log.append((label, "interrupted", interrupt.cause, env.now))
            except Boom as exc:
                log.append((label, "boom", exc.args, env.now))

    def run_op(label: str, op):
        kind = op[0]
        if kind == "timeout":
            value = yield env.timeout(op[1], value=label)
            log.append((label, value, env.now))
        elif kind == "wait":
            value = yield events[op[1]]
            log.append((label, value, env.now))
        elif kind == "trigger":
            trigger(op[1], op[2], op[3], label)
        elif kind == "acquire":
            _, r, prio, hold, patience = op
            req = res[r].request(priority=prio)
            try:
                if patience is None:
                    yield req
                else:
                    yield env.any_of([req, env.timeout(patience)])
            except Interrupt:
                if req.triggered:
                    res[r].release(req)
                else:
                    req.cancel()
                raise
            if not req.triggered:
                req.cancel()
                log.append((label, "gave up", env.now))
                return
            log.append((label, "granted", env.now))
            try:
                yield env.timeout(hold)
            finally:
                res[r].release(req)
                log.append((label, "released", env.now))
        elif kind == "put":
            puts[0] += 1
            stores[op[1]].put(f"{label}#{puts[0]}")
        elif kind == "get":
            item = yield stores[op[1]].get()
            log.append((label, item, env.now))
        elif kind == "interrupt":
            if op[1] < len(procs) and procs[op[1]].is_alive \
                    and procs[op[1]] is not env.active_process:
                procs[op[1]].interrupt(label)
        elif kind in ("all_of", "any_of"):
            parts = [env.timeout(x, value=(label, j)) if tag == "t"
                     else events[x] for j, (tag, x) in enumerate(op[1])]
            condition = (env.all_of if kind == "all_of"
                         else env.any_of)(parts)
            value = yield condition
            log.append((label, sorted(map(repr, value.values())), env.now))
        elif kind == "child":
            _, wait, child_ops = op
            child = env.process(run_ops(f"{label}/child", child_ops),
                                name=f"{label}/child")
            child.callbacks.append(
                lambda ev: log.append((f"{label}/child done", ev.ok,
                                       env.now)))
            if wait:
                yield child
                log.append((label, "joined", env.now))

    def proc(name: str, delay: float, ops):
        try:
            yield env.timeout(delay)
        except Interrupt as interrupt:
            log.append((name, "interrupted", interrupt.cause, env.now))
        log.append((name, "start", env.now))
        yield from run_ops(name, ops)
        log.append((name, "end", env.now))
        return name

    def guarded_run(until=None) -> None:
        # Failures nobody waits on surface from run(); log and go on.
        while True:
            try:
                env.run(until)
                return
            except (Boom, SimulationError) as exc:
                log.append(("run raised", type(exc).__name__, env.now))
                if isinstance(exc, SimulationError):
                    return

    for p, (delay, ops) in enumerate(program["procs"]):
        procs.append(env.process(proc(f"p{p}", delay, ops), name=f"p{p}"))
    for until, k, ok, prio in program["checkpoints"]:
        guarded_run(until)
        log.append(("checkpoint", until, env.now, env.peek()))
        trigger(k, ok, prio, "outside")
    # run(until=event) on the first process, then drain.
    try:
        env.run(procs[0])
    except (Boom, SimulationError) as exc:
        log.append(("run(until=p0) raised", type(exc).__name__, env.now))
    guarded_run()
    return {"log": log, "events": env.events_processed, "now": env.now,
            "peek": env.peek()}


#: p1 interrupts p0 twice in one step.  p0 handles the first interrupt
#: and yields an already-fired event; the second interrupt must cancel
#: that pending re-delivery, or it resumes p0's next timeout early.
TWICE_INTERRUPTED = {
    "capacities": [1, 1],
    "procs": [
        (0.0, [("trigger", 0, True, URGENT), ("timeout", 1.0),
               ("wait", 0), ("timeout", 2.5)]),
        (0.5, [("interrupt", 0), ("interrupt", 0)]),
    ],
    "checkpoints": [],
}


@settings(max_examples=300, deadline=None)
@given(program=programs)
@example(program=TWICE_INTERRUPTED)
def test_lane_engine_matches_heap_reference(program):
    assert simulate(LANE, program) == simulate(HEAP, program)


def test_urgent_ties_pop_fifo_before_same_time_normal():
    """The ordering the lane exists for, spelled out on both engines."""
    for ns in (LANE, HEAP):
        env = ns.Environment()
        order = []
        env.timeout(0).callbacks.append(lambda e: order.append("normal"))
        for name in ("u1", "u2", "u3"):
            event = env.event()
            event.callbacks.append(lambda e, n=name: order.append(n))
            event.succeed(priority=URGENT)
        env.run()
        assert order == ["u1", "u2", "u3", "normal"]
