"""Request workloads for the node simulation, and their eager driver.

:func:`poisson_arrivals` samples a function mix into a list of
:class:`Arrival` records; :func:`start_arrivals` turns such a list into
request processes.  Both page-level request paths, ``FaaSNode.run``
(one host) and ``run_cluster`` (a fleet behind a gateway), start their
arrivals through it, so they schedule requests identically.  The
traffic plane streams its invocations lazily instead (``run_traffic``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.profile import FunctionProfile
from repro.workloads.trace import ConstantRate


@dataclass(frozen=True)
class Arrival:
    """One incoming invocation request."""

    time: float
    function: str
    input_seed: int


def poisson_arrivals(mix: list[tuple[FunctionProfile, float]],
                     duration: float, seed: int = 0,
                     vary_inputs: bool = False) -> list[Arrival]:
    """Poisson arrivals for a function mix.

    ``mix`` maps each function to its arrival rate (requests/second).
    With ``vary_inputs`` each request carries a distinct input seed
    (exercising the input-dependent working-set fraction); otherwise all
    requests use input 0, the paper's identical-inputs setup.

    Sampling goes through the shared :class:`~repro.workloads.trace.
    ArrivalProcess` path (a :class:`ConstantRate` per mix entry over one
    seeded RNG), which for a constant rate consumes exactly one
    expovariate per point — seeded sequences are byte-identical to the
    historic single-rate generator.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not mix:
        raise ValueError("mix must name at least one function")
    rng = random.Random(seed)
    arrivals: list[Arrival] = []
    for profile, rate in mix:
        if rate <= 0:
            raise ValueError(f"{profile.name}: rate must be positive")
        process = ConstantRate(rate)
        for index, t in enumerate(process.sample(rng, duration)):
            arrivals.append(Arrival(
                time=t, function=profile.name,
                input_seed=index if vary_inputs else 0))
    arrivals.sort(key=lambda a: (a.time, a.function))
    return arrivals


def start_arrivals(env, arrivals, serve, base: float) -> list:
    """Start every request up front: one process per arrival, named
    ``req-{i}``, that waits until ``base + arrival.time`` and returns
    what the generator ``serve(arrival)`` returns (a node's ``handle``
    or a gateway's ``submit``).  Returns the processes in arrival
    order."""

    def request(arrival):
        yield env.timeout(max(0.0, base + arrival.time - env.now))
        return (yield from serve(arrival))

    return [env.process(request(a), name=f"req-{i}")
            for i, a in enumerate(arrivals)]
