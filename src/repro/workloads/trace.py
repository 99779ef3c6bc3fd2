"""Access traces: the unit of work a vCPU replays.

A trace is a list of four op kinds:

* :class:`TouchRun` — access ``count`` contiguous snapshot pages starting
  at ``start`` (guest-physical == snapshot page index), reading or
  writing, spending ``per_page_compute`` seconds of CPU between pages;
* :class:`Compute` — pure CPU time;
* :class:`Alloc` — allocate ``npages`` ephemeral pages from the guest
  buddy allocator and write-touch them;
* :class:`Free` — release a prior allocation (ephemeral memory is freed
  before the invocation ends, per §2.2).

Traces are generated deterministically from a profile + seed; the paper
invokes concurrent instances "with identical inputs", which here means
the same (profile, input_seed) and hence bit-identical traces.

This module also owns the :class:`ArrivalProcess` family — *when*
invocations happen, the temporal half of a trace-driven workload.  One
thinning-based sampler (`Lewis & Shedler`) serves both the constant-rate
process behind ``poisson_arrivals`` and the traffic plane's diurnal +
burst :class:`~repro.workloads.traffic.TrafficProcess`, so there is
exactly one tested generator code path.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TouchRun:
    start: int
    count: int
    write: bool
    per_page_compute: float


@dataclass(frozen=True)
class Compute:
    seconds: float


@dataclass(frozen=True)
class Alloc:
    tag: str
    npages: int
    per_page_compute: float


@dataclass(frozen=True)
class Free:
    tag: str


TraceOp = TouchRun | Compute | Alloc | Free


def working_set_pages(trace: list[TraceOp]) -> list[int]:
    """Snapshot page indices touched by the trace, in first-access order."""
    seen: set[int] = set()
    ordered: list[int] = []
    for op in trace:
        if isinstance(op, TouchRun):
            for page in range(op.start, op.start + op.count):
                if page not in seen:
                    seen.add(page)
                    ordered.append(page)
    return ordered


def trace_alloc_pages(trace: list[TraceOp]) -> int:
    return sum(op.npages for op in trace if isinstance(op, Alloc))


def trace_compute_seconds(trace: list[TraceOp]) -> float:
    total = 0.0
    for op in trace:
        if isinstance(op, Compute):
            total += op.seconds
        elif isinstance(op, TouchRun):
            total += op.count * op.per_page_compute
        elif isinstance(op, Alloc):
            total += op.npages * op.per_page_compute
    return total


def generate_trace(profile, input_seed: int = 0) -> list[TraceOp]:
    """Deterministically generate the invocation trace for a profile.

    The working set is laid out as contiguous runs (lognormal lengths
    around ``profile.run_len_mean``) scattered over the in-use region of
    the snapshot, then accessed in shuffled run order — spatial locality
    within runs, none across them, which is what makes offset *grouping*
    (SnapBPF) and region *coalescing* (FaaSnap) meaningful.
    """
    rng = random.Random((profile.seed << 16) ^ input_seed)
    ws_target = profile.ws_pages

    # -- sample working-set runs over the in-use spans ---------------------------
    # The bulk of a function's working set (code, models, runtime heap)
    # is the same for every input; only ``input_ws_frac`` of it depends
    # on the request.  The stable part is sampled with an input-
    # independent RNG so identical *functions* overlap across inputs.
    used_spans = profile.used_spans
    cum: list[int] = []
    total_used = 0
    for _start, length in used_spans:
        total_used += length
        cum.append(total_used)

    input_target = int(ws_target * profile.input_ws_frac)
    stable_target = ws_target - input_target
    stable_rng = random.Random((profile.seed << 16) ^ 0x57AB1E)

    runs: list[tuple[int, int]] = []
    taken: set[int] = set()
    total = 0
    for sampler, target in ((stable_rng, stable_target),
                            (rng, ws_target)):
        attempts = 0
        while total < target and attempts < 200_000:
            attempts += 1
            length = max(1, min(
                int(sampler.lognormvariate(profile.run_len_mu,
                                           profile.run_len_sigma)),
                256, target - total))
            pick = sampler.randrange(total_used)
            span_idx = bisect.bisect_right(cum, pick)
            span_start, span_len = used_spans[span_idx]
            offset = pick - (cum[span_idx] - span_len)
            start = span_start + offset
            length = min(length, span_len - offset)
            span = range(start, start + length)
            if any(page in taken for page in span):
                continue
            taken.update(span)
            runs.append((start, length))
            total += length
    if total < ws_target:
        raise RuntimeError(
            f"{profile.name}: could only place {total}/{ws_target} "
            f"working-set pages (memory too fragmented)")
    rng.shuffle(runs)

    # -- interleave compute, writes, allocations ---------------------------------
    touch_compute = profile.compute_seconds * profile.compute_overlap_frac
    block_compute = profile.compute_seconds - touch_compute
    alloc_pages = profile.alloc_pages
    # Interleaved compute is spread across every touched page — WS
    # accesses and allocation write-touches alike — so the trace's total
    # compute equals the profile's budget exactly.
    per_page = touch_compute / max(1, total + alloc_pages)
    alloc_chunks: list[int] = []
    remaining = alloc_pages
    while remaining > 0:
        chunk = min(remaining, max(256, alloc_pages // 4))
        alloc_chunks.append(chunk)
        remaining -= chunk

    trace: list[TraceOp] = []
    n_runs = len(runs)
    # Allocations happen once the function is warmed into its working set.
    alloc_positions = sorted(
        rng.randrange(n_runs // 4, max(n_runs // 4 + 1, n_runs))
        for _ in alloc_chunks) if n_runs else [0] * len(alloc_chunks)
    alloc_iter = iter(zip(alloc_positions, alloc_chunks))
    next_alloc = next(alloc_iter, None)
    live_tags: list[str] = []

    n_compute_blocks = max(1, min(4, n_runs))
    block_positions = sorted(rng.randrange(0, max(1, n_runs))
                             for _ in range(n_compute_blocks))

    for run_idx, (start, length) in enumerate(runs):
        while next_alloc is not None and next_alloc[0] <= run_idx:
            tag = f"alloc{len(live_tags)}"
            trace.append(Alloc(tag=tag, npages=next_alloc[1],
                               per_page_compute=per_page))
            live_tags.append(tag)
            next_alloc = next(alloc_iter, None)
        while block_positions and block_positions[0] <= run_idx:
            block_positions.pop(0)
            trace.append(Compute(block_compute / n_compute_blocks))
        trace.append(TouchRun(start=start, count=length,
                              write=rng.random() < profile.write_frac,
                              per_page_compute=per_page))
    while next_alloc is not None:
        tag = f"alloc{len(live_tags)}"
        trace.append(Alloc(tag=tag, npages=next_alloc[1],
                           per_page_compute=per_page))
        live_tags.append(tag)
        next_alloc = next(alloc_iter, None)
    for _ in block_positions:
        trace.append(Compute(block_compute / n_compute_blocks))
    # Ephemeral memory is freed before the invocation returns.
    for tag in live_tags:
        trace.append(Free(tag=tag))
    return trace


# -- arrival processes --------------------------------------------------------
#
# A point process over [0, duration) sampled by thinning: candidate
# points come from a homogeneous Poisson process at ``peak_rate`` and
# survive with probability rate(t) / peak_rate.  When rate(t) equals the
# peak the acceptance draw is skipped entirely, so a constant-rate
# process consumes exactly one expovariate per point — the same RNG
# stream the historic single-rate generator used, which keeps every
# seeded arrival sequence byte-identical across the refactor.

class ArrivalProcess:
    """Base: an inhomogeneous Poisson process defined by ``rate(t)``.

    Subclasses supply ``rate`` and ``peak_rate`` (an upper bound on the
    rate over the sampled horizon); :meth:`sample` is the one shared
    generator every process uses.
    """

    def rate(self, t: float) -> float:
        raise NotImplementedError

    @property
    def peak_rate(self) -> float:
        raise NotImplementedError

    def sample(self, rng: random.Random,
               duration: float) -> Iterator[float]:
        """Lazily yield arrival times in (0, duration), ascending.

        Deterministic per (rng state, duration); O(1) memory — the
        traffic plane iterates millions of points without a list.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        peak = self.peak_rate
        if peak <= 0:
            raise ValueError(f"peak_rate must be positive, got {peak}")
        t = rng.expovariate(peak)
        while t < duration:
            r = self.rate(t)
            # Skip the acceptance draw at the envelope: constant-rate
            # sampling then consumes one expovariate per point, exactly
            # the legacy poisson_arrivals RNG stream.
            if r >= peak or rng.random() < r / peak:
                yield t
            t += rng.expovariate(peak)


class ConstantRate(ArrivalProcess):
    """Homogeneous Poisson arrivals at a fixed requests/second rate."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate

    def rate(self, t: float) -> float:
        return self._rate

    @property
    def peak_rate(self) -> float:
        return self._rate
