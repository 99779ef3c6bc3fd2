"""One benchmark pass: every cell of a workload once, cold, serially.

Run as a script, in a fresh interpreter, from the root of a checkout::

    python3 perfbench/passes.py --workload restore-sweep --seed 0 \\
        --store .perfbench/store-0 [--trace .perfbench/trace.json]

It prints one JSON line: when the first cell started (``time.monotonic``,
comparable with the parent's clock), the pass wall time, and per cell
its host seconds, DES events, result digest and any failure.  With
``--setup-only`` it stops just before the first cell, so the parent can
sample set-up time cheaply.  ``run.py`` is the entry point; this file is
its worker.

An untraced pass also probes the host's speed with a fixed calibration
loop, at every cell boundary and every ``PROBE_PERIOD_S`` inside cells
(outside the cells' own times), so the parent can scale each time to a
nominal host speed: the shared host's speed drifts by up to 2x within
seconds to minutes, and the loop's time follows it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports repro)

from repro import ResultCache, ResultStore, SweepRunner  # noqa: E402
from repro.sim.engine import Environment  # noqa: E402

#: Registry counters summed over a pass's results (per-layer metrics).
REGISTRY_KEYS = (
    "cache_bpf_hook_seconds_total",
    "reclaim_scanned_total", "reclaim_reclaimed_total",
    "device_requests_total", "device_sequential_requests_total",
    "device_bytes_read_total", "device_busy_seconds_total",
    "snapstore_staged_chunks_total", "snapstore_remote_fetches_total",
    "snapstore_remote_fetch_bytes_total",
)


#: Host seconds between speed probes inside a cell.
PROBE_PERIOD_S = 0.25
#: Random byte reads of one speed probe (about 16 ms).
PROBE_READS = 40_000
#: The buffer the probe reads: larger than a core's private caches, so
#: the probe feels the shared cache and memory contention the cells do.
PROBE_BUFFER_MIB = 16
#: Probes averaged to scale set-up time.
SETUP_REPEATS = 4


@functools.cache
def probe_buffer() -> bytearray:
    """The probe's buffer, every page written once so it is resident
    (``peak_rss_mib`` subtracts it)."""
    buffer = bytearray(PROBE_BUFFER_MIB << 20)
    for offset in range(0, len(buffer), 4096):
        buffer[offset] = 1
    return buffer


def calibrate(repeats: int = 1) -> float:
    """Host seconds per ``PROBE_READS`` pseudo-random reads of
    :func:`probe_buffer`, run ``repeats`` times over: a probe of the
    host's current speed.  It allocates no tracked objects, so it leaves
    the cells' heap and garbage collector as they were."""
    buffer, mask = probe_buffer(), (PROBE_BUFFER_MIB << 20) - 1
    started = time.perf_counter()
    x = total = 0
    for _ in range(repeats * PROBE_READS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        total += buffer[x & mask]
    return (time.perf_counter() - started) / repeats


class SpeedProbe:
    """Probes the host's speed at cell boundaries (:meth:`take`) and,
    from a SIGALRM interval timer, every ``PROBE_PERIOD_S`` inside
    cells.  Between two probes the host is taken to run at the mean of
    their speeds.  Probe time is excluded from every measured time and
    summed in ``paused_s``."""

    def __init__(self):
        self.paused_s = 0.0
        self._ref_s = calibrate()
        self._mark = time.perf_counter()
        self._seconds = self._scaled = 0.0
        self._busy = False

    def probe(self, *_signal) -> None:
        if self._busy:  # a timer signal during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            ref_s = calibrate()
            segment = start - self._mark
            self._seconds += segment
            self._scaled += segment * 2 / (self._ref_s + ref_s)
            self._ref_s = ref_s
            self._mark = time.perf_counter()
            self.paused_s += self._mark - start
        finally:
            self._busy = False

    def take(self) -> tuple[float, float]:
        """Host seconds since the last take, and the calibration time
        that scales them: the seconds-weighted harmonic mean of the
        probes' estimates over them."""
        self.probe()
        seconds, scaled = self._seconds, self._scaled
        self._seconds = self._scaled = 0.0
        return seconds, seconds / scaled

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def digest(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def sanity(spec, result) -> list[str]:
    """Invariants any seed's result must satisfy."""
    extra = result.extra
    if spec.cluster is None:
        latencies = result.e2e_latencies
        if len(latencies) != spec.n_instances or min(latencies) <= 0:
            return [f"expected {spec.n_instances} positive E2E latencies"]
        return []
    if spec.cluster.traffic is not None:
        if extra.get("traffic_invocations", 0) <= 0:
            return ["traffic cell served no invocations"]
        return []
    if (extra.get("cluster_requests", 0) <= 0
            or extra.get("cluster_completed") != extra["cluster_requests"]):
        return ["cluster cell left requests incomplete"]
    return []


class EventCounter:
    """Counts DES events across every Environment a cell creates
    (cluster cells and traffic calibration build several)."""

    def __init__(self):
        self._envs: list[Environment] = []
        self._original = Environment.__init__
        envs, original = self._envs, self._original

        def init(env, *args, **kwargs):
            original(env, *args, **kwargs)
            envs.append(env)

        Environment.__init__ = init

    def take(self) -> int:
        """Events processed by environments created since the last take."""
        events = sum(env.events_processed for env in self._envs)
        self._envs.clear()
        return events

    def close(self) -> None:
        Environment.__init__ = self._original


class WallClock:
    """:class:`SpeedProbe`'s interface without probing, for traced
    passes: probes would land in the trace as unattributed time."""

    paused_s = 0.0

    def __init__(self):
        self._mark = time.perf_counter()

    def take(self) -> tuple[float, None]:
        now = time.perf_counter()
        seconds, self._mark = now - self._mark, now
        return seconds, None

    def __enter__(self) -> WallClock:
        return self

    def __exit__(self, *exc) -> None:
        pass


def run_pass(cells, store_root, seed: int, recorder=None) -> dict:
    """Run ``cells`` as one cold serial sweep into a fresh store.

    Untraced, each cell record carries ``ref_s``, the calibration time
    that scales its seconds (:meth:`SpeedProbe.take`), and the pass
    carries ``setup_ref_s``, a calibration time taken right after
    set-up.  ``wall_s`` excludes probe time."""
    labels = {spec: label for label, spec in cells}
    counter = EventCounter()
    instrumentation = None
    if recorder is not None:
        from spans import Instrumentation
        instrumentation = Instrumentation(recorder).install()
    runner = SweepRunner(ResultCache(store=ResultStore(store_root)),
                         jobs=1, keep_going=True, max_retries=0)
    records: list[dict] = []
    registry = dict.fromkeys(REGISTRY_KEYS + ("result_cache_adds",), 0.0)
    cold_ratios: list[float] = []
    first_cell_at = time.monotonic()
    setup_ref_s = calibrate(SETUP_REPEATS) if recorder is None else None
    clock = SpeedProbe() if recorder is None else WallClock()
    started = time.perf_counter()

    def on_result(spec, result) -> None:
        seconds, ref_s = clock.take()
        record = {"label": labels[spec], "spec": spec.stable_hash(),
                  "seconds": seconds,
                  "events": counter.take(), "digest": digest(result),
                  "mean_e2e": result.mean_e2e,
                  "problems": sanity(spec, result)}
        if ref_s is not None:
            record["ref_s"] = ref_s
        records.append(record)
        for key in REGISTRY_KEYS:
            registry[key] += result.metrics.get(key, 0.0)
        registry["result_cache_adds"] += result.cache_adds
        ratio = result.extra.get("traffic_cold_ratio",
                                 result.extra.get("cluster_cold_ratio"))
        if ratio is not None:
            cold_ratios.append(ratio)

    try:
        with clock:
            runner.run([spec for _, spec in cells], on_result=on_result)
        wall_s = time.perf_counter() - started - clock.paused_s
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
        counter.close()
    by_key = {spec.stable_hash(): label for label, spec in cells}
    for failure in runner.last_manifest:
        records.append({"label": by_key[failure.key], "spec": failure.key,
                        "seconds": 0.0,
                        "events": 0, "digest": None, "mean_e2e": None,
                        "problems": [failure.error or failure.reason]})
    probe_mib = PROBE_BUFFER_MIB if probe_buffer.cache_info().currsize else 0
    out = {"seed": seed, "first_cell_at": first_cell_at,
           "setup_ref_s": setup_ref_s, "wall_s": wall_s,
           "cells": records, "registry": registry,
           "cold_ratios": cold_ratios,
           "peak_rss_mib": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024 - probe_mib}
    if recorder is not None:
        out["trace"] = {
            "layer_self_s": recorder.layer_self_s(),
            "calls": recorder.named(recorder.calls),
            "hits": recorder.named(recorder.hits),
            "incl_s": recorder.named(recorder.incl_s),
            "covered_s": recorder.covered_s,
            "spans_kept": len(recorder.spans),
            "spans_dropped": recorder.dropped,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", help="write the span file here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cells = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print(json.dumps({"first_cell_at": time.monotonic(),
                          "setup_ref_s": calibrate(SETUP_REPEATS)}))
        return 0
    recorder = None
    if args.trace:
        from spans import SpanRecorder
        recorder = SpanRecorder()
    out = run_pass(cells, args.store, args.seed, recorder)
    if recorder is not None:
        recorder.write_chrome_trace(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
