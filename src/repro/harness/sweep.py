"""Supervised parallel sweep engine with a content-addressed store.

The paper's evaluation is a matrix of (function x approach x concurrency
x device) cold-start scenarios.  Every cell is an independent pure
function of its :class:`~repro.harness.spec.ScenarioSpec` — each run
builds a fresh simulated host from seeded RNGs — so the matrix can be
executed across a ``ProcessPoolExecutor`` with *any* job count and still
produce byte-identical figures, and a finished cell can be persisted and
replayed forever.

Three pieces:

* :class:`ResultStore` — one JSON file per spec under a cache directory,
  named by ``spec.stable_hash()`` (which bakes in
  :data:`~repro.harness.spec.SCHEMA_VERSION`); entries with a different
  schema tag or kind read as misses, and structurally corrupt files
  (torn writes) are quarantined to ``<key>.json.corrupt`` and counted,
  never silently overwritten or trusted.
* :func:`supervised_map` — the supervising executor: per-cell futures
  with a configurable deadline, bounded retries with seeded backoff,
  automatic pool respawn after ``BrokenProcessPool`` (a SIGKILLed or
  OOM-killed worker takes down the whole pool), and quarantine of
  poison cells after max retries.  A sweep finishes with a failure
  manifest instead of dying.
* :class:`SweepRunner` — deduplicates a spec list, resolves what it can
  from a :class:`~repro.harness.experiment.ResultCache` (memory, then
  store), supervises the misses, and **checkpoints each completed cell
  into the store as it finishes** — an interrupted sweep resumes for
  free on rerun.  SIGINT/SIGTERM are handled by flushing in-flight
  completions before raising :class:`SweepInterrupted`.  Progress is
  exported through the cache's metrics registry (``sweep_*`` counters
  and gauges) and optional tracer instants, not ad-hoc prints.

Failure semantics: cells are pure functions of their spec, so a Python
exception raised *by the cell body* is deterministic and retrying it is
pointless — such cells are quarantined immediately as poison.  Only
infrastructure failures (worker crashes, deadline expiries) are
transient and earn retries.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.faults.retry import RetryPolicy
from repro.faults.sweep import WorkerCrashError, apply_worker_fault
from repro.harness.experiment import ResultCache, run_scenario
from repro.harness.spec import SCHEMA_VERSION, ScenarioSpec
from repro.metrics.results import ScenarioResult

#: Supervisor wake-up granularity: deadline checks, stop-flag polls.
_POLL_INTERVAL = 0.1

#: How long a stop request waits for in-flight cells to flush when no
#: deadline is configured.
_FLUSH_GRACE = 60.0


class ResultStore:
    """Content-addressed on-disk JSON store, one file per entry.

    Keys are content hashes (``ScenarioSpec.stable_hash()`` or any other
    :func:`~repro.harness.spec.stable_hash` digest); each file carries
    the schema version and a ``kind`` tag.  Loads are defensive: a
    missing file or a schema/kind mismatch is a *miss* — the scenario
    simply re-runs.  A file that exists but does not parse (a torn
    write) is **quarantined**: renamed to ``<key>.json.corrupt`` so the
    evidence survives the re-run that overwrites the key, and counted in
    ``corrupt_entries`` (surfaced as ``store_corrupt_entries_total``
    through the owning cache's registry).  Writes are atomic (temp file
    + ``os.replace``) so a killed sweep cannot leave a torn entry
    behind; ``fault_injector`` (a
    :class:`~repro.faults.sweep.SweepFaultInjector`) can tear them on
    purpose for chaos tests.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries quarantined so far (collector-published).
        self.corrupt_entries = 0
        #: Optional SweepFaultInjector tearing writes (chaos harness).
        self.fault_injector = None

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # -- corruption quarantine ----------------------------------------------
    def quarantine(self, key: str) -> None:
        """Move a corrupt entry aside as ``<key>.json.corrupt``."""
        self._quarantine(self.path(key))

    def _quarantine(self, path: Path) -> None:
        self.corrupt_entries += 1
        try:
            os.replace(path, path.with_suffix(path.suffix + ".corrupt"))
        except OSError:
            pass

    # -- generic payloads ---------------------------------------------------
    def load(self, key: str, kind: str) -> dict | None:
        path = self.path(key)
        try:
            with open(path) as fp:
                raw = fp.read()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            self._quarantine(path)
            return None
        if not isinstance(entry, dict):
            self._quarantine(path)
            return None
        if entry.get("schema") != SCHEMA_VERSION or entry.get("kind") != kind:
            # A legitimate older/foreign entry, not corruption: leave it
            # in place to be overwritten by the re-run.
            return None
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        return payload

    def save(self, key: str, payload: dict, kind: str,
             spec: dict | None = None) -> None:
        entry = {"schema": SCHEMA_VERSION, "kind": kind, "key": key,
                 "spec": spec, "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fp:
                json.dump(entry, fp, sort_keys=True)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        injector = self.fault_injector
        if injector is not None and injector.on_store_write(key):
            self._tear(self.path(key))

    def _tear(self, path: Path) -> None:
        """Truncate an entry mid-file (chaos: a torn write)."""
        try:
            raw = path.read_text()
            path.write_text(raw[:max(1, len(raw) // 2)])
        except OSError:
            pass

    # -- scenario results ---------------------------------------------------
    def load_scenario(self, spec: ScenarioSpec) -> ScenarioResult | None:
        key = spec.stable_hash()
        payload = self.load(key, kind="scenario")
        if payload is None:
            return None
        try:
            return ScenarioResult.from_dict(payload)
        except (KeyError, TypeError, ValueError):
            # Parsed as JSON but not as a result: payload corruption.
            self.quarantine(key)
            return None

    def save_scenario(self, spec: ScenarioSpec,
                      result: ScenarioResult) -> None:
        self.save(spec.stable_hash(), result.to_dict(), kind="scenario",
                  spec=spec.canonical())

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


def execute_spec(spec: ScenarioSpec) -> ScenarioResult:
    """Worker entrypoint: run one scenario, deterministically seeded.

    The simulation derives every random choice from the spec already;
    re-seeding the global RNG from the spec hash is hygiene that keeps a
    stray ``random.random()`` anywhere in the stack from making results
    depend on execution order or worker identity.
    """
    random.seed(spec.seed_material())
    return run_scenario(spec)


def _supervised_cell(payload) -> ScenarioResult:
    """Worker entrypoint under supervision: ``(spec, fault)`` pairs."""
    spec, fault = payload
    apply_worker_fault(fault)
    return execute_spec(spec)


# -- supervision ------------------------------------------------------------

class _CellTimeout(Exception):
    """Internal marker: a cell exceeded its deadline."""


@dataclass
class FailureRecord:
    """One permanently-failed cell in the failure manifest."""

    key: str
    label: str
    attempts: int
    #: ``"crash"`` | ``"timeout"`` | ``"error"``.
    reason: str
    error: str
    spec: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class SweepFailure(RuntimeError):
    """Cells failed permanently and ``keep_going`` was off.

    Every cell that *did* complete before the abort has already been
    delivered (and persisted, when a store is attached); ``failures``
    is the manifest of the ones that did not.
    """

    def __init__(self, failures: Sequence[FailureRecord]):
        self.failures = list(failures)
        preview = "; ".join(
            f"{f.label or f.key[:12]}: {f.reason} ({f.error})"
            for f in self.failures[:4])
        if len(self.failures) > 4:
            preview += f"; ... {len(self.failures) - 4} more"
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed permanently "
            f"after retries: {preview}")


class SweepInterrupted(KeyboardInterrupt):
    """A stop request (SIGINT/SIGTERM) ended the sweep early.

    In-flight completions were flushed to the cache/store first, so a
    rerun resumes from exactly ``completed`` finished cells.
    """

    def __init__(self, completed: int, remaining: int,
                 signum: int | None = None):
        self.completed = completed
        self.remaining = remaining
        self.signum = signum
        name = (signal.Signals(signum).name if signum is not None
                else "stop request")
        super().__init__(
            f"sweep interrupted by {name}: {completed} cell(s) "
            f"checkpointed, {remaining} remaining (rerun to resume)")


class StopRequest:
    """Cooperative stop flag shared with the supervisor loop."""

    def __init__(self) -> None:
        self.requested = False
        self.signum: int | None = None

    def set(self, signum: int | None = None) -> None:
        self.requested = True
        self.signum = signum

    def reset(self) -> None:
        self.requested = False
        self.signum = None


class SweepCell:
    """One supervised unit of work: payload plus retry bookkeeping."""

    __slots__ = ("index", "item", "key", "label", "spec", "attempts",
                 "ready_at")

    def __init__(self, index: int, item, key: str, label: str = "",
                 spec: dict | None = None):
        self.index = index
        self.item = item
        self.key = key
        self.label = label
        self.spec = spec
        self.attempts = 0
        self.ready_at = 0.0


def write_failure_manifest(path: str | Path,
                           failures: Sequence[FailureRecord]) -> None:
    """Write a failure manifest (always, even when empty — an empty
    manifest is positive evidence the sweep completed clean)."""
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": SCHEMA_VERSION, "kind": "sweep-failures",
               "failures": [f.to_dict() for f in failures]}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _retry_jitter(key: str, attempt: int) -> float:
    """Seeded backoff jitter in [0.5, 1.5): deterministic per (cell,
    attempt), decorrelated across cells so respawned retries don't
    stampede the pool in lockstep."""
    return 0.5 + random.Random(f"{key}:{attempt}").random()


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, hung or broken workers included."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    # Killing the workers strands the executor's atexit wakeup hook on
    # a dead pipe, which spews "Exception ignored" noise at interpreter
    # exit.  Once the management thread is gone, marking the wakeup
    # closed silences the hook (it checks the flag before writing).
    thread = getattr(pool, "_executor_manager_thread", None)
    if thread is not None:
        thread.join(timeout=1.0)
        if thread.is_alive():
            return
    wakeup = getattr(pool, "_executor_manager_thread_wakeup", None)
    if wakeup is not None:
        try:
            wakeup.close()
        except Exception:
            pass


def supervised_map(fn: Callable, cells: Sequence[SweepCell], jobs: int, *,
                   timeout: float | None = None, max_retries: int = 2,
                   keep_going: bool = False,
                   retry_policy: RetryPolicy | None = None,
                   injector=None,
                   deliver: Callable[[SweepCell, object], None] | None = None,
                   notify: Callable[[str, SweepCell, str], None] | None = None,
                   stop: StopRequest | None = None,
                   ) -> tuple[dict[int, object], list[FailureRecord]]:
    """Run every cell through ``fn((item, fault))`` under supervision.

    Returns ``(results, failures)`` where ``results`` maps cell index to
    result for every cell that completed.  ``deliver`` fires as each
    cell finishes (checkpointing hook); ``notify(kind, cell, error)``
    fires on ``"crash"``/``"timeout"``/``"retry"``/``"quarantine"``
    events.  With ``keep_going`` the sweep drains everything it can and
    reports the rest in ``failures``; otherwise the first quarantined
    cell aborts the sweep with :class:`SweepFailure` after in-flight
    cells finish.  A :class:`StopRequest` flush-stops the sweep with
    :class:`SweepInterrupted`.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    policy = retry_policy or RetryPolicy(max_attempts=max_retries + 1,
                                         backoff_base=0.05,
                                         backoff_multiplier=2.0)
    results: dict[int, object] = {}
    failures: list[FailureRecord] = []

    def event(kind: str, cell: SweepCell, error: str = "") -> None:
        if notify is not None:
            notify(kind, cell, error)

    def complete(cell: SweepCell, result) -> None:
        results[cell.index] = result
        if deliver is not None:
            deliver(cell, result)

    def quarantine(cell: SweepCell, reason: str, error: str) -> None:
        failures.append(FailureRecord(
            key=cell.key, label=cell.label, attempts=cell.attempts,
            reason=reason, error=error, spec=cell.spec))
        event("quarantine", cell, error)

    def transient_failure(cell: SweepCell, reason: str, error: str) -> bool:
        """Count a crash/timeout; schedule a retry or quarantine.
        Returns True when the cell should be requeued."""
        event(reason, cell, error)
        if cell.attempts >= policy.max_attempts:
            quarantine(cell, reason, error)
            return False
        delay = (policy.backoff(cell.attempts)
                 * _retry_jitter(cell.key, cell.attempts))
        cell.ready_at = time.monotonic() + delay
        event("retry", cell, error)
        return True

    def plan_fault(cell: SweepCell):
        if injector is None:
            return None
        return injector.plan(cell.key, cell.attempts)

    queue: deque[SweepCell] = deque(cells)
    if jobs <= 1:
        _supervise_serial(fn, queue, timeout=timeout, keep_going=keep_going,
                          plan_fault=plan_fault, complete=complete,
                          transient_failure=transient_failure,
                          quarantine=quarantine, stop=stop,
                          results=results)
    else:
        _supervise_pool(fn, queue, jobs, timeout=timeout,
                        keep_going=keep_going, plan_fault=plan_fault,
                        complete=complete,
                        transient_failure=transient_failure,
                        quarantine=quarantine, stop=stop, results=results)
    if failures and not keep_going:
        raise SweepFailure(failures)
    return results, failures


def _supervise_serial(fn, queue, *, timeout, keep_going, plan_fault,
                      complete, transient_failure, quarantine, stop,
                      results) -> None:
    """In-process supervision (``jobs == 1``).

    A planned worker kill surfaces as :class:`WorkerCrashError` (killing
    the only process would end the sweep, not exercise it) and a planned
    hang longer than the deadline surfaces as a timeout — the same
    retry/quarantine ladder as the pool path, without sleeping for real.
    """
    while queue:
        if stop is not None and stop.requested:
            raise SweepInterrupted(len(results), len(queue), stop.signum)
        cell = queue.popleft()
        delay = cell.ready_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        cell.attempts += 1
        fault = plan_fault(cell)
        try:
            if fault is not None and fault.kill:
                raise WorkerCrashError(
                    f"injected worker kill for {cell.label or cell.key}")
            if (fault is not None and timeout is not None
                    and fault.hang_seconds > timeout):
                raise _CellTimeout(
                    f"no result within {timeout:.3g}s deadline")
            result = fn((cell.item, None))
        except WorkerCrashError as exc:
            if transient_failure(cell, "crash", str(exc)):
                queue.append(cell)
            elif not keep_going:
                return
        except _CellTimeout as exc:
            if transient_failure(cell, "timeout", str(exc)):
                queue.append(cell)
            elif not keep_going:
                return
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            quarantine(cell, "error", f"{type(exc).__name__}: {exc}")
            if not keep_going:
                return
        else:
            complete(cell, result)


def _supervise_pool(fn, queue, jobs, *, timeout, keep_going, plan_fault,
                    complete, transient_failure, quarantine, stop,
                    results) -> None:
    """Pool supervision: per-cell futures, deadlines, pool respawn.

    ``BrokenProcessPool`` cannot name the worker that died, so every
    in-flight future that surfaces it is charged a crash attempt (the
    cell that killed the worker is necessarily among them); cells torn
    down only because a *sibling* timed out are requeued without an
    attempt charge.
    """
    width = max(1, min(jobs, len(queue)))
    pool = ProcessPoolExecutor(max_workers=width)
    running: dict = {}   # Future -> SweepCell
    deadline_at: dict = {}   # Future -> monotonic deadline
    abort = False

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = ProcessPoolExecutor(max_workers=width)

    def flush_and_stop() -> None:
        """Drain in-flight completions, then raise SweepInterrupted."""
        grace_end = time.monotonic() + (timeout if timeout is not None
                                        else _FLUSH_GRACE)
        while running and time.monotonic() < grace_end:
            done, _ = wait(set(running), timeout=_POLL_INTERVAL,
                           return_when=FIRST_COMPLETED)
            for fut in done:
                cell = running.pop(fut)
                deadline_at.pop(fut, None)
                try:
                    result = fut.result()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException:
                    continue   # lost to the interrupt; rerun resumes it
                complete(cell, result)
        remaining = len(queue) + len(running)
        if running:
            _kill_pool(pool)   # a worker outlived the grace; it's hung
        else:
            pool.shutdown(wait=True, cancel_futures=True)
        raise SweepInterrupted(len(results), remaining,
                               stop.signum if stop is not None else None)

    try:
        while True:
            if stop is not None and stop.requested:
                flush_and_stop()
            if not running and (abort or not queue):
                break
            now = time.monotonic()
            broken = False
            if not abort:
                for _ in range(len(queue)):
                    if len(running) >= width:
                        break
                    cell = queue.popleft()
                    if cell.ready_at > now:
                        queue.append(cell)   # still backing off
                        continue
                    cell.attempts += 1
                    fault = plan_fault(cell)
                    try:
                        fut = pool.submit(fn, (cell.item, fault))
                    except BrokenProcessPool:
                        cell.attempts -= 1
                        queue.appendleft(cell)
                        broken = True
                        break
                    running[fut] = cell
                    deadline_at[fut] = (now + timeout if timeout is not None
                                        else math.inf)
            if running:
                done, _ = wait(set(running), timeout=_POLL_INTERVAL,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    cell = running.pop(fut)
                    deadline_at.pop(fut, None)
                    try:
                        result = fut.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        message = str(exc) or "worker process died"
                        if transient_failure(cell, "crash", message):
                            queue.append(cell)
                        elif not keep_going:
                            abort = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except Exception as exc:
                        quarantine(cell, "error",
                                   f"{type(exc).__name__}: {exc}")
                        if not keep_going:
                            abort = True
                    else:
                        complete(cell, result)
            elif queue and not abort:
                pause = min((c.ready_at for c in queue),
                            default=now) - time.monotonic()
                if pause > 0:
                    time.sleep(min(pause, _POLL_INTERVAL))
            now = time.monotonic()
            expired = {fut for fut, dl in deadline_at.items() if now >= dl}
            if broken or expired:
                # The pool must be replaced (a worker is dead or hung);
                # every in-flight future dies with it.
                for fut, cell in list(running.items()):
                    if fut in expired:
                        message = (f"no result within {timeout:.3g}s "
                                   f"deadline")
                        if transient_failure(cell, "timeout", message):
                            queue.append(cell)
                        elif not keep_going:
                            abort = True
                    else:
                        # Innocent bystander of a sibling's teardown:
                        # resubmit without charging an attempt.
                        cell.attempts -= 1
                        queue.append(cell)
                running.clear()
                deadline_at.clear()
                respawn()
    finally:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


@dataclass
class SweepStats:
    """One sweep's accounting: where every requested cell came from and
    what the supervisor had to do to get it."""

    requested: int = 0
    unique: int = 0
    executed: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    elapsed_seconds: float = 0.0
    retries: int = 0
    worker_crashes: int = 0
    timeouts: int = 0
    quarantined: int = 0

    @property
    def hit_ratio(self) -> float:
        return 1.0 - self.executed / self.unique if self.unique else 0.0

    @property
    def scenarios_per_second(self) -> float:
        """Executed cells per second — actual simulation throughput.
        A fully-warm rerun reports 0, not an absurd cache-replay rate."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def resolved_per_second(self) -> float:
        """Unique cells resolved (any source) per second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.unique / self.elapsed_seconds

    def summary(self) -> str:
        """One stable line for logs and CI greps."""
        line = (f"sweep: requested={self.requested} unique={self.unique} "
                f"executed={self.executed} memory_hits={self.memory_hits} "
                f"disk_hits={self.disk_hits} "
                f"hit_ratio={self.hit_ratio:.2f} "
                f"exec_rate={self.scenarios_per_second:.2f}/s "
                f"resolved_rate={self.resolved_per_second:.2f}/s "
                f"elapsed={self.elapsed_seconds:.2f}s")
        if (self.retries or self.worker_crashes or self.timeouts
                or self.quarantined):
            line += (f" retries={self.retries} "
                     f"worker_crashes={self.worker_crashes} "
                     f"timeouts={self.timeouts} "
                     f"quarantined={self.quarantined}")
        return line


class SweepRunner:
    """Executes a batch of scenario specs under supervision, landing
    every completed cell in the shared cache/store *as it finishes*.

    ``timeout`` is the per-cell deadline in seconds (None = unbounded);
    ``max_retries`` bounds retries for transient failures (worker
    crashes, deadline expiries) beyond the first attempt; ``keep_going``
    turns permanent failures into manifest entries instead of a
    :class:`SweepFailure`; ``injector`` attaches a
    :class:`~repro.faults.sweep.SweepFaultInjector` (chaos harness);
    ``tracer`` receives instant events for crashes/timeouts/retries/
    quarantines on the ``sweep`` track, stamped with wall-clock seconds
    since the sweep started; ``telemetry`` attaches a serve-plane
    :class:`~repro.serve.hub.TelemetryHub` that receives live sweep
    progress (cells resolved / executed / quarantined) for the
    dashboard and ``/metrics`` endpoint.
    """

    def __init__(self, cache: ResultCache | None = None,
                 jobs: int = 1, *, timeout: float | None = None,
                 max_retries: int = 2, keep_going: bool = False,
                 retry_policy: RetryPolicy | None = None,
                 injector=None, tracer=None, telemetry=None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = jobs
        self.timeout = timeout
        self.max_retries = max_retries
        self.keep_going = keep_going
        self.retry_policy = retry_policy
        self.injector = injector
        self.tracer = tracer
        #: Serve plane hook (duck-typed TelemetryHub): sweep progress is
        #: published as cells resolve.  Observation-only, default off.
        self.telemetry = telemetry
        if injector is not None and self.cache.store is not None:
            self.cache.store.fault_injector = injector
        registry = self.cache.metrics
        self._runs = registry.counter("sweep_runs_total", "sweep batches")
        self._rate = registry.gauge(
            "sweep_scenarios_per_second",
            "last sweep's executed-cell throughput")
        self._ratio = registry.gauge(
            "sweep_hit_ratio", "last sweep's cache-hit ratio")
        self._retries = registry.counter(
            "sweep_retries_total", "cell attempts retried after a "
            "transient failure")
        self._crashes = registry.counter(
            "sweep_worker_crashes_total", "worker processes lost mid-cell")
        self._timeouts = registry.counter(
            "sweep_timeouts_total", "cells that exceeded their deadline")
        self._quarantined = registry.counter(
            "sweep_quarantined_total", "cells failed permanently and "
            "quarantined to the failure manifest")
        self.last_stats: SweepStats | None = None
        self.last_manifest: list[FailureRecord] = []
        self._stop = StopRequest()

    # -- cooperative shutdown -----------------------------------------------
    def request_stop(self, signum: int | None = None) -> None:
        """Ask the in-progress sweep to flush completions and stop.
        Safe to call from a signal handler or an ``on_result`` hook."""
        self._stop.set(signum)

    def _signal_handler(self, signum, frame) -> None:
        self.request_stop(signum)

    def _install_signal_handlers(self) -> list:
        """Install SIGINT/SIGTERM flush handlers (main thread only);
        returns the previous handlers for restoration."""
        restore = []
        try:
            if threading.current_thread() is not threading.main_thread():
                return restore
            for sig in (signal.SIGINT, signal.SIGTERM):
                restore.append((sig, signal.signal(sig,
                                                   self._signal_handler)))
        except (ValueError, OSError):
            pass
        return restore

    def write_manifest(self, path: str | Path) -> None:
        """Write the last sweep's failure manifest (even when empty)."""
        write_failure_manifest(path, self.last_manifest)

    def run(self, specs: Iterable[ScenarioSpec],
            on_result: Callable[[ScenarioSpec, ScenarioResult], None]
            | None = None) -> dict[ScenarioSpec, ScenarioResult]:
        """Resolve every spec (cache, store, or supervised execution)
        and return ``{spec: result}`` covering the deduplicated batch.

        ``on_result`` fires for each freshly-executed cell right after
        it is checkpointed (progress reporting, test hooks).
        """
        started = time.monotonic()
        stats = SweepStats()
        ordered: list[ScenarioSpec] = []
        seen: set[ScenarioSpec] = set()
        for spec in specs:
            stats.requested += 1
            if spec not in seen:
                seen.add(spec)
                ordered.append(spec)
        stats.unique = len(ordered)

        # lookup() classifies each hit into the registry counters;
        # diff them across the loop rather than re-deriving the split.
        memory_before = self.cache.memory_hits
        disk_before = self.cache.disk_hits
        results: dict[ScenarioSpec, ScenarioResult] = {}
        missing: list[ScenarioSpec] = []
        for spec in ordered:
            cached = self.cache.lookup(spec)
            if cached is not None:
                results[spec] = cached
            else:
                missing.append(spec)
        stats.memory_hits = self.cache.memory_hits - memory_before
        stats.disk_hits = self.cache.disk_hits - disk_before

        cells = [SweepCell(index=i, item=spec, key=spec.stable_hash(),
                           label=f"{spec.function_name}/{spec.approach}",
                           spec=spec.canonical())
                 for i, spec in enumerate(missing)]

        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.update_sweep(
                requested=stats.requested, unique=stats.unique,
                executed=0, memory_hits=stats.memory_hits,
                disk_hits=stats.disk_hits, remaining=len(cells),
                retries=0, worker_crashes=0, timeouts=0, quarantined=0,
                done=False)
            telemetry.flush(phase="sweep")

        def deliver(cell: SweepCell, result: ScenarioResult) -> None:
            spec = cell.item
            results[spec] = result
            stats.executed += 1
            # Checkpoint immediately: a later crash or interrupt cannot
            # lose this cell, and a rerun replays it from the store.
            self.cache.record_execution(spec, result)
            if telemetry is not None:
                telemetry.update_sweep(
                    executed=stats.executed,
                    remaining=len(cells) - stats.executed)
            if on_result is not None:
                on_result(spec, result)

        counters = {"retry": (self._retries, "retries"),
                    "crash": (self._crashes, "worker_crashes"),
                    "timeout": (self._timeouts, "timeouts"),
                    "quarantine": (self._quarantined, "quarantined")}

        def notify(kind: str, cell: SweepCell, error: str) -> None:
            counter, attr = counters[kind]
            counter.inc()
            setattr(stats, attr, getattr(stats, attr) + 1)
            if telemetry is not None:
                telemetry.update_sweep(**{attr: getattr(stats, attr)})
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.instant(f"sweep {kind}", "sweep",
                               time.monotonic() - started, track="sweep",
                               cell=cell.label or cell.key[:12],
                               attempt=cell.attempts, error=error)

        self._stop.reset()
        restore = self._install_signal_handlers()
        self.last_manifest = []
        try:
            _, failures = supervised_map(
                _supervised_cell, cells, self.jobs, timeout=self.timeout,
                max_retries=self.max_retries, keep_going=self.keep_going,
                retry_policy=self.retry_policy, injector=self.injector,
                deliver=deliver, notify=notify, stop=self._stop)
            self.last_manifest = failures
        except SweepFailure as exc:
            self.last_manifest = exc.failures
            raise
        finally:
            for sig, previous in restore:
                try:
                    signal.signal(sig, previous)
                except (ValueError, OSError):
                    pass
            stats.elapsed_seconds = time.monotonic() - started
            self._runs.inc()
            self._rate.set(stats.scenarios_per_second)
            self._ratio.set(stats.hit_ratio)
            self.last_stats = stats
            if telemetry is not None:
                telemetry.update_sweep(
                    executed=stats.executed,
                    remaining=len(cells) - stats.executed,
                    elapsed_seconds=round(stats.elapsed_seconds, 3),
                    done=True)
                telemetry.flush(phase="sweep done")
        return results


@dataclass
class SweepOptions:
    """The shared sweep/supervision/chaos/serve knob surface, as one
    value.

    Every sweeping entry point (the ``run``/``fig``/``chaos`` CLI
    commands, and any library caller that wants CLI-equivalent
    behaviour) accepts the same knobs.  ``cluster`` runs one fleet, so
    its parser takes only the serve flags; every other knob keeps its
    default.  This dataclass is the single definition of the knobs'
    names and defaults: a command calls :meth:`from_args` on a
    namespace parsed with the shared parent parsers, sweep flags and
    serve flags (see ``repro.__main__``).

    The factory methods resolve the raw knobs into live objects:
    :meth:`make_store` (content-addressed result store or None),
    :meth:`make_injector` (sweep-chaos fault injector or None), and
    :meth:`make_runner` (a fully wired :class:`SweepRunner`).
    """

    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    timeout: float | None = None
    max_retries: int = 2
    keep_going: bool = False
    failure_manifest: str | None = None
    sweep_kill_rate: float = 0.0
    sweep_hang_rate: float = 0.0
    sweep_tear_rate: float = 0.0
    sweep_fault_seed: int = 0
    serve: bool = False
    serve_host: str = "127.0.0.1"
    serve_port: int = 8040
    serve_state: str | None = None
    serve_hold: bool = False

    @classmethod
    def from_args(cls, args) -> "SweepOptions":
        """Lift an ``argparse`` namespace parsed with the shared parent
        parser into options; missing attributes keep their defaults, so
        namespaces from commands that only opt into part of the surface
        still resolve."""
        fields = {f.name: f.default for f in
                  cls.__dataclass_fields__.values()}
        return cls(**{name: getattr(args, name, default)
                      for name, default in fields.items()})

    def make_store(self) -> ResultStore | None:
        """``--cache-dir``/``--no-cache``, resolved to a store."""
        if not self.cache_dir or self.no_cache:
            return None
        return ResultStore(self.cache_dir)

    def make_injector(self):
        """The ``--sweep-*-rate`` chaos knobs, resolved to a
        :class:`~repro.faults.sweep.SweepFaultInjector` (or None when
        all rates are zero)."""
        if not (self.sweep_kill_rate or self.sweep_hang_rate
                or self.sweep_tear_rate):
            return None
        from repro.faults.sweep import SweepFaultInjector
        hang_seconds = 30.0
        if self.timeout is not None:
            # Hangs only matter relative to the deadline; outlive it.
            hang_seconds = max(hang_seconds, 2.0 * self.timeout)
        return SweepFaultInjector(
            seed=self.sweep_fault_seed, kill_rate=self.sweep_kill_rate,
            hang_rate=self.sweep_hang_rate, hang_seconds=hang_seconds,
            tear_rate=self.sweep_tear_rate)

    def make_runner(self, cache: ResultCache,
                    telemetry=None) -> SweepRunner:
        """A :class:`SweepRunner` wired up from the supervision knobs."""
        return SweepRunner(cache, jobs=self.jobs, timeout=self.timeout,
                           max_retries=self.max_retries,
                           keep_going=self.keep_going,
                           injector=self.make_injector(),
                           telemetry=telemetry)
