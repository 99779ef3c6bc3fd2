"""The repo benchmark: host time of cold simulator sweeps, end to end
and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload restore-sweep --seed 0 \\
        --seconds 35 --trace 0

``--trace 0`` runs the workload in fresh interpreters, cold and
serially, for about ``--seconds`` (at least one pass), and reports the
end-to-end metrics as medians over the passes, with times scaled to a
nominal host speed by a calibration loop timed during the pass.
``--trace 1`` runs one untraced pass and two traced passes, and reports
the per-layer metrics; their exact counts must agree between the two
traced passes.  Either
way the last line of stdout is one JSON object: ``correct``,
``attempted`` and ``failed`` (cells) and ``metrics``.

A cell fails if it raises, breaks a result invariant, or its result
digest differs from the one pinned in ``pins.json`` for its spec; on
seed 0, the Fig. 3a cells must also reproduce ``results/fig3a.txt``.
``--pin SEEDS`` (re)writes the pins for those seeds instead of
measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
WORKLOADS = ("restore-sweep", "pressure-remote", "fleet-traffic")
#: Where passes keep their scratch stores and span files.
OUT_DIR = ".perfbench"
#: Set-up samples per untraced run (passes contribute theirs).
SETUP_SAMPLES = 7
#: Hard limit on one pass, well inside a run's own limit.
PASS_TIMEOUT_S = 170
#: Calibration-loop seconds at the nominal host speed that end-to-end
#: times are scaled to (``passes.calibrate`` in a pass on a 2-vCPU Xeon
#: VM, as it typically ran).
NOMINAL_REF_S = 0.016

END_TO_END_UNITS = {
    "wall_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Per-layer metric -> unit.  ``*.self_s`` is host self time of the
#: layer's spans; counts are exact (call counts at the wrapped entry
#: points, or sums of the results' own registry counters).
#: ``slowest_cell_s`` is the scaled time of the untraced pass's slowest
#: cell: one cell is too short a window for the host's drift to be
#: scaled out within an end-to-end bound.
PER_LAYER_UNITS = {
    "slowest_cell_s": "s",
    "sim.self_s": "s", "sim.ns_per_event": "ns", "sim.processes": "count",
    "sim.events": "count",
    "mm.self_s": "s", "mm.faults": "count", "mm.frame_allocs": "count",
    "mm.cache_adds": "count", "mm.cache_hit_ratio": "ratio",
    "mm.reclaim_self_s": "s", "mm.reclaim_scanned": "count",
    "mm.reclaim_reclaimed": "count", "mm.reclaim_efficiency": "ratio",
    "kvm.self_s": "s", "kvm.nested_faults": "count",
    "kvm.us_per_nested_fault": "us", "guest.self_s": "s",
    "vmm.self_s": "s",
    "ebpf.self_s": "s", "ebpf.hook_fires": "count",
    "ebpf.prog_runs": "count", "ebpf.ns_per_run": "ns",
    "ebpf.fires_per_cache_add": "ratio", "ebpf.hook_sim_s": "s",
    "core.self_s": "s", "core.kfunc_calls": "count",
    "storage.self_s": "s", "storage.requests": "count",
    "storage.bytes_read": "bytes", "storage.sequential_ratio": "ratio",
    "storage.busy_sim_s": "s",
    "snapstore.self_s": "s", "snapstore.staged_chunks": "count",
    "snapstore.remote_fetches": "count",
    "snapstore.remote_fetch_bytes": "bytes", "snapstore.record_s": "s",
    "baselines.self_s": "s",
    "cluster.self_s": "s", "cluster.routes": "count",
    "cluster.calibrate_s": "s", "cluster.cold_ratio": "ratio",
    "platform.self_s": "s",
    "workloads.self_s": "s",
    "metrics.self_s": "s", "metrics.observes": "count",
    "harness.store_s": "s",
    "unattributed_s": "s", "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Metrics that must be identical across two traced passes of one seed.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER_UNITS.items()
                      if unit in ("count", "bytes")) + (
    "mm.cache_hit_ratio", "mm.reclaim_efficiency", "storage.sequential_ratio",
    "ebpf.fires_per_cache_add", "ebpf.hook_sim_s", "storage.busy_sim_s",
    "cluster.cold_ratio")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (not a failed cell)."""


# -- passes ---------------------------------------------------------------
def run_children(root: Path, workload: str, seed: int,
                 extras: list[tuple[str, ...]]) -> list[dict]:
    """One pass (or set-up sample) per entry of ``extras``, each in a
    fresh interpreter, run concurrently with one CPU each.

    A pass stays on its CPU because it is serial and migrations only add
    noise; a lone pass takes the last CPU, because CPU 0 also serves the
    rest of the system.  A fixed hash seed keeps dict and set layouts,
    and so the interpreter's own work, the same from pass to pass.
    """
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0), reverse=True)
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    with contextlib.ExitStack() as stack:
        started = []
        for n, extra in enumerate(extras):
            store = stack.enter_context(tempfile.TemporaryDirectory(
                dir=out_dir, prefix="store-"))
            command = [sys.executable, str(HERE / "passes.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--store", store, *extra]
            pin = functools.partial(os.sched_setaffinity, 0,
                                    {cpus[n % len(cpus)]})
            spawned_at = time.monotonic()
            proc = stack.enter_context(subprocess.Popen(
                command, cwd=root, env=env, stdout=subprocess.PIPE,
                text=True, preexec_fn=pin))
            started.append((proc, spawned_at))
        deadline = time.monotonic() + PASS_TIMEOUT_S
        records = []
        try:
            for proc, spawned_at in started:
                try:
                    stdout, _ = proc.communicate(
                        timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired as exc:
                    raise BenchError(
                        f"pass exceeded {PASS_TIMEOUT_S}s") from exc
                finished_at = time.monotonic()
                if proc.returncode != 0:
                    raise BenchError(
                        f"pass exited with code {proc.returncode}")
                record = json.loads(stdout.strip().splitlines()[-1])
                record["setup_s"] = record["first_cell_at"] - spawned_at
                record["duration_s"] = finished_at - spawned_at
                records.append(record)
        except BaseException:
            for proc, _ in started:
                proc.kill()  # each is waited for on leaving the stack
            raise
    return records


def run_child(root: Path, workload: str, seed: int, *extra: str) -> dict:
    """One pass (or set-up sample) alone on the last CPU."""
    return run_children(root, workload, seed, [extra])[0]


def timed_passes(root: Path, workload: str, seed: int,
                 seconds: float) -> tuple[list[dict], list[float]]:
    """Untraced passes for about ``seconds``, plus set-up samples."""
    deadline = time.monotonic() + seconds
    passes = [run_child(root, workload, seed)]
    while time.monotonic() + passes[-1]["duration_s"] <= deadline:
        passes.append(run_child(root, workload, seed))
    samples = list(passes)
    while len(samples) < SETUP_SAMPLES:
        samples.append(run_child(root, workload, seed, "--setup-only"))
    return passes, [scaled(s["setup_s"], s["setup_ref_s"]) for s in samples]


# -- correctness ------------------------------------------------------------
def load_pins() -> dict:
    with open(PINS) as fp:
        return json.load(fp)


def fig3a_table(root: Path) -> dict[tuple[str, str], str] | None:
    """(function, approach) -> committed 3-decimal mean E2E, or None
    when the checkout has no committed figure (the digest pins still
    cover those cells)."""
    path = root / "results" / "fig3a.txt"
    if not path.is_file():
        print(f"note: {path} missing; Fig. 3a values not checked",
              file=sys.stderr)
        return None
    lines = path.read_text().splitlines()
    header = lines[1].split()
    table = {}
    for line in lines[3:]:
        function, *values = line.split()
        for approach, value in zip(header[1:], values):
            table[(function, approach)] = value
    return table


def cell_failures(passes: list[dict], pins: dict,
                  fig3a: dict | None) -> list[str]:
    """One message per failed cell run across ``passes``.  ``pins`` maps
    a spec hash to its pinned result digest, so a cell whose spec does
    not depend on the seed is checked on every seed."""
    failures = []
    for record in passes:
        for cell in record["cells"]:
            label = cell["label"]
            problems = list(cell["problems"])
            want = pins.get(cell["spec"], {}).get("digest")
            if want is not None and cell["digest"] != want:
                problems.append(f"digest {cell['digest']} != pinned {want}")
            name, _, shape = label.partition(" ")
            committed = (fig3a or {}).get(tuple(name.split("/")))
            if (committed is not None and shape == "x1"
                    and cell["mean_e2e"] is not None
                    and f"{cell['mean_e2e']:.3f}" != committed):
                problems.append(f"mean E2E {cell['mean_e2e']:.3f} != "
                                f"results/fig3a.txt {committed}")
            if problems:
                failures.append(f"{label}: {'; '.join(problems)}")
    return failures


def attempted(passes: list[dict]) -> int:
    return sum(len(p["cells"]) for p in passes)


# -- metrics ----------------------------------------------------------------
def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the calibration loop took ``ref_s``,
    expressed at the nominal host speed."""
    return seconds * NOMINAL_REF_S / ref_s


def cell_seconds(pass_: dict) -> list[float]:
    """Scaled host seconds of each cell of an untraced pass (a failed
    cell took none of its own: its time went to the next cell)."""
    return [scaled(c["seconds"], c["ref_s"]) if "ref_s" in c else 0.0
            for c in pass_["cells"]]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over the run's passes of times scaled cell by cell to the
    nominal host speed: the shared host's speed drifts by up to 2x
    within seconds to minutes, and the calibration loop timed at and
    between cell boundaries follows it.  ``setups`` are scaled
    already."""
    walls = [sum(cell_seconds(p)) for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(
            sum(c["events"] for c in p["cells"]) / wall
            for p, wall in zip(passes, walls)),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    trace = traced["trace"]
    layer = trace["layer_self_s"]
    calls = trace["calls"]
    incl = trace["incl_s"]
    reg = traced["registry"]

    def self_s(name: str) -> float:
        return layer.get(name, 0.0)

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    def incl_s(*names: str) -> float:
        return sum(incl.get(name, 0.0) for name in names)

    events = sum(c["events"] for c in traced["cells"])
    nested = count("kvm.KVM.nested_fault")
    prog_runs = count("ebpf.Interpreter.run")
    scanned = reg["reclaim_scanned_total"]
    kfunc_calls = sum(n for name, n in calls.items()
                      if name.startswith("core.kfunc."))
    ratios = traced["cold_ratios"]
    return {
        "sim.self_s": self_s("sim"),
        "sim.ns_per_event": _ratio(self_s("sim") * 1e9, events),
        "sim.processes": count("sim.Environment.process"),
        "sim.events": events,
        "mm.self_s": self_s("mm"),
        "mm.faults": count("mm.AddressSpace.handle_fault"),
        "mm.frame_allocs": count("mm.FrameAllocator.alloc"),
        "mm.cache_adds": count("mm.PageCache.add_to_page_cache_lru"),
        "mm.cache_hit_ratio": _ratio(
            trace["hits"].get("mm.PageCache.lookup", 0),
            count("mm.PageCache.lookup")),
        "mm.reclaim_self_s": self_s("reclaim"),
        "mm.reclaim_scanned": scanned,
        "mm.reclaim_reclaimed": reg["reclaim_reclaimed_total"],
        "mm.reclaim_efficiency": _ratio(reg["reclaim_reclaimed_total"],
                                        scanned),
        "kvm.self_s": self_s("kvm"),
        "kvm.nested_faults": nested,
        "kvm.us_per_nested_fault": _ratio(self_s("kvm") * 1e6, nested),
        "guest.self_s": self_s("guest"),
        "vmm.self_s": self_s("vmm"),
        "ebpf.self_s": self_s("ebpf"),
        "ebpf.hook_fires": count("ebpf.KprobeManager.fire",
                                 "ebpf.KprobeManager.fire_verdict"),
        "ebpf.prog_runs": prog_runs,
        "ebpf.ns_per_run": _ratio(self_s("ebpf") * 1e9, prog_runs),
        "ebpf.fires_per_cache_add": _ratio(prog_runs,
                                           reg["result_cache_adds"]),
        "ebpf.hook_sim_s": reg["cache_bpf_hook_seconds_total"],
        "core.self_s": self_s("core"),
        "core.kfunc_calls": kfunc_calls,
        "storage.self_s": self_s("storage"),
        "storage.requests": count("storage.BlockDevice.submit"),
        "storage.bytes_read": reg["device_bytes_read_total"],
        "storage.sequential_ratio": _ratio(
            reg["device_sequential_requests_total"],
            reg["device_requests_total"]),
        "storage.busy_sim_s": reg["device_busy_seconds_total"],
        "snapstore.self_s": self_s("snapstore"),
        "snapstore.staged_chunks": reg["snapstore_staged_chunks_total"],
        "snapstore.remote_fetches": reg["snapstore_remote_fetches_total"],
        "snapstore.remote_fetch_bytes":
            reg["snapstore_remote_fetch_bytes_total"],
        "snapstore.record_s": incl_s("snapstore.SnapStore.record",
                                     "snapstore.SnapStore.record_derived"),
        "baselines.self_s": self_s("baselines"),
        "cluster.self_s": self_s("cluster"),
        "cluster.routes": count("cluster.Gateway.route"),
        "cluster.calibrate_s": incl_s("cluster.calibrate_service_times"),
        "cluster.cold_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "platform.self_s": self_s("platform"),
        "workloads.self_s": self_s("workloads"),
        "metrics.self_s": self_s("metrics"),
        "metrics.observes": count("metrics.Histogram.observe"),
        "harness.store_s": self_s("harness"),
        "unattributed_s": traced["wall_s"] - trace["covered_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_ratio": _ratio(traced["wall_s"], untraced_wall_s),
    }


def count_drift(a: dict[str, float], b: dict[str, float]) -> list[str]:
    """Count metrics that differ between two traced passes."""
    return [f"{name}: {a[name]!r} != {b[name]!r}"
            for name in COUNT_METRICS if a[name] != b[name]]


def traced_metrics(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from [untraced, traced, traced] passes: times
    are the mean of the two traced passes, counts must agree;
    ``slowest_cell_s`` comes from the untraced pass."""
    untraced, *traced = passes
    first, second = (per_layer(p, untraced["wall_s"]) for p in traced)
    drift = count_drift(first, second)
    merged = {name: (first[name] if name in COUNT_METRICS
                     else (first[name] + second[name]) / 2)
              for name in first}
    merged["slowest_cell_s"] = max(cell_seconds(untraced))
    return merged, drift


def report(metrics: dict[str, float], units: dict[str, str], *,
           correct: bool, attempted_cells: int, failed: int) -> dict:
    return {"correct": correct, "attempted": attempted_cells,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


# -- pins ---------------------------------------------------------------------
def pin(root: Path, workload: str, seeds: list[int]) -> None:
    """Record every cell's result digest for ``seeds``, keyed by the
    hash of the cell's spec."""
    pins = load_pins()
    for seed in seeds:
        record = run_child(root, workload, seed)
        problems = [f"{c['label']}: {c['problems']}"
                    for c in record["cells"] if c["problems"]]
        if problems:
            raise BenchError(f"seed {seed} has failing cells: {problems}")
        for cell in record["cells"]:
            pins[cell["spec"]] = {"cell": f"{workload} {cell['label']}",
                                  "seed": seed, "digest": cell["digest"]}
        print(f"pinned {workload} seed {seed}", file=sys.stderr)
    with open(PINS, "w") as fp:
        json.dump(pins, fp, indent=1, sort_keys=True)
        fp.write("\n")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the repro simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", metavar="SEEDS",
                        help="write digests for SEEDS (e.g. 0-9,42) to "
                             "pins.json instead of measuring")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    try:
        if args.pin:
            pin(root, args.workload, parse_seeds(args.pin))
            return 0
        pins = load_pins()
        fig3a = (fig3a_table(root)
                 if args.workload == "restore-sweep" and args.seed == 0
                 else None)
        if args.trace:
            passes = [run_child(root, args.workload, args.seed)]
            # The two traced passes run side by side, one per CPU: only
            # their counts are compared, and it halves the run's length.
            passes += run_children(root, args.workload, args.seed, [
                ("--trace", str(root / OUT_DIR / (
                    f"trace-{args.workload}-seed{args.seed}-{n}.json")))
                for n in (1, 2)])
            metrics, errors = traced_metrics(passes)
            units = PER_LAYER_UNITS
        else:
            passes, setups = timed_passes(root, args.workload, args.seed,
                                          args.seconds)
            metrics, errors = end_to_end(passes, setups), []
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    digests = {tuple(c["digest"] for c in p["cells"]) for p in passes}
    if len(digests) > 1:
        errors.append("result digests differ between passes of one seed")
    failures = cell_failures(passes, pins, fig3a)
    for line in errors + failures:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(report(metrics, units, correct=not (errors or failures),
                            attempted_cells=attempted(passes),
                            failed=len(failures))))
    return 0


if __name__ == "__main__":
    # Terminated, unwind like an error so running passes are killed and
    # waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
