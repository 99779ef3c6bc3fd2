"""Command-line interface: ``python -m repro <command>``.

Commands:
  list                         the 13 evaluated functions and 7 approaches
  run FN APPROACH [-n N]       one scenario, printed as a one-line report
                               (--ram-gib sizes the frame pool and turns
                               on watermark reclaim; --evict-policy
                               attaches a BPF eviction policy)
  table1                       regenerate the paper's Table 1
  fig {3a,3b,3c,4,overheads,mem,cluster,traffic,storage}
                               regenerate one figure (or --all), sweeping
                               the scenario matrix across --jobs workers:
                               "mem" is the memory-pressure elasticity
                               figure, "cluster" routing policies x fleet
                               sizes, "traffic" restore approaches x
                               keep-alive policies under Zipf/diurnal/
                               burst multi-tenant load (plus per-tenant
                               SLO tables), and "storage" snapshot tier
                               configurations x routing policies (plus
                               dedup and bytes per tier); --quick shrinks
                               the last three to CI size
  chaos FN [APPROACH ...]      serve a request train under a seeded fault
                               schedule; report degradation counters
  trace FN APPROACH            run one scenario with span tracing on and
                               write a chrome://tracing-loadable JSON
                               (plus optional JSONL)
  cluster FN [APPROACH]        run a multi-node fleet behind the routing
                               gateway (--policy, --nodes, --autoscale,
                               --node-crash-rate)
  serve --attach STATE.json    serve the live control-room dashboard for
                               a run started elsewhere with
                               --serve-state (HTTP + SSE + /metrics)

``run``, ``fig`` and ``chaos`` share the sweep flags (one parent
parser, resolved into a single
:class:`~repro.harness.sweep.SweepOptions` value handed to the runners):
``--jobs N`` fans independent scenario cells out over N worker
processes (results are byte-identical for every N), ``--cache-dir DIR``
persists each finished cell in a content-addressed store *as it
completes* so interrupted or warm reruns resume from exactly what was
already computed, and ``--no-cache`` ignores the store for one
invocation.  The supervisor flags ride along: ``--timeout``
puts a deadline on every cell, ``--max-retries`` bounds retries for
worker crashes and timeouts, ``--keep-going`` finishes the sweep and
reports permanently-failed cells in a failure manifest
(``--failure-manifest PATH``) instead of aborting, and the
``--sweep-kill-rate``/``--sweep-hang-rate``/``--sweep-tear-rate``
chaos knobs SIGKILL workers, hang cells past their deadline, and tear
store writes to prove all of the above works.

Those three commands and ``cluster`` share the serve flags, a second
parent parser; ``cluster`` runs one fleet, not a sweep, and takes only
these.  ``--serve`` self-hosts the control-room dashboard (``/``), the
Prometheus scrape endpoint (``/metrics``), and the SSE stream
(``/api/events``) for the duration of the run; ``--serve-state PATH``
atomically publishes each state snapshot to a JSON file that a
separate ``repro serve --attach PATH`` process can watch;
``--serve-hold`` keeps the server up after the run finishes until
SIGINT/SIGTERM (CI smoke tests, long scrapes).
Serving is observation-only: results, figures, and fingerprints are
byte-identical with and without it.

Examples:
  python -m repro run bert snapbpf -n 10
  python -m repro run json snapbpf -n 10 --ram-gib 0.25 --evict-policy protect-head
  python -m repro fig 3c --functions bfs,bert
  python -m repro fig mem --functions json
  python -m repro fig --all --jobs 4 --cache-dir .sweep-cache
  python -m repro fig --all --jobs 4 --timeout 300 --keep-going \\
      --failure-manifest failures.json --cache-dir .sweep-cache
  python -m repro fig 3a --jobs 2 --sweep-kill-rate 0.5 --max-retries 3
  python -m repro chaos json snapbpf linux-ra --fault-seed 7
  python -m repro trace json snapbpf -o restore.json --jsonl spans.jsonl
  python -m repro cluster json snapbpf --policy snapshot-locality --nodes 4
  python -m repro fig cluster --jobs 4 --cache-dir .sweep-cache
  python -m repro fig traffic --quick --jobs 2
  python -m repro fig storage --jobs 4 --cache-dir .sweep-cache
  python -m repro fig --all --serve --serve-port 8040
  python -m repro fig --all --serve-state /tmp/repro-state.json &
  python -m repro serve --attach /tmp/repro-state.json --port 8040
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
import threading

from repro import GIB, MIB, FUNCTIONS, approach_registry, profile_by_name, run_scenario
from repro.core.policies import policy_names
from repro.faults import FaultConfig
from repro.harness import figures as F
from repro.harness.chaos import DEFAULT_CHAOS, render_chaos, run_chaos_suite
from repro.harness.experiment import ResultCache
from repro.harness.report import render_figure, render_table1
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import (
    SweepFailure,
    SweepInterrupted,
    SweepOptions,
    SweepRunner,
    write_failure_manifest,
)


def cmd_list(_args) -> int:
    print("functions:")
    for profile in FUNCTIONS:
        print(f"  {profile.name:12s} mem {profile.mem_bytes // MIB:5d} MiB  "
              f"ws {profile.ws_bytes // MIB:4d} MiB  "
              f"alloc {profile.alloc_bytes // MIB:4d} MiB  "
              f"compute {profile.compute_seconds * 1e3:5.0f} ms")
    print("approaches:")
    for name in sorted(approach_registry()):
        print(f"  {name}")
    return 0


def _wait_for_signal() -> None:
    """Block the main thread until SIGINT/SIGTERM, then return (so the
    caller can shut its server down and exit 0)."""
    fired = threading.Event()

    def handler(_signum, _frame) -> None:
        fired.set()

    restore = []
    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            restore.append((sig, signal.signal(sig, handler)))
    except (ValueError, OSError):
        pass  # non-main thread / exotic platform: fall through and wait
    try:
        while not fired.wait(timeout=1.0):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        for sig, previous in restore:
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):
                pass


class _ServeContext:
    """The shared --serve/--serve-state flags, resolved to a running
    telemetry hub + HTTP server around one command invocation.

    ``hub`` is None when serving is off — every call site passes it
    straight through as the ``telemetry=`` argument, so the disabled
    path is the exact pre-serve code path (identity guarantee).
    """

    def __init__(self, opts: SweepOptions):
        self.opts = opts
        self.hub = None
        self.server = None
        if not opts.serve and not opts.serve_state:
            return
        from repro.serve import TelemetryHub, TelemetryServer
        self.hub = TelemetryHub(state_path=opts.serve_state)
        if opts.serve:
            self.server = TelemetryServer(self.hub, host=opts.serve_host,
                                          port=opts.serve_port)
            self.server.start()
            print(f"serve: control room at {self.server.url} "
                  f"(/metrics, /api/state, /api/events)", file=sys.stderr)

    def attach_cache(self, cache: ResultCache) -> None:
        """Expose the sweep cache's registry on /metrics and in the
        dashboard's metrics table."""
        if self.hub is not None:
            self.hub.attach_registry(cache.metrics)

    def finish(self) -> None:
        """Flush the final snapshot; honor --serve-hold; stop serving.
        Runs in a ``finally`` so a failed sweep still tears down."""
        if self.hub is None:
            return
        self.hub.publish(force=True)
        if self.server is not None and self.opts.serve_hold:
            print("serve: run finished, holding for scrapes "
                  "(SIGTERM/Ctrl-C to exit)", file=sys.stderr)
            _wait_for_signal()
        if self.server is not None:
            self.server.stop()


def _sweep(runner: SweepRunner, specs, opts: SweepOptions) -> dict:
    """Run specs through the supervisor, honoring --failure-manifest
    whatever the outcome (an empty manifest is evidence of a clean
    sweep; a partial one is the resume/debugging artifact)."""
    try:
        return runner.run(specs)
    finally:
        if opts.failure_manifest:
            runner.write_manifest(opts.failure_manifest)


def cmd_run(args) -> int:
    try:
        profile = profile_by_name(args.function)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    spec = ScenarioSpec(function=profile, approach=args.approach,
                        n_instances=args.instances,
                        vary_inputs=args.vary_inputs,
                        device_kind=args.device,
                        ram_bytes=(int(args.ram_gib * GIB)
                                   if args.ram_gib else None),
                        evict_policy=args.evict_policy)
    opts = SweepOptions.from_args(args)
    cache = ResultCache(store=opts.make_store())
    serving = _ServeContext(opts)
    serving.attach_cache(cache)
    runner = opts.make_runner(cache, telemetry=serving.hub)
    try:
        result = _sweep(runner, [spec], opts).get(spec)
    finally:
        serving.finish()
    if result is None:
        print("error: scenario quarantined; see the failure manifest",
              file=sys.stderr)
        return 1
    if cache.store is not None:
        origin = "hit" if cache.disk_hits else "simulated, stored"
        print(f"cache: {origin} ({spec.stable_hash()[:12]})",
              file=sys.stderr)
    print(f"{profile.name}/{args.approach} x{args.instances} "
          f"[{args.device}]:")
    print(f"  mean E2E      {result.mean_e2e * 1e3:10.1f} ms "
          f"(max {result.max_e2e * 1e3:.1f} ms)")
    print(f"  E2E p50/95/99 {result.p50_e2e * 1e3:10.1f} / "
          f"{result.p95_e2e * 1e3:.1f} / {result.p99_e2e * 1e3:.1f} ms")
    print(f"  dev p50/95/99 {result.device_p50_latency * 1e6:10.0f} / "
          f"{result.device_p95_latency * 1e6:.0f} / "
          f"{result.device_p99_latency * 1e6:.0f} us")
    print(f"  peak memory   {result.peak_memory_bytes / GIB:10.2f} GiB")
    print(f"  device reads  {result.device_bytes_read / MIB:10.1f} MiB in "
          f"{result.device_requests} requests")
    for key, value in sorted(result.extra.items()):
        print(f"  {key:13s} {value:10.4g}")
    return 0


def cmd_table1(_args) -> int:
    print(render_table1(F.table_1()))
    return 0


def cmd_fig(args) -> int:
    if args.all:
        figures = list(F.FIGURES)
    elif args.figure:
        figures = [args.figure]
    else:
        print("error: name a figure or pass --all", file=sys.stderr)
        return 2
    functions = args.functions.split(",") if args.functions else None
    opts = SweepOptions.from_args(args)
    cache = ResultCache(store=opts.make_store())
    serving = _ServeContext(opts)
    serving.attach_cache(cache)
    runner = opts.make_runner(cache, telemetry=serving.hub)
    try:
        _sweep(runner, F.matrix_specs(figures, functions, args.quick), opts)
        if runner.last_manifest:
            print(f"warning: {len(runner.last_manifest)} cell(s) "
                  f"quarantined; figures will re-attempt them inline",
                  file=sys.stderr)
        for figure in figures:
            data = F.build_figure(figure, cache, functions=functions,
                                  quick=args.quick)
            print("\n".join([render_figure(data), *data.summary]))
    finally:
        serving.finish()
    print(runner.last_stats.summary(), file=sys.stderr)
    return 0


def cmd_chaos(args) -> int:
    try:
        profile = profile_by_name(args.function)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    known = sorted(approach_registry())
    approaches = args.approaches or known
    for name in approaches:
        if name not in known:
            print(f"error: unknown approach {name!r}; choose from {known}",
                  file=sys.stderr)
            return 2
    overrides = {}
    if args.media_error_rate is not None:
        overrides["media_error_rate"] = args.media_error_rate
    if args.attach_failure_rate:
        overrides["attach_failure_rate"] = args.attach_failure_rate
    if args.reclaim_stall_rate:
        overrides["reclaim_stall_rate"] = args.reclaim_stall_rate
    config = DEFAULT_CHAOS
    if overrides:
        try:
            config = dataclasses.replace(DEFAULT_CHAOS, **overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failures: list = []
    opts = SweepOptions.from_args(args)
    serving = _ServeContext(opts)
    try:
        results = run_chaos_suite(profile, approaches, config=config,
                                  fault_seed=args.fault_seed,
                                  n_requests=args.requests,
                                  request_deadline=args.deadline,
                                  device_kind=args.device,
                                  ram_bytes=(int(args.ram_gib * GIB)
                                             if args.ram_gib else None),
                                  jobs=opts.jobs, store=opts.make_store(),
                                  timeout=opts.timeout,
                                  max_retries=opts.max_retries,
                                  keep_going=opts.keep_going,
                                  injector=opts.make_injector(),
                                  failures_out=failures,
                                  telemetry=serving.hub)
    finally:
        serving.finish()
    if args.failure_manifest:
        write_failure_manifest(args.failure_manifest, failures)
    if failures:
        print(f"warning: {len(failures)} chaos cell(s) quarantined",
              file=sys.stderr)
    print(render_chaos(results))
    return 0


def cmd_trace(args) -> int:
    try:
        profile = profile_by_name(args.function)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    from repro.harness.experiment import make_kernel
    from repro.trace import write_chrome, write_jsonl

    kernel = make_kernel(args.device)
    kernel.tracer.enable()
    result = run_scenario(ScenarioSpec(function=profile,
                                       approach=args.approach,
                                       n_instances=args.instances,
                                       device_kind=args.device),
                          kernel=kernel)
    tracer = kernel.tracer
    with open(args.out, "w") as fp:
        write_chrome(tracer, fp)
    print(f"wrote {len(tracer)} spans to {args.out} "
          f"(load in chrome://tracing or Perfetto)")
    if args.jsonl:
        with open(args.jsonl, "w") as fp:
            write_jsonl(tracer, fp)
        print(f"wrote JSONL spans to {args.jsonl}")
    if tracer.dropped:
        print(f"warning: {tracer.dropped} spans dropped (buffer full)")
    print(f"mean E2E {result.mean_e2e * 1e3:.1f} ms over "
          f"{args.instances} instance(s); simulated time by category:")
    for cat, total in sorted(tracer.category_totals().items(),
                             key=lambda kv: -kv[1]):
        print(f"  {cat:12s} {total * 1e3:10.3f} ms")
    return 0


def cmd_cluster(args) -> int:
    try:
        profile = profile_by_name(args.function)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    from repro.cluster import ClusterSpec
    from repro.cluster.runner import run_cluster

    try:
        cspec = ClusterSpec(
            n_nodes=args.nodes, policy=args.policy,
            n_functions=args.cluster_functions,
            rate_per_function=args.rate, duration=args.duration,
            warm_pool_ttl=args.warm_ttl, autoscale=args.autoscale,
            target_inflight=args.target_inflight,
            min_nodes=args.min_nodes, max_nodes=args.max_nodes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = ScenarioSpec(function=profile, approach=args.approach,
                        device_kind=args.device, cluster=cspec)
    fault_config = None
    if args.node_crash_rate:
        try:
            fault_config = dataclasses.replace(
                FaultConfig(), node_crash_rate=args.node_crash_rate)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    serving = _ServeContext(SweepOptions.from_args(args))
    try:
        report = run_cluster(spec, fault_config=fault_config,
                             fault_seed=args.fault_seed,
                             telemetry=serving.hub)
    finally:
        serving.finish()
    print(f"{profile.name}/{spec.approach} cluster: {cspec}")
    print(f"  requests      {report.requests:10d} "
          f"(completed {report.completed}, timeouts {report.timeouts}, "
          f"failures {report.failures})")
    print(f"  cold starts   {report.cold_starts:10d} "
          f"(ratio {report.cold_ratio:.3f}, warm {report.warm_starts})")
    print(f"  latency       {report.mean_latency() * 1e3:10.1f} ms mean, "
          f"p50/95/99 {report.percentile(50) * 1e3:.1f} / "
          f"{report.percentile(95) * 1e3:.1f} / "
          f"{report.percentile(99) * 1e3:.1f} ms")
    peak_nodes = int(max((n for _, n in report.node_timeline), default=0))
    print(f"  node seconds  {report.node_seconds():10.1f} "
          f"(peak {peak_nodes} nodes)")
    per_node = ", ".join(f"node{node}:{count}"
                         for node, count in report.per_node_served().items())
    print(f"  served/node   {per_node or '-':>10s}")
    for key in ("cluster_scale_ups_total", "cluster_scale_downs_total",
                "cluster_node_crashes_total", "cluster_crash_reroutes_total",
                "cluster_rebalance_evictions_total",
                "cluster_locality_overflow_routes"):
        value = report.metrics.get(key, 0)
        if value:
            print(f"  {key:33s} {value:10.0f}")
    return 0


def cmd_serve(args) -> int:
    """Attach mode: serve the dashboard for a run publishing its state
    elsewhere (``--serve-state``), until SIGINT/SIGTERM (exit 0)."""
    from repro.serve import StateFileWatcher, TelemetryHub, TelemetryServer

    hub = TelemetryHub()
    watcher = StateFileWatcher(args.attach, hub,
                               interval=args.poll_interval)
    if not watcher.poll_once():
        print(f"serve: waiting for {args.attach} to appear "
              f"(start the run with --serve-state)", file=sys.stderr)
    watcher.start()
    server = TelemetryServer(hub, host=args.host, port=args.port)
    server.start()
    print(f"serve: control room at {server.url} "
          f"(attached to {args.attach})", file=sys.stderr)
    try:
        _wait_for_signal()
    finally:
        watcher.stop()
        server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SnapBPF reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    # Sweep and supervisor flags shared by run/fig/chaos (same
    # semantics everywhere).
    sweep_flags = argparse.ArgumentParser(add_help=False)
    sweep_flags.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes for independent scenario cells "
             "(any value yields byte-identical results)")
    sweep_flags.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist each finished cell in a content-addressed store "
             "as it completes; interrupted and warm reruns resume from "
             "what is already there")
    sweep_flags.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir for this invocation")
    sweep_flags.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell deadline; a cell that exceeds it is torn down "
             "and retried (default: unbounded)")
    sweep_flags.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="retries per cell for transient failures (worker crashes, "
             "deadline expiries) beyond the first attempt (default: 2)")
    sweep_flags.add_argument(
        "--keep-going", action="store_true",
        help="finish the sweep and report permanently-failed cells in "
             "the failure manifest instead of aborting on the first one")
    sweep_flags.add_argument(
        "--failure-manifest", default=None, metavar="PATH",
        help="write the failure manifest (spec hashes + last errors) "
             "here, even when empty")
    sweep_flags.add_argument(
        "--sweep-kill-rate", type=float, default=0.0, metavar="RATE",
        help="chaos: probability a cell's first attempt SIGKILLs its "
             "worker (retries run clean)")
    sweep_flags.add_argument(
        "--sweep-hang-rate", type=float, default=0.0, metavar="RATE",
        help="chaos: probability a cell's first attempt hangs past the "
             "--timeout deadline")
    sweep_flags.add_argument(
        "--sweep-tear-rate", type=float, default=0.0, metavar="RATE",
        help="chaos: probability a finished cell's store write is torn "
             "mid-file (the next load quarantines it)")
    sweep_flags.add_argument(
        "--sweep-fault-seed", type=int, default=0,
        help="seed for the --sweep-*-rate chaos draws")
    # Serve flags: run/fig/chaos, and cluster, which runs one fleet and
    # takes only these.
    serve_flags = argparse.ArgumentParser(add_help=False)
    serve_flags.add_argument(
        "--serve", action="store_true",
        help="self-host the live control-room dashboard, /metrics "
             "scrape endpoint, and /api/events SSE stream for the "
             "duration of the run (observation-only)")
    serve_flags.add_argument(
        "--serve-host", default="127.0.0.1", metavar="HOST",
        help="bind address for --serve (default: 127.0.0.1)")
    serve_flags.add_argument(
        "--serve-port", type=int, default=8040, metavar="PORT",
        help="bind port for --serve; 0 picks an ephemeral port "
             "(default: 8040)")
    serve_flags.add_argument(
        "--serve-state", default=None, metavar="PATH",
        help="atomically publish each telemetry snapshot to this JSON "
             "file so 'repro serve --attach PATH' can watch the run")
    serve_flags.add_argument(
        "--serve-hold", action="store_true",
        help="with --serve: keep serving after the run finishes until "
             "SIGINT/SIGTERM (CI smoke tests, manual inspection)")

    sub.add_parser("list", help="list functions and approaches")

    run_parser = sub.add_parser("run", help="run one scenario",
                                parents=[sweep_flags, serve_flags])
    run_parser.add_argument("function")
    run_parser.add_argument("approach",
                            choices=sorted(approach_registry()))
    run_parser.add_argument("-n", "--instances", type=int, default=1)
    run_parser.add_argument("--device", choices=("ssd", "hdd"),
                            default="ssd")
    run_parser.add_argument("--vary-inputs", action="store_true",
                            help="give each instance a different input")
    run_parser.add_argument(
        "--ram-gib", type=float, default=None, metavar="GIB",
        help="frame-pool size in GiB; enables watermarks + kswapd "
             "(default: 256 GiB pool, pressure plane off)")
    run_parser.add_argument(
        "--evict-policy", choices=policy_names(), default=None,
        help="attach a named BPF eviction policy to the reclaim hook")

    sub.add_parser("table1", help="regenerate Table 1")

    fig_parser = sub.add_parser("fig", help="regenerate figures",
                                parents=[sweep_flags, serve_flags])
    fig_parser.add_argument("figure", nargs="?", default=None,
                            choices=F.FIGURES)
    fig_parser.add_argument("--all", action="store_true",
                            help="regenerate every figure in one sweep")
    fig_parser.add_argument("--functions", default="",
                            help="comma-separated subset of functions")
    fig_parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized variants of the cluster, traffic and storage "
             "figures (the others are sized by --functions)")

    chaos_parser = sub.add_parser(
        "chaos", help="serve requests under a seeded fault schedule",
        parents=[sweep_flags, serve_flags])
    chaos_parser.add_argument("function")
    chaos_parser.add_argument("approaches", nargs="*",
                              metavar="approach",
                              help="approaches to stress (default: all)")
    chaos_parser.add_argument("--fault-seed", type=int, default=0)
    chaos_parser.add_argument("-n", "--requests", type=int, default=8)
    chaos_parser.add_argument("--deadline", type=float, default=None,
                              help="per-request deadline in seconds")
    chaos_parser.add_argument("--media-error-rate", type=float, default=None,
                              help="override the default 1%% media error rate")
    chaos_parser.add_argument("--attach-failure-rate", type=float, default=0.0,
                              help="probability each BPF attach fails")
    chaos_parser.add_argument(
        "--reclaim-stall-rate", type=float, default=0.0,
        help="probability each kswapd wakeup stalls before scanning")
    chaos_parser.add_argument(
        "--ram-gib", type=float, default=None, metavar="GIB",
        help="frame-pool size in GiB; enables watermarks + kswapd")
    chaos_parser.add_argument("--device", choices=("ssd", "hdd"),
                              default="ssd")

    trace_parser = sub.add_parser(
        "trace", help="run one scenario with span tracing enabled")
    trace_parser.add_argument("function")
    trace_parser.add_argument("approach",
                              choices=sorted(approach_registry()))
    trace_parser.add_argument("-n", "--instances", type=int, default=1)
    trace_parser.add_argument("-o", "--out", default="trace.json",
                              help="Chrome trace output path")
    trace_parser.add_argument("--jsonl", default=None,
                              help="also write one-span-per-line JSONL")
    trace_parser.add_argument("--device", choices=("ssd", "hdd"),
                              default="ssd")

    cluster_parser = sub.add_parser(
        "cluster", help="run a multi-node fleet behind the routing gateway",
        parents=[serve_flags])
    cluster_parser.add_argument("function", help="base function profile "
                                "the cluster's function mix is cloned from")
    cluster_parser.add_argument("approach", nargs="?", default="snapbpf",
                                choices=sorted(approach_registry()),
                                help="restore approach (default: snapbpf)")
    cluster_parser.add_argument("--policy", default="snapshot-locality",
                                help="routing policy")
    cluster_parser.add_argument("--nodes", type=int, default=2,
                                help="fleet size")
    cluster_parser.add_argument("--cluster-functions", type=int, default=4,
                                metavar="N",
                                help="function clones in the mix")
    cluster_parser.add_argument("--rate", type=float, default=1.0,
                                help="arrivals/second per function")
    cluster_parser.add_argument("--duration", type=float, default=8.0,
                                help="arrival-stream duration in seconds")
    cluster_parser.add_argument("--warm-ttl", type=float, default=1.5,
                                help="warm-pool TTL per node in seconds")
    cluster_parser.add_argument("--autoscale", action="store_true",
                                help="run the cluster autoscaler loop")
    cluster_parser.add_argument("--target-inflight", type=float, default=4.0,
                                help="scale-up threshold, in-flight per node")
    cluster_parser.add_argument("--min-nodes", type=int, default=1)
    cluster_parser.add_argument("--max-nodes", type=int, default=8)
    cluster_parser.add_argument(
        "--node-crash-rate", type=float, default=0.0,
        help="probability a node is killed per crash opportunity")
    cluster_parser.add_argument("--fault-seed", type=int, default=0)
    cluster_parser.add_argument("--device", choices=("ssd", "hdd"),
                                default="ssd")

    serve_parser = sub.add_parser(
        "serve", help="serve the control-room dashboard for a run "
                      "publishing --serve-state elsewhere")
    serve_parser.add_argument(
        "--attach", required=True, metavar="STATE.json",
        help="state file the watched run writes via --serve-state")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8040,
                              help="0 picks an ephemeral port")
    serve_parser.add_argument("--poll-interval", type=float, default=0.5,
                              metavar="SECONDS",
                              help="state-file poll cadence")

    args = parser.parse_args(argv)
    if hasattr(args, "sweep_kill_rate"):
        try:
            # Validates the --sweep-*-rate flags before any work starts.
            SweepOptions.from_args(args).make_injector()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    handler = {"list": cmd_list, "run": cmd_run, "table1": cmd_table1,
               "fig": cmd_fig, "chaos": cmd_chaos, "trace": cmd_trace,
               "cluster": cmd_cluster, "serve": cmd_serve}[args.command]
    try:
        return handler(args)
    except SweepFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if "MemoryError" in str(exc):
            print("hint: the frame pool cannot hold the scenario's pinned "
                  "anonymous footprint; raise --ram-gib", file=sys.stderr)
        else:
            print("hint: completed cells are checkpointed; rerun with "
                  "--keep-going (and --failure-manifest PATH) to finish "
                  "everything else", file=sys.stderr)
        return 1
    except SweepInterrupted as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
