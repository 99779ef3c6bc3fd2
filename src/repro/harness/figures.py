"""Regeneration of every table and figure in the paper's evaluation.

Each figure is one :class:`Figure` record in :data:`REGISTRY`: its
columns and row axes, the one function that names the scenario behind
each table cell, the value it plots, the paper's claims about it, and
optionally a per-cell summary and a CI-sized ``quick`` variant.
:func:`figure_specs` (what a sweep runs) and :func:`build_figure` (what
the table reads, and which claims it breaks) walk the same record, so
they cannot disagree about which cells exist.  A shared
:class:`~repro.harness.experiment.ResultCache` lets Figure 3b and 3c
reuse the same concurrent runs, exactly as the paper measures latency
and memory from one experiment; the ablations' default settings are
the paper figures' own cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import pairwise, product
from statistics import fmean
from typing import Callable

from repro.baselines.base import approach_registry
from repro.cluster.spec import ClusterSpec
from repro.harness.experiment import ResultCache
from repro.mm.costs import CostModel
from repro.snapstore.spec import SnapStoreSpec
from repro.workloads.traffic import TrafficSpec
from repro.harness.spec import ScenarioSpec
from repro.units import GIB, MIB, PAGE_SIZE
from repro.workloads.profile import FUNCTIONS, FunctionProfile, profile_by_name

# Ensure all approaches (incl. repro.core's) are registered on import.
import repro.baselines  # noqa: F401
import repro.core  # noqa: F401

#: Number of concurrent instances in the Figure 3b/3c experiments.
CONCURRENT_INSTANCES = 10

#: The cluster figure's sweep axes: routing policy x fleet size.
CLUSTER_POLICIES = ("random", "round-robin", "least-loaded",
                    "snapshot-locality")
CLUSTER_NODE_COUNTS = (2, 4)

#: The fleet figures (cluster, traffic, storage) default to ONE base
#: function (their cells are whole fleet simulations — 13 base
#: functions x 32 cells would dwarf every other figure combined); pass
#: ``functions=...`` to widen them.
CLUSTER_BASE_FUNCTIONS = ("json",)

#: The restore-approach columns of the cluster and traffic figures.
FLEET_APPROACHES = ("linux-ra", "reap", "faasnap", "snapbpf")


def cluster_cell_spec(profile: FunctionProfile, approach: str,
                      policy: str, n_nodes: int,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one cluster-figure cell."""
    return ScenarioSpec(
        function=profile, approach=approach,
        cluster=ClusterSpec(n_nodes=n_nodes, policy=policy,
                            **cluster_kwargs))


#: The traffic figure's keep-alive axis.
TRAFFIC_KEEPALIVES = ("fixed", "histogram")

#: Metrics plotted per (keep-alive, metric) row of the traffic figure:
#: ScenarioResult.extra key and a display label.
TRAFFIC_METRICS = (("traffic_cold_ratio", "cold-ratio"),
                   ("traffic_p999_e2e", "p99.9-e2e"))


def default_traffic_spec(quick: bool = False) -> TrafficSpec:
    """The committed traffic-figure workload: 10k functions, ~1.3M total
    invocations across the 4 approaches x 2 keep-alive cells (quick:
    a CI-sized shrink of the same shape)."""
    if quick:
        return TrafficSpec(n_functions=400, n_tenants=4, total_rps=80.0,
                           duration=10.0, diurnal_period=8.0, n_bursts=2,
                           burst_multiplier=3.0, burst_duration=2.0)
    return TrafficSpec(n_functions=10_000, n_tenants=8, total_rps=2500.0,
                       duration=60.0, diurnal_period=40.0, n_bursts=6,
                       burst_multiplier=3.0, burst_duration=5.0)


def traffic_cluster_kwargs(quick: bool = False) -> dict:
    """Fleet shape for one traffic cell (slots sized so the slowest
    approach, linux-ra cold starts, fits below capacity outside bursts)."""
    if quick:
        return {"n_nodes": 3, "overflow_inflight": 8}
    return {"n_nodes": 48, "overflow_inflight": 32}


def traffic_cell_spec(profile: FunctionProfile, approach: str,
                      keepalive: str,
                      traffic: TrafficSpec | None = None,
                      quick: bool = False,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one traffic-figure cell."""
    kwargs = {**traffic_cluster_kwargs(quick), **cluster_kwargs}
    return ScenarioSpec(
        function=profile, approach=approach,
        cluster=ClusterSpec(
            keepalive=keepalive,
            traffic=traffic or default_traffic_spec(quick), **kwargs))

#: The storage figure's tier axis: snapstore configurations swept
#: against the flat-file baseline.  ``local`` is the identity
#: configuration (results byte-identical to ``flat``); ``tiered`` caps
#: the local tier so demotion to the HDD tier actually happens.
STORAGE_TIERS: dict[str, SnapStoreSpec | None] = {
    "flat": None,
    "local": SnapStoreSpec(),
    "base-local": SnapStoreSpec(placement="base-local"),
    "tiered": SnapStoreSpec(placement="base-local", hdd_tier=True,
                            local_capacity_bytes=256 * MIB),
    "remote": SnapStoreSpec(placement="remote"),
}

#: The storage figure's routing axis: the locality-vs-random margin is
#: the point (a locality miss now costs real staged remote fetches).
STORAGE_POLICIES = ("random", "snapshot-locality")

STORAGE_NODE_COUNT = 4

#: Metrics reported per (tier, policy) row of the storage figure:
#: ScenarioResult.extra key, display label, and scale factor.
STORAGE_METRICS = (
    ("cluster_cold_ratio", "cold-ratio", 1.0),
    ("cluster_p99_latency", "p99-e2e", 1.0),
    ("snapstore_dedup_factor", "dedup", 1.0),
    ("snapstore_local_bytes", "local-GiB", 1.0 / GIB),
    ("snapstore_hdd_bytes", "hdd-GiB", 1.0 / GIB),
    ("snapstore_remote_bytes", "remote-GiB", 1.0 / GIB),
)


def storage_cluster_kwargs(quick: bool = False) -> dict:
    """Cluster workload of one storage-figure cell; ``quick`` shrinks it
    to CI smoke size."""
    if quick:
        return dict(n_functions=2, duration=3.0)
    return {}


def storage_cell_spec(profile: FunctionProfile, approach: str,
                      tier: str, policy: str,
                      n_nodes: int = STORAGE_NODE_COUNT,
                      **cluster_kwargs) -> ScenarioSpec:
    """The canonical spec for one storage-figure cell."""
    return ScenarioSpec(
        function=profile, approach=approach,
        snapstore=STORAGE_TIERS[tier],
        cluster=ClusterSpec(n_nodes=n_nodes, policy=policy,
                            **cluster_kwargs))


#: Approaches whose restore installs private anonymous frames via
#: userfaultfd (per-VM, unreclaimable) rather than shared page-cache
#: pages.  Used to compose the memory-pressure figure and to size pools.
UFFD_APPROACHES = ("reap", "faast")

#: Frame-pool headroom factors for the memory-pressure figure: 1.0
#: leaves the full reclaimable set resident, 0.25 forces the kernel to
#: shed three quarters of it.  REAP's pool is sized by the same formula
#: but its reclaimable set is empty — its frames are pinned anonymous.
MEM_HEADROOMS = (1.0, 0.25)


def pressure_ram_bytes(profile: FunctionProfile, approach: str,
                       n_instances: int, headroom: float) -> int:
    """Frame-pool size that leaves ``headroom`` of the run's reclaimable
    pages worth of room above its unreclaimable footprint.

    The unreclaimable floor is composed per approach: userfaultfd
    restores pin ``n x (ws + alloc)`` anonymous frames; page-cache
    restores pin ``n x (alloc + written)`` anonymous frames (runtime
    allocations plus CoW copies of written pages) plus the still-mapped
    ``ws - written`` file pages shared by all instances.  The reclaimable
    set is the file pages whose last mapping went away (CoW-released
    written pages) — or, for uffd, the spent record-phase cache fill.
    """
    ws = profile.ws_pages
    alloc = profile.alloc_pages
    written = int(ws * profile.write_frac)
    if approach in UFFD_APPROACHES:
        anon = n_instances * (ws + alloc)
        pinned_file = 0
        reclaimable = ws
    else:
        anon = n_instances * (alloc + written)
        pinned_file = ws - written
        reclaimable = written
    slack = 256  # allocator churn: in-flight fills, transient CoW pairs
    return (anon + pinned_file + int(reclaimable * headroom)
            + slack) * PAGE_SIZE


@dataclass
class FigureData:
    """One regenerated figure: functions x series -> value."""

    figure: str
    ylabel: str
    functions: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    notes: str = ""
    #: Per-cell text printed after the table (traffic, storage).
    summary: list[str] = field(default_factory=list)
    #: The text of every claim the table breaks.
    failed_claims: list[str] = field(default_factory=list)

    def value(self, function: str, series: str) -> float:
        return self.series[series][self.functions.index(function)]

    def as_rows(self) -> list[list[str]]:
        header = ["function"] + list(self.series)
        rows = [header]
        for i, function in enumerate(self.functions):
            rows.append([function] + [f"{self.series[s][i]:.3f}"
                                      for s in self.series])
        return rows


def _profiles(functions, default=FUNCTIONS) -> list[FunctionProfile]:
    """Profiles (or names) to build, defaulting to ``default``."""
    return [p if isinstance(p, FunctionProfile) else profile_by_name(p)
            for p in (default if functions is None else functions)]


def _profile_name(profile: FunctionProfile, *_point) -> str:
    return profile.name


@dataclass(frozen=True)
class Claim:
    """A shape the paper reports that a figure's table must show.

    ``holds(value, functions)`` reads the printed table through
    ``value(function, column, *row)`` for the build's base functions,
    where ``row`` is what the figure's ``label`` reads after the profile:
    nothing for one row per function, ``(*point, metric)`` otherwise.
    A claim that names ``functions`` is about those only: it reads the
    ones the build has, and none when it has none of them.
    """

    text: str
    holds: Callable[..., bool]
    functions: tuple[str, ...] | None = None


def _each(holds: Callable[..., bool]) -> Callable[..., bool]:
    """A claim that holds for every function on its own: ``holds(value)``
    with ``value(column, *row)`` reading one function's rows."""
    return lambda value, functions: all(
        holds(partial(value, function)) for function in functions)


@dataclass(frozen=True)
class Figure:
    """One figure's declaration.

    Table rows are ``(profile, *point, metric)`` for each base function
    profile, each point of the ``axes`` product, and each entry of
    ``metrics``.  The cell in row ``(profile, *point, metric)`` and
    column ``c`` plots ``value(result, c, metric)`` of the scenario
    ``cell(profile, c, *point)``.
    """

    ylabel: str
    columns: tuple
    #: ``(profile, column, *point) -> ScenarioSpec``: the only place a
    #: figure's cells are declared.
    cell: Callable[..., ScenarioSpec]
    #: ``(result, column, metric) -> float``: the plotted value.
    value: Callable[..., float]
    notes: str = ""
    #: Row axes swept between the function profile and the metric.
    axes: tuple[tuple, ...] = ()
    #: The innermost row axis: read from each cell, never swept.
    metrics: tuple = (None,)
    #: ``(profile, *point, metric) -> str``: the row label.
    label: Callable[..., str] = _profile_name
    #: ``column -> str``: the series name.
    series: Callable[..., str] = str
    #: The series every row is divided by.
    normalize: str | None = None
    #: ``(spec, result, *point) -> str``: text printed after the table,
    #: once per cell.
    summary: Callable[..., str] | None = None
    #: Function profiles (or names) a build covers by default.
    base_functions: tuple = FUNCTIONS
    #: Field overrides for the CI-sized variant (None: same as full).
    quick: dict | None = None
    #: What the paper says the table shows; ``fig`` exits 1 when a
    #: build breaks one.
    claims: tuple[Claim, ...] = ()


def _single(profile: FunctionProfile, approach: str) -> ScenarioSpec:
    return ScenarioSpec(function=profile, approach=approach)


def _concurrent(profile: FunctionProfile, approach: str) -> ScenarioSpec:
    return ScenarioSpec(function=profile, approach=approach,
                        n_instances=CONCURRENT_INSTANCES)


def _pressure_cell(profile: FunctionProfile, column) -> ScenarioSpec:
    approach, headroom = column
    return ScenarioSpec(
        function=profile, approach=approach,
        n_instances=CONCURRENT_INSTANCES,
        ram_bytes=pressure_ram_bytes(profile, approach,
                                     CONCURRENT_INSTANCES, headroom))


def _e2e(result, _column, _metric) -> float:
    return result.mean_e2e


def _map_load(result, column, _metric) -> float:
    """The offset load into the eBPF map, in ms or as a fraction of E2E."""
    load = result.extra.get("map_load_seconds", 0.0)
    if column == "map_load_ms":
        return load * 1e3
    return load / result.mean_e2e if result.mean_e2e else 0.0


def _footprint(result, column, _metric) -> float:
    """Per-VM anonymous GiB for uffd approaches (pinned), the shared
    file-backed GiB for page-cache approaches (reclaimable)."""
    if column[0] in UFFD_APPROACHES:
        return result.end_anon_bytes / CONCURRENT_INSTANCES / GIB
    return result.end_file_bytes / GIB


def _mem_series(column) -> str:
    approach, headroom = column
    kind = "anon/vm" if approach in UFFD_APPROACHES else "file"
    return f"{approach} {kind} g={headroom}"


def _traffic_summary(spec: ScenarioSpec, result, keepalive: str) -> str:
    """Headline plus the per-tenant SLO table, from the flat extras."""
    extra = result.extra
    lines = [f"{spec.function.name}/{spec.approach} [{keepalive}]: "
             f"{extra['traffic_invocations']:.0f} invocations, cold ratio "
             f"{extra['traffic_cold_ratio']:.4f}, p99.9 E2E "
             f"{extra['traffic_p999_e2e'] * 1e3:.1f} ms",
             "  tenant   requests  cold-ratio   p99 e2e p99.9 e2e  p99 cold"]
    for tenant in range(spec.cluster.traffic.n_tenants):
        slo = {key: extra[f"slo_t{tenant}_{key}"]
               for key in ("requests", "cold_ratio", "p99_e2e",
                           "p999_e2e", "p99_cold")}
        lines.append(f"  t{tenant:<7d} {slo['requests']:8.0f}  "
                     f"{slo['cold_ratio']:10.4f} "
                     f"{slo['p99_e2e'] * 1e3:8.1f}ms "
                     f"{slo['p999_e2e'] * 1e3:8.1f}ms "
                     f"{slo['p99_cold'] * 1e3:8.1f}ms")
    return "\n".join(lines)


def _storage_summary(spec: ScenarioSpec, result, tier: str,
                     policy: str) -> str:
    """Dedup factor and bytes per tier, from the flat extras."""
    head = f"{spec.function.name}/{spec.approach} [{tier} {policy}]:"
    extra = result.extra
    dedup = extra.get("snapstore_dedup_factor")
    if dedup is None:
        return f"{head} flat files (no snapstore)"
    fetched = extra.get("snapstore_remote_fetch_bytes", 0.0)
    return (f"{head} dedup {dedup:.2f}x, unique "
            f"{extra['snapstore_unique_bytes'] / MIB:.0f} MiB, local "
            f"{extra['snapstore_local_bytes'] / MIB:.0f} MiB, "
            f"remote fetched {fetched / MIB:.0f} MiB")


#: The ablations' rows: label and the result value it prints.
_E2E = ("E2E (s)", lambda result: result.mean_e2e)
_READ_MIB = ("bytes read (MiB)",
             lambda result: result.device_bytes_read / MIB)
_REQUESTS = ("I/O requests", lambda result: result.device_requests)
_PEAK_GIB = ("peak memory (GiB)",
             lambda result: result.peak_memory_bytes / GIB)
_REGIONS = ("regions", lambda result: result.extra["region_count"])
_INFLATION = ("inflation", lambda result: result.extra["inflation_ratio"])


def _read(result, _column, metric) -> float:
    return metric[1](result)


def _metric_label(profile: FunctionProfile, *point_metric) -> str:
    *point, metric = point_metric
    return " ".join([profile.name, *point, metric[0]])


#: A4: Linux-RA readahead windows in pages; 32 is the kernel's 128 KiB
#: default (Fig. 4's Linux-RA cell).
RA_WINDOWS = (0, 8, 32, 128, 256)


def _readahead_cell(profile: FunctionProfile, column) -> ScenarioSpec:
    if column == "snapbpf":
        return ScenarioSpec(profile, "snapbpf")
    return ScenarioSpec(profile, "linux-ra",
                        approach_params={"ra_pages": column})


#: A2: FaaSnap's coalescing gap in pages; 16 is its default (Fig. 3a's
#: FaaSnap cell).
GAP_THRESHOLDS = (0, 4, 16, 64, 256)


def _bpf_costs_scaled(factor: float) -> CostModel:
    """The calibrated cost model with only SnapBPF's own eBPF costs (map
    updates and lookups, program attach) scaled."""
    base = CostModel()
    return replace(base, bpf_map_update=base.bpf_map_update * factor,
                   bpf_map_lookup=base.bpf_map_lookup * factor,
                   bpf_prog_attach=base.bpf_prog_attach * factor)


#: X2's columns: approach and cost model (``None``: the calibrated one,
#: Fig. 3a's cells).
COST_COLUMNS = {
    "snapbpf 1x": ("snapbpf", None),
    "snapbpf bpf 10x": ("snapbpf", _bpf_costs_scaled(10.0)),
    "snapbpf cpu 4x": ("snapbpf", CostModel().scaled(4.0)),
    "reap 1x": ("reap", None),
    "reap cpu 4x": ("reap", CostModel().scaled(4.0)),
}


def _cost_cell(profile: FunctionProfile, column: str) -> ScenarioSpec:
    approach, costs = COST_COLUMNS[column]
    return ScenarioSpec(profile, approach, costs=costs)


#: Every figure, in ``fig --all`` order.
REGISTRY: dict[str, Figure] = {
    # Fig. 3a: single-instance E2E latency.
    "3a": Figure(
        "E2E latency (s)", ("reap", "faasnap", "snapbpf"),
        cell=_single, value=_e2e,
        claims=(
            Claim("SnapBPF within 10 % of REAP",
                  _each(lambda v: v("snapbpf") < 1.10 * v("reap"))),
            Claim("SnapBPF within 15 % of FaaSnap",
                  _each(lambda v: v("snapbpf") < 1.15 * v("faasnap"))),
            Claim("SnapBPF beats REAP on large working sets",
                  _each(lambda v: v("snapbpf") < v("reap")),
                  functions=("recognition", "rnn", "bfs", "bert")))),
    # Fig. 3b: E2E latency of concurrent instances, normalized.
    "3b": Figure(
        "E2E latency (normalized to Linux-NoRA)",
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        cell=_concurrent, value=_e2e, normalize="linux-nora",
        notes=f"{CONCURRENT_INSTANCES} concurrent instances, "
              f"identical inputs",
        claims=(
            Claim("SnapBPF beats Linux-NoRA",
                  _each(lambda v: v("snapbpf") < v("linux-nora") == 1.0)),
            Claim("SnapBPF beats Linux-RA",
                  _each(lambda v: v("snapbpf") < v("linux-ra"))),
            Claim("SnapBPF beats REAP",
                  _each(lambda v: v("snapbpf") < v("reap"))),
            Claim("REAP over 4x slower than SnapBPF (paper: 8x)",
                  _each(lambda v: v("reap") / v("snapbpf") > 4.0),
                  functions=("bert",)))),
    # Fig. 3c: system-wide memory of the same runs as 3b.
    "3c": Figure(
        "Memory consumption (GiB)",
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        cell=_concurrent,
        value=lambda result, _c, _m: result.peak_memory_bytes / GIB,
        notes=f"{CONCURRENT_INSTANCES} concurrent instances",
        claims=(
            Claim("SnapBPF needs less memory than REAP",
                  _each(lambda v: v("snapbpf") < v("reap"))),
            Claim("REAP needs over 3.5x SnapBPF's memory",
                  _each(lambda v: v("reap") / v("snapbpf") > 3.5),
                  functions=("bfs", "bert")))),
    # Fig. 4: PV PTE marking alone vs full SnapBPF (PV + eBPF prefetch).
    "4": Figure(
        "Normalized E2E latency (Linux-RA = 1.0)",
        ("linux-ra", "pv-ptes", "snapbpf"),
        cell=_single, value=_e2e, normalize="linux-ra",
        notes="single instance; lower is better",
        claims=(
            Claim("normalized to Linux-RA",
                  _each(lambda v: v("linux-ra") == 1.0)),
            Claim("PV PTE marking alone never hurts",
                  _each(lambda v: v("pv-ptes") <= 1.02)),
            Claim("eBPF prefetch only adds to PV PTE marking",
                  _each(lambda v: v("snapbpf") <= v("pv-ptes") + 0.02)),
            Claim("PV PTE marking alone over 2x faster",
                  _each(lambda v: v("pv-ptes") < 0.55),
                  functions=("image",)),
            Claim("PV PTE marking alone helps little",
                  _each(lambda v: v("pv-ptes") > 0.85),
                  functions=("rnn", "bert")),
            Claim("eBPF prefetch is the dominant factor",
                  _each(lambda v: v("snapbpf") < 0.6),
                  functions=("rnn", "bert")))),
    # §4 'SnapBPF Overheads': the offset load of single-instance SnapBPF.
    "overheads": Figure(
        "offset-load latency", ("map_load_ms", "fraction_of_e2e"),
        cell=lambda profile, _column: _single(profile, "snapbpf"),
        value=_map_load,
        notes="map-load ms and fraction of E2E; paper: ~1-2 ms, <1%",
        claims=(
            Claim("offset load under 1 % of E2E on average",
                  lambda v, functions: fmean(
                      v(f, "fraction_of_e2e") for f in functions) < 0.01),
            Claim("offset load under 5 ms",
                  _each(lambda v: v("map_load_ms") < 5.0)),
            Claim("offset load is charged",
                  _each(lambda v: v("map_load_ms") > 0.0)))),
    # Memory-pressure elasticity (Fig. 3c's dynamic claim): one series
    # per approach x headroom g, the pool sized by pressure_ram_bytes.
    # File series deflate with g; uffd anonymous frames cannot be shed.
    "mem": Figure(
        "End-of-run footprint (GiB)",
        tuple(product(("linux-ra", "reap", "snapbpf"), MEM_HEADROOMS)),
        cell=_pressure_cell, value=_footprint, series=_mem_series,
        notes=f"{CONCURRENT_INSTANCES} concurrent instances; g = headroom "
              f"over the unreclaimable floor; file series deflate under "
              f"pressure, anon/vm series stay pinned"),
    # Routing policy x fleet size: snapshot-locality routing cuts the
    # cold-start ratio versus random spraying for every approach.
    "cluster": Figure(
        "cold-start ratio", FLEET_APPROACHES, cell=cluster_cell_spec,
        value=lambda result, _c, _m: result.extra["cluster_cold_ratio"],
        axes=(CLUSTER_POLICIES, CLUSTER_NODE_COUNTS),
        label=lambda profile, policy, n_nodes, _m:
            f"{profile.name} {policy} n={n_nodes}",
        base_functions=CLUSTER_BASE_FUNCTIONS,
        notes="snapshot-locality keeps each function's snapshot pages "
              "hot on one node; random pays a cold cache per re-route",
        quick=dict(axes=(("random", "snapshot-locality"), (2,)),
                   cell=partial(cluster_cell_spec, duration=4.0))),
    # Production-shaped load (Zipf popularity, diurnal + burst arrivals,
    # multi-tenant mixes): approaches x keep-alive policies.
    "traffic": Figure(
        "cold-start ratio / p99.9 E2E (s)", FLEET_APPROACHES,
        cell=traffic_cell_spec,
        value=lambda result, _c, metric: result.extra[metric[0]],
        axes=(TRAFFIC_KEEPALIVES,), metrics=TRAFFIC_METRICS,
        label=lambda profile, keepalive, metric:
            f"{profile.name} {keepalive} {metric[1]}",
        summary=_traffic_summary, base_functions=CLUSTER_BASE_FUNCTIONS,
        notes="histogram keep-alive learns per-function idle times; "
              "fixed parks every sandbox for the same TTL",
        quick=dict(cell=partial(traffic_cell_spec, quick=True))),
    # Snapshot tiering: tier configurations x routing policies, with the
    # flat-file baseline alongside.
    "storage": Figure(
        "cold-ratio / p99 E2E (s) / dedup / tier bytes (GiB)",
        ("linux-ra", "reap", "snapbpf"), cell=storage_cell_spec,
        value=lambda result, _c, metric:
            result.extra.get(metric[0], 0.0) * metric[2],
        axes=(tuple(STORAGE_TIERS), STORAGE_POLICIES),
        metrics=STORAGE_METRICS,
        label=lambda profile, tier, policy, metric:
            f"{profile.name} {tier} {policy} {metric[1]}",
        summary=_storage_summary, base_functions=CLUSTER_BASE_FUNCTIONS,
        notes="local = identity config (byte-identical to flat); "
              "colder placements stage chunks through the shared remote "
              "object store, so a locality miss costs real fetches",
        quick=dict(axes=(("flat", "local", "remote"), STORAGE_POLICIES),
                   cell=partial(storage_cell_spec, n_nodes=2,
                                **storage_cluster_kwargs(quick=True)))),
    # A4 (§4 methodology): no static readahead window competes with
    # working-set-aware prefetching.
    "readahead": Figure(
        "E2E (s) / bytes read (MiB) / I/O requests",
        (*RA_WINDOWS, "snapbpf"), cell=_readahead_cell, value=_read,
        metrics=(_E2E, _READ_MIB, _REQUESTS), label=_metric_label,
        series=lambda column: (column if column == "snapbpf"
                               else f"ra={column}"),
        base_functions=("pagerank",),
        notes="Linux-RA readahead window in pages (32 = the kernel's "
              "128 KiB default) vs SnapBPF",
        claims=(
            Claim("no readahead is the slowest window",
                  _each(lambda v: v(0, _E2E) == max(
                      v(w, _E2E) for w in RA_WINDOWS))),
            Claim("no readahead reads the fewest bytes",
                  _each(lambda v: v(0, _READ_MIB) == min(
                      v(w, _READ_MIB) for w in RA_WINDOWS))),
            Claim("bytes read grow with the window",
                  _each(lambda v: all(
                      v(a, _READ_MIB) <= v(b, _READ_MIB)
                      for a, b in pairwise(RA_WINDOWS)))),
            Claim("no static window beats SnapBPF",
                  _each(lambda v: v("snapbpf", _E2E) < min(
                      v(w, _E2E) for w in RA_WINDOWS))))),
    # A2 (§2.1): FaaSnap's region coalescing trades mmap count for
    # working-set inflation, which amplifies I/O.
    "coalescing": Figure(
        "regions / inflation / bytes read (MiB) / E2E (s)", GAP_THRESHOLDS,
        cell=lambda profile, gap: ScenarioSpec(
            profile, "faasnap", approach_params={"gap_threshold": gap}),
        value=_read, metrics=(_REGIONS, _INFLATION, _READ_MIB, _E2E),
        label=_metric_label, series=lambda gap: f"gap={gap}",
        base_functions=("pagerank",),
        notes="FaaSnap coalescing gap in pages (16 = its default)",
        claims=(
            Claim("regions fall as the gap grows",
                  _each(lambda v: all(v(a, _REGIONS) >= v(b, _REGIONS)
                                      for a, b in pairwise(GAP_THRESHOLDS)))),
            Claim("inflation grows with the gap",
                  _each(lambda v: all(
                      v(a, _INFLATION) <= v(b, _INFLATION)
                      for a, b in pairwise(GAP_THRESHOLDS)))),
            Claim("no gap, no inflation",
                  _each(lambda v: abs(v(0, _INFLATION) - 1.0) <= 1e-6)),
            Claim("the widest gap inflates the working set over 1.5x",
                  _each(lambda v: v(256, _INFLATION) > 1.5)),
            Claim("the amplification reaches the device",
                  _each(lambda v: v(256, _READ_MIB)
                        > 1.2 * v(0, _READ_MIB))))),
    # A3 (§4): stock KVM forcibly write-maps some read faults, CoWing
    # shared page-cache pages; the paper's patch write-maps only pages
    # that are already writable.
    "kvm-cow": Figure(
        "peak memory (GiB) / E2E (s)", ("patched", "stock"),
        cell=lambda profile, kvm: ScenarioSpec(
            profile, "snapbpf", n_instances=CONCURRENT_INSTANCES,
            approach_params={"patched_cow": kvm == "patched"}),
        value=_read, metrics=(_PEAK_GIB, _E2E), label=_metric_label,
        base_functions=("bfs",),
        notes=f"SnapBPF, {CONCURRENT_INSTANCES} concurrent instances; "
              f"patched = opportunistic write-map, stock = forced",
        claims=(
            Claim("stock KVM's forced CoW inflates memory over 1.5x",
                  _each(lambda v: v("stock", _PEAK_GIB)
                        > 1.5 * v("patched", _PEAK_GIB)),
                  functions=("bfs",)),)),
    # A1 (§3.1): modern SSDs relax the need for sequential I/O; on a
    # spindle every discontiguity costs a seek.
    "device": Figure(
        "E2E (s) / I/O requests", ("reap", "snapbpf"),
        cell=lambda profile, approach, device: ScenarioSpec(
            profile, approach, device_kind=device),
        value=_read, axes=(("ssd", "hdd"),), metrics=(_E2E, _REQUESTS),
        label=_metric_label, base_functions=("pagerank",),
        notes="1 instance; REAP streams a serialized WS file, SnapBPF "
              "reads scattered offset groups",
        claims=(
            Claim("on the SSD, SnapBPF within 5 % of REAP",
                  _each(lambda v: v("snapbpf", "ssd", _E2E)
                        / v("reap", "ssd", _E2E) < 1.05)),
            Claim("on the HDD, SnapBPF over 2x slower than REAP",
                  _each(lambda v: v("snapbpf", "hdd", _E2E)
                        / v("reap", "hdd", _E2E) > 2.0)),
            Claim("the HDD hurts SnapBPF far more than REAP",
                  _each(lambda v: v("snapbpf", "hdd", _E2E)
                        / v("reap", "hdd", _E2E)
                        > 2 * v("snapbpf", "ssd", _E2E)
                        / v("reap", "ssd", _E2E))))),
    # X1 (§4 future work): varying inputs cost deduplication only the
    # input-dependent working-set fraction.
    "input-variation": Figure(
        "peak memory (GiB) / E2E (s)", ("reap", "snapbpf"),
        cell=lambda profile, approach, inputs: ScenarioSpec(
            profile, approach, n_instances=CONCURRENT_INSTANCES,
            vary_inputs=inputs == "varying"),
        value=_read, axes=(("identical", "varying"),),
        metrics=(_PEAK_GIB, _E2E), label=_metric_label,
        base_functions=("rnn",),
        notes=f"{CONCURRENT_INSTANCES} concurrent instances",
        claims=(
            Claim("varying inputs cost SnapBPF some sharing, not a "
                  "collapse to REAP",
                  _each(lambda v: v("snapbpf", "identical", _PEAK_GIB)
                        < v("snapbpf", "varying", _PEAK_GIB)
                        < 0.8 * v("reap", "varying", _PEAK_GIB))),
            Claim("REAP has no sharing to lose",
                  _each(lambda v: abs(v("reap", "varying", _PEAK_GIB)
                                      - v("reap", "identical", _PEAK_GIB))
                        < 0.25 * v("reap", "identical", _PEAK_GIB))))),
    # X2 (§4 future work): SnapBPF's own computational costs.  Costlier
    # eBPF plumbing barely moves it (I/O-bound); costlier CPU narrows its
    # lead, because its per-page costs ride the vCPU while REAP hides its
    # copies on handler threads.
    "cost-model": Figure(
        "E2E latency (s)", tuple(COST_COLUMNS), cell=_cost_cell,
        value=_e2e, base_functions=("rnn",),
        notes="1x = the calibrated cost model; bpf scales SnapBPF's eBPF "
              "costs only, cpu every CPU cost",
        claims=(
            Claim("10x eBPF costs move SnapBPF under 10 %",
                  _each(lambda v: v("snapbpf bpf 10x") / v("snapbpf 1x")
                        < 1.10)),
            Claim("SnapBPF beats REAP at 1x",
                  _each(lambda v: v("snapbpf 1x") < v("reap 1x")),
                  functions=("rnn",)),
            Claim("4x CPU costs slow SnapBPF more than REAP",
                  _each(lambda v: v("reap cpu 4x") / v("snapbpf cpu 4x")
                        < v("reap 1x") / v("snapbpf 1x"))))),
}

FIGURES: tuple[str, ...] = tuple(REGISTRY)


def _variant(figure: str, quick: bool) -> Figure:
    fig = REGISTRY[figure]
    return replace(fig, **fig.quick) if quick and fig.quick else fig


def _cells(fig: Figure, profiles) -> list[tuple]:
    """``(profile, column, point, spec)`` per cell, in sweep order."""
    return [(profile, column, point, fig.cell(profile, column, *point))
            for profile in profiles
            for column in fig.columns for point in product(*fig.axes)]


def figure_specs(figure: str, functions=None,
                 quick: bool = False) -> list[ScenarioSpec]:
    """Every scenario cell one figure needs, as sweepable specs."""
    fig = _variant(figure, quick)
    return list(dict.fromkeys(
        spec for *_, spec in _cells(
            fig, _profiles(functions, fig.base_functions))))


def matrix_specs(figures=None, functions=None,
                 quick: bool = False) -> list[ScenarioSpec]:
    """The union of several figures' cells, deduplicated in first-seen
    order (3b and 3c share every run, 3a and 4 share snapbpf x1)."""
    return list(dict.fromkeys(
        spec for figure in (FIGURES if figures is None else figures)
        for spec in figure_specs(figure, functions, quick)))


def build_figure(figure: str, cache: ResultCache | None = None,
                 functions=None, quick: bool = False) -> FigureData:
    """Build one figure by name against a (possibly pre-warmed) cache,
    reading exactly the cells :func:`figure_specs` names, and check its
    claims against the table."""
    fig = _variant(figure, quick)
    if cache is None:  # not ``or``: a ResultCache with no entries is falsy
        cache = ResultCache()
    profiles = _profiles(functions, fig.base_functions)
    cells = _cells(fig, profiles)
    results = {(profile, column, point): cache.get(spec)
               for profile, column, point, spec in cells}
    rows = [(profile, point, metric) for profile in profiles
            for point in product(*fig.axes) for metric in fig.metrics]
    data = FigureData(
        figure=figure, ylabel=fig.ylabel, notes=fig.notes,
        functions=[fig.label(profile, *point, metric)
                   for profile, point, metric in rows])
    for column in fig.columns:
        data.series[fig.series(column)] = [
            fig.value(results[profile, column, point], column, metric)
            for profile, point, metric in rows]
    if fig.normalize:
        base = data.series[fig.normalize]
        data.series = {name: [v / b for v, b in zip(values, base)]
                       for name, values in data.series.items()}
    if fig.summary:
        data.summary = [fig.summary(spec, results[profile, column, point],
                                    *point)
                        for profile, column, point, spec in cells]
    by_name = {profile.name: profile for profile in profiles}

    def value(function, column, *row):
        return data.value(fig.label(by_name[function], *row),
                          fig.series(column))

    for claim in fig.claims:
        names = [name for name in by_name
                 if claim.functions is None or name in claim.functions]
        if names and not claim.holds(value, names):
            data.failed_claims.append(claim.text)
    return data


def table_1() -> list[dict[str, str]]:
    """Table 1: the mechanism comparison, generated from the approach
    implementations themselves."""
    registry = approach_registry()
    rows = []
    for name in ("reap", "faast", "faasnap", "snapbpf"):
        rows.append(registry[name].table1_row())
    return rows
