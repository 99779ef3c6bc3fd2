"""Regeneration of every table and figure in the paper's evaluation.

Each figure is one :class:`Figure` record in :data:`REGISTRY`: its
columns and row axes, the one function that names the scenario behind
each table cell, the value it plots, and optionally a per-cell summary
and a CI-sized ``quick`` variant.  :func:`figure_specs` (what a sweep
runs) and :func:`build_figure` (what the table reads) walk the same
record, so they cannot disagree about which cells exist.  A shared
:class:`~repro.harness.experiment.ResultCache` lets Figure 3b and 3c
reuse the same concurrent runs, exactly as the paper measures latency
and memory from one experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable

from repro.baselines.base import approach_registry
from repro.cluster.spec import ClusterSpec
from repro.harness.experiment import ResultCache
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


#: Every figure, in ``fig --all`` order.
REGISTRY: dict[str, Figure] = {
    # Fig. 3a: single-instance E2E latency.
    "3a": Figure(
        "E2E latency (s)", ("reap", "faasnap", "snapbpf"),
        cell=_single, value=_e2e),
    # Fig. 3b: E2E latency of concurrent instances, normalized.
    "3b": Figure(
        "E2E latency (normalized to Linux-NoRA)",
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        cell=_concurrent, value=_e2e, normalize="linux-nora",
        notes=f"{CONCURRENT_INSTANCES} concurrent instances, "
              f"identical inputs"),
    # Fig. 3c: system-wide memory of the same runs as 3b.
    "3c": Figure(
        "Memory consumption (GiB)",
        ("linux-nora", "linux-ra", "reap", "snapbpf"),
        cell=_concurrent,
        value=lambda result, _c, _m: result.peak_memory_bytes / GIB,
        notes=f"{CONCURRENT_INSTANCES} concurrent instances"),
    # Fig. 4: PV PTE marking alone vs full SnapBPF (PV + eBPF prefetch).
    "4": Figure(
        "Normalized E2E latency (Linux-RA = 1.0)",
        ("linux-ra", "pv-ptes", "snapbpf"),
        cell=_single, value=_e2e, normalize="linux-ra",
        notes="single instance; lower is better"),
    # §4 'SnapBPF Overheads': the offset load of single-instance SnapBPF.
    "overheads": Figure(
        "offset-load latency", ("map_load_ms", "fraction_of_e2e"),
        cell=lambda profile, _column: _single(profile, "snapbpf"),
        value=_map_load,
        notes="map-load ms and fraction of E2E; paper: ~1-2 ms, <1%"),
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
}

FIGURES: tuple[str, ...] = tuple(REGISTRY)


def _variant(figure: str, quick: bool) -> Figure:
    fig = REGISTRY[figure]
    return replace(fig, **fig.quick) if quick and fig.quick else fig


def _cells(fig: Figure, functions) -> list[tuple]:
    """``(profile, column, point, spec)`` per cell, in sweep order."""
    return [(profile, column, point, fig.cell(profile, column, *point))
            for profile in _profiles(functions, fig.base_functions)
            for column in fig.columns for point in product(*fig.axes)]


def figure_specs(figure: str, functions=None,
                 quick: bool = False) -> list[ScenarioSpec]:
    """Every scenario cell one figure needs, as sweepable specs."""
    return list(dict.fromkeys(
        spec for *_, spec in _cells(_variant(figure, quick), functions)))


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
    reading exactly the cells :func:`figure_specs` names."""
    fig = _variant(figure, quick)
    if cache is None:  # not ``or``: a ResultCache with no entries is falsy
        cache = ResultCache()
    cells = _cells(fig, functions)
    results = {(profile, column, point): cache.get(spec)
               for profile, column, point, spec in cells}
    rows = [(profile, point, metric)
            for profile in _profiles(functions, fig.base_functions)
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
    return data


def table_1() -> list[dict[str, str]]:
    """Table 1: the mechanism comparison, generated from the approach
    implementations themselves."""
    registry = approach_registry()
    rows = []
    for name in ("reap", "faast", "faasnap", "snapbpf"):
        rows.append(registry[name].table1_row())
    return rows
