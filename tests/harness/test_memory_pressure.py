"""Memory-pressure scenarios: identity when unpressured, the paper's
elasticity claim under a shrinking pool, and determinism across job
counts and warm stores."""

from repro.faults import ChaosSpec
from repro.harness.experiment import ResultCache, make_kernel, run_scenario
from repro.harness.figures import MEM_HEADROOMS, pressure_ram_bytes
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import ResultStore, SweepRunner
from repro.units import GIB


def test_watermarks_on_unpressured_pool_are_identity(tiny_profile):
    """The acceptance identity: enabling the pressure plane on the
    default (never-pressured) pool changes nothing in the results."""
    spec = ScenarioSpec(function=tiny_profile, approach="snapbpf",
                        n_instances=2)
    baseline = run_scenario(spec)
    kernel = make_kernel("ssd")
    kernel.reclaim.enable_watermarks()
    with_plane = run_scenario(spec, kernel=kernel)
    assert with_plane.to_json() == baseline.to_json()


def test_chaos_fingerprint_identical_with_watermarks(tiny_profile):
    chaos = ChaosSpec(fault_seed=5, n_requests=3)
    baseline = run_scenario(ScenarioSpec(tiny_profile, "snapbpf",
                                         chaos=chaos))
    with_plane = run_scenario(ScenarioSpec(tiny_profile, "snapbpf",
                                           ram_bytes=256 * GIB, chaos=chaos))
    assert with_plane.to_json() == baseline.to_json()


def test_pressure_deflates_file_footprint_but_not_anon(tiny_profile):
    """The elasticity claim behind the mem figure: under a shrinking
    pool, the page-cache approach sheds file pages while REAP's per-VM
    anonymous frames stay pinned."""
    n = 4
    results = {}
    for approach in ("snapbpf", "reap"):
        for g in MEM_HEADROOMS:
            spec = ScenarioSpec(
                function=tiny_profile, approach=approach, n_instances=n,
                ram_bytes=pressure_ram_bytes(tiny_profile, approach, n, g))
            results[approach, g] = run_scenario(spec)

    full, squeezed = (results["reap", g] for g in MEM_HEADROOMS)
    assert squeezed.end_anon_bytes == full.end_anon_bytes > 0

    full, squeezed = (results["snapbpf", g] for g in MEM_HEADROOMS)
    assert 0 < squeezed.end_file_bytes < full.end_file_bytes
    assert squeezed.extra["reclaim_evictions"] > 0
    assert "reclaim_evict_digest" in squeezed.extra


def test_policy_cell_identical_across_jobs_and_warm_store(tiny_profile,
                                                          tmp_path):
    """Acceptance criterion: a policy-attached pressure cell is
    byte-identical across --jobs counts and warm ResultStore replays."""
    spec = ScenarioSpec(
        function=tiny_profile, approach="snapbpf", n_instances=2,
        ram_bytes=pressure_ram_bytes(tiny_profile, "snapbpf", 2, 0.0),
        evict_policy="evict-high-first")
    serial = run_scenario(spec)
    assert serial.extra["reclaim_evictions"] > 0

    cache = ResultCache(store=ResultStore(tmp_path))
    SweepRunner(cache, jobs=2).run([spec])
    assert cache.get(spec).to_json() == serial.to_json()

    warm = ResultCache(store=ResultStore(tmp_path))
    assert warm.get(spec).to_json() == serial.to_json()
    assert warm.executed == 0


def test_policy_changes_the_cell_identity_and_digest(tiny_profile):
    base = ScenarioSpec(
        function=tiny_profile, approach="snapbpf", n_instances=2,
        ram_bytes=pressure_ram_bytes(tiny_profile, "snapbpf", 2, 0.0))
    with_policy = ScenarioSpec(
        function=tiny_profile, approach="snapbpf", n_instances=2,
        ram_bytes=base.ram_bytes, evict_policy="evict-high-first")
    assert base.stable_hash() != with_policy.stable_hash()
    lru = run_scenario(base)
    policy = run_scenario(with_policy)
    assert (lru.extra["reclaim_evict_digest"]
            != policy.extra["reclaim_evict_digest"])
