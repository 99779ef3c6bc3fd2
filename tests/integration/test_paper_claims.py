"""The paper's qualitative claims, verified on scaled-down workloads.

These are the integration tests that would catch a regression breaking
the reproduction: each asserts a *shape* from the evaluation section
(who wins, direction of effects), not absolute numbers.
"""

import pytest

from repro.harness.experiment import ResultCache
from repro.harness.spec import ScenarioSpec
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

CONCURRENCY = 10


@pytest.fixture(scope="module")
def cache():
    return ResultCache()


@pytest.fixture(scope="module")
def bert_like():
    """Large initialized state, little allocation (a scaled-down bert)."""
    return FunctionProfile(
        name="bert-like", mem_bytes=192 * MIB, ws_bytes=56 * MIB,
        alloc_bytes=3 * MIB, compute_seconds=0.05, write_frac=0.04,
        run_len_mean=64.0, seed=23)


@pytest.fixture(scope="module")
def image_like():
    """Allocation-heavy, small working set (a scaled-down image)."""
    return FunctionProfile(
        name="image-like", mem_bytes=96 * MIB, ws_bytes=7 * MIB,
        alloc_bytes=24 * MIB, compute_seconds=0.03, write_frac=0.1,
        run_len_mean=24.0, free_span_pages=12.0, seed=15)


class TestFigure3a:
    """Single instance: SnapBPF matches/outperforms REAP and FaaSnap."""

    def test_snapbpf_beats_reap(self, cache, bert_like):
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf"))
        reap = cache.get(ScenarioSpec(bert_like, "reap"))
        assert snapbpf.mean_e2e < reap.mean_e2e

    def test_snapbpf_matches_faasnap(self, cache, bert_like):
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf"))
        faasnap = cache.get(ScenarioSpec(bert_like, "faasnap"))
        assert snapbpf.mean_e2e < 1.15 * faasnap.mean_e2e

    def test_snapbpf_stores_no_ws_pages_on_disk(self, cache, bert_like):
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf"))
        assert snapbpf.extra["metadata_bytes"] < bert_like.ws_bytes / 100


class TestFigure3b:
    """10 concurrent instances: dedup dominates."""

    def test_snapbpf_beats_everything(self, cache, bert_like):
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                    n_instances=CONCURRENCY))
        for other in ("linux-nora", "linux-ra", "reap"):
            rival = cache.get(ScenarioSpec(bert_like, other,
                                           n_instances=CONCURRENCY))
            assert snapbpf.mean_e2e < rival.mean_e2e

    def test_reap_latency_collapses_under_concurrency(self, cache,
                                                      bert_like):
        """The paper's headline: large-WS functions are multiple times
        slower on REAP than SnapBPF at 10x concurrency (8x for bert)."""
        reap = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=CONCURRENCY))
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                    n_instances=CONCURRENCY))
        assert reap.mean_e2e > 3 * snapbpf.mean_e2e

    def test_reap_rereads_working_set_per_instance(self, cache, bert_like):
        reap1 = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=1))
        reap10 = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=CONCURRENCY))
        assert reap10.device_bytes_read > 9 * reap1.device_bytes_read

    def test_snapbpf_reads_working_set_once(self, cache, bert_like):
        snap1 = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                    n_instances=1))
        snap10 = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                    n_instances=CONCURRENCY))
        assert snap10.device_bytes_read <= 1.1 * snap1.device_bytes_read


class TestFigure3c:
    """Memory: uffd approaches cannot deduplicate."""

    def test_memory_reduction_vs_reap(self, cache, bert_like):
        """Paper: up to 6x lower memory for large-WS functions."""
        reap = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=CONCURRENCY))
        snapbpf = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                    n_instances=CONCURRENCY))
        assert reap.peak_memory_bytes > 3 * snapbpf.peak_memory_bytes

    def test_page_cache_approaches_stay_flat(self, cache, bert_like):
        for approach in ("linux-nora", "linux-ra", "snapbpf"):
            one = cache.get(ScenarioSpec(bert_like, approach,
                                         n_instances=1))
            ten = cache.get(ScenarioSpec(bert_like, approach,
                                         n_instances=CONCURRENCY))
            assert ten.peak_memory_bytes < 4 * one.peak_memory_bytes

    def test_reap_memory_scales_with_instances(self, cache, bert_like):
        one = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=1))
        ten = cache.get(ScenarioSpec(bert_like, "reap",
                                    n_instances=CONCURRENCY))
        assert ten.peak_memory_bytes > 8 * one.peak_memory_bytes


class TestFigure4:
    """Breakdown: PV PTE marking helps allocation-heavy functions."""

    def test_pv_alone_speeds_up_alloc_heavy(self, cache, image_like):
        ra = cache.get(ScenarioSpec(image_like, "linux-ra"))
        pv = cache.get(ScenarioSpec(image_like, "pv-ptes"))
        assert pv.mean_e2e < 0.8 * ra.mean_e2e

    def test_pv_alone_barely_helps_model_serving(self, cache, bert_like):
        ra = cache.get(ScenarioSpec(bert_like, "linux-ra"))
        pv = cache.get(ScenarioSpec(bert_like, "pv-ptes"))
        assert pv.mean_e2e > 0.85 * ra.mean_e2e

    def test_full_snapbpf_fastest(self, cache, image_like, bert_like):
        for profile in (image_like, bert_like):
            full = cache.get(ScenarioSpec(profile, "snapbpf"))
            pv = cache.get(ScenarioSpec(profile, "pv-ptes"))
            assert full.mean_e2e < pv.mean_e2e


class TestOverheads:
    """§4: offset loading is ~1-2 ms, <1% of E2E (full-size profiles in
    ``fig overheads``); here: the fraction stays small even on tiny
    functions."""

    def test_map_load_fraction(self, cache, bert_like):
        result = cache.get(ScenarioSpec(bert_like, "snapbpf"))
        assert result.extra["map_load_seconds"] < 0.02 * result.mean_e2e


class TestKvmCowAnecdote:
    """§4 Memory paragraph: unpatched KVM forcibly write-maps some read
    faults, CoWing shared pages and diminishing deduplication."""

    def test_unpatched_kvm_diminishes_dedup(self, cache, bert_like):
        good = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                      n_instances=CONCURRENCY))
        bad = cache.get(ScenarioSpec(bert_like, "snapbpf",
                                     n_instances=CONCURRENCY,
                                     approach_params={"patched_cow": False}))
        assert bad.approach == good.approach == "snapbpf"
        assert bad.peak_memory_bytes > 1.5 * good.peak_memory_bytes
