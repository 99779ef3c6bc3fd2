"""Chunked reclaim scan ≡ the snapshot reference.

``ReclaimController._scan_inactive`` copies only the run of inactive
keys it is about to visit, in chunks that start at ``SWAP_CLUSTER_MAX``
and double; the reference (``reference_reclaim.py``) copies the whole
list for every pass.  This fuzz builds the same LRU state twice, runs
one ``shrink`` with each implementation, and requires the same return
value and eviction log, the same final inactive and active orders, the
same ``referenced``/``active`` flags on every page, and the same
``reclaim_*`` and ``cache_evictions_total`` counters.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ebpf.asm import assemble, exit_, movi
from repro.mm.kernel import Kernel
from repro.mm.reclaim import (
    HINT_COLD,
    HINT_KEEP,
    HOOK_MM_EVICT,
    VERDICT_DEFAULT,
    VERDICT_VETO,
)
from repro.sim import Environment
from repro.units import PAGE_SIZE
from tests.mm.reference_reclaim import use_snapshot_scan

MAX_PAGES = 300
FILE_PAGES = 512
#: Chunks of 32, 64, 128, 256 keys end 32, 96, 224 and 480 keys into a
#: lap; lengths either side of those boundaries.
BOUNDARY_LENGTHS = [31, 32, 33, 95, 96, 97, 223, 224, 225]
#: Verdicts a policy stub may return besides the veto.
SCORES = [VERDICT_DEFAULT, 2, 3, 7, 1 << 31]

states = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "inos": st.integers(1, 3),
    "inactive": st.one_of(st.integers(0, MAX_PAGES),
                          st.sampled_from(BOUNDARY_LENGTHS)),
    "active": st.integers(0, MAX_PAGES),
    "p_locked": st.sampled_from([0.0, 0.1, 0.5, 0.9]),
    "p_mapped": st.sampled_from([0.0, 0.1, 0.5]),
    "p_referenced": st.sampled_from([0.0, 0.3, 0.8]),
    "p_hint": st.sampled_from([0.0, 0.2, 0.6]),
    # None: no policy; else the stub's veto probability.
    "veto": st.one_of(st.none(), st.sampled_from([0.0, 0.3, 0.7, 0.95])),
    "nr_to_reclaim": st.integers(1, 64),
    "desperate": st.booleans(),
})


def build(state: dict) -> tuple[Kernel, list]:
    """A kernel whose LRU lists hold the drawn pages, in drawn order."""
    rng = random.Random(state["seed"])
    n_inactive = state["inactive"]
    total = n_inactive + min(state["active"], MAX_PAGES - n_inactive)
    kernel = Kernel(env=Environment(), ram_bytes=(total + 64) * PAGE_SIZE)
    cache, reclaim = kernel.page_cache, kernel.reclaim
    files = [kernel.filestore.create(f"f{i}", FILE_PAGES * PAGE_SIZE)
             for i in range(state["inos"])]
    pages = rng.sample([(file, index) for file in files
                        for index in range(FILE_PAGES)], total)
    locked = [rng.random() < state["p_locked"] for _ in pages]
    for (file, index), lock in zip(pages, locked):
        if not lock:
            cache.populate(file, index, 1)
    kernel.env.run()
    for (file, index), lock in zip(pages, locked):
        if lock:
            cache.populate(file, index, 1)  # under I/O: the env never runs

    lru = reclaim.lru
    entries = [lru.inactive[(file.ino, index)] for file, index in pages]
    lru.inactive.clear()
    verdicts = {}
    for n, entry in enumerate(entries):
        key = (entry.ino, entry.index)
        entry.active = n >= n_inactive
        entry.referenced = rng.random() < state["p_referenced"]
        if rng.random() < state["p_mapped"]:
            entry.frame.mapcount = 1
        if rng.random() < state["p_hint"]:
            reclaim.hints.set(*key, rng.choice([HINT_KEEP, HINT_COLD]))
        (lru.active if entry.active else lru.inactive)[key] = entry
        verdicts[key] = (VERDICT_VETO if rng.random() < (state["veto"] or 0)
                         else rng.choice(SCORES))

    if state["veto"] is not None:
        kernel.kprobes.attach(HOOK_MM_EVICT, assemble(
            "stub", [movi(0, VERDICT_DEFAULT), exit_()]))

        def policy_verdict(key, need):
            reclaim._m_policy_runs.inc()
            return verdicts[key]

        reclaim._policy_verdict = policy_verdict
    return kernel, entries


def shrink(state: dict, reference: bool) -> dict:
    kernel, entries = build(state)
    reclaim = kernel.reclaim
    if reference:
        use_snapshot_scan(reclaim)
    freed = reclaim.shrink(state["nr_to_reclaim"], state["desperate"])
    registry = kernel.metrics
    return {
        "freed": freed,
        "eviction_log": reclaim.eviction_log,
        "inactive": list(reclaim.lru.inactive),
        "active": list(reclaim.lru.active),
        "flags": [(entry.referenced, entry.active) for entry in entries],
        "counters": {name: registry.get(name).value
                     for name in registry.names()
                     if name.startswith("reclaim_")
                     or name == "cache_evictions_total"},
    }


def boundary_state(inactive: int, veto: float | None, nr: int) -> dict:
    return {"seed": inactive, "inos": 2, "inactive": inactive,
            "active": 40, "p_locked": 0.5, "p_mapped": 0.1,
            "p_referenced": 0.3, "p_hint": 0.2, "veto": veto,
            "nr_to_reclaim": nr, "desperate": False}


@settings(max_examples=150, deadline=None)
@given(states)
# A policy parking candidates while the lap crosses chunk boundaries.
@example(boundary_state(97, 0.7, 64))
@example(boundary_state(225, 0.95, 1))
@example(boundary_state(33, 0.3, 5))
# No policy: a lap over mostly locked pages, then a refill.
@example(boundary_state(225, None, 64))
def test_chunked_scan_matches_snapshot_scan(state):
    assert shrink(state, reference=False) == shrink(state, reference=True)
