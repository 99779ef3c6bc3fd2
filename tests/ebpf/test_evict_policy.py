"""The eviction-policy attach point: policy programs reorder reclaim
deterministically, the verifier polices the new ctx/helper/kfunc surface,
and the snapbpf_evict_hint kfunc pins pages."""

import pytest

from repro.core.kfuncs import SNAPBPF_PREFETCH, register_snapbpf_kfunc
from repro.core.policies import attach_evict_policy, policy_names
from repro.ebpf.asm import alui, assemble, call, call_kfunc, exit_, load, movi
from repro.ebpf.helpers import BPF_FUNC_CACHED_PAGES
from repro.ebpf.interp import Interpreter, pack_u64
from repro.ebpf.verifier import VerificationError
from repro.mm.kernel import Kernel
from repro.mm.reclaim import (
    EVICT_CTX_SIZE,
    HINT_KEEP,
    HOOK_MM_EVICT,
    SNAPBPF_EVICT_HINT,
    VERDICT_DEFAULT,
    register_evict_hint,
)
from repro.sim import Environment
from repro.units import MIB, PAGE_SIZE

R0, R1, R2, R3 = 0, 1, 2, 3


def _pressured_evictions(policy: str | None = None) -> list[int]:
    """Fill a 16-frame pool, force 4 evictions, return evicted indexes."""
    kernel = Kernel(env=Environment(), ram_bytes=16 * PAGE_SIZE)
    if policy is not None:
        attach_evict_policy(kernel, policy)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 16)
    kernel.env.run()
    kernel.page_cache.populate(file, 100, 4)
    kernel.env.run()
    return [index for _ino, index in kernel.reclaim.eviction_log]


def test_policy_yields_different_deterministic_eviction_sequence():
    """Acceptance criterion: an attached policy produces a different —
    but still deterministic — eviction sequence than the default LRU."""
    assert _pressured_evictions() == [0, 1, 2, 3]
    high_first = _pressured_evictions("evict-high-first")
    assert high_first == [15, 14, 13, 12]
    assert high_first == _pressured_evictions("evict-high-first")


def test_protect_head_vetoes_until_unprotected_pages_exist():
    kernel = Kernel(env=Environment(), ram_bytes=8 * PAGE_SIZE)
    attach_evict_policy(kernel, "protect-head")
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 60, 8)  # indexes 60..67 straddle 64
    kernel.env.run()
    kernel.page_cache.populate(file, 200, 2)
    kernel.env.run()
    assert kernel.reclaim.eviction_log == [(file.ino, 64), (file.ino, 65)]
    assert kernel.metrics.get("reclaim_policy_vetoes_total").value > 0


def test_desperate_pass_overrides_vetoes_instead_of_oom():
    kernel = Kernel(env=Environment(), ram_bytes=8 * PAGE_SIZE)
    attach_evict_policy(kernel, "protect-head")
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 8)  # every page is protected
    kernel.env.run()
    kernel.page_cache.populate(file, 200, 1)  # must not raise
    kernel.env.run()
    assert kernel.reclaim.eviction_log == [(file.ino, 0)]


def test_policy_that_fills_the_cache_never_reenters_reclaim():
    """A policy calling an allocating kfunc runs inside reclaim.  Like
    Linux's PF_MEMALLOC, its fills take a free frame or abort; they never
    reclaim again (which recursed until RecursionError)."""
    kernel = Kernel(env=Environment(), ram_bytes=16 * PAGE_SIZE)
    register_snapbpf_kfunc(kernel)
    file = kernel.filestore.create("f", 4 * MIB)
    kernel.page_cache.populate(file, 0, 16)
    kernel.env.run()
    prefetch_ahead = assemble("evict_prefetch_ahead", [
        load(R2, R1, 8),                     # r2 = page index
        load(R1, R1, 0),                     # r1 = ino
        alui("add", R2, 128),
        movi(R3, 2),
        call_kfunc(SNAPBPF_PREFETCH),        # fill [index+128, +2)
        movi(R0, VERDICT_DEFAULT),
        exit_(),
    ])
    kernel.kprobes.attach(HOOK_MM_EVICT, prefetch_ahead)

    kernel.page_cache.populate(file, 100, 4)
    kernel.env.run()

    reclaim = kernel.reclaim
    # Four direct reclaims over 16, 15, 14 and 13 unlocked pages; every
    # fill found the pool full and aborted.
    metrics = kernel.metrics.snapshot()
    assert metrics["reclaim_policy_runs_total"] == 58
    assert metrics["cache_ra_oom_aborts_total"] == 58
    assert reclaim.eviction_log == [(file.ino, i) for i in range(4)]
    assert (metrics["reclaim_reclaimed_total"]
            == metrics["cache_evictions_total"] == 4)
    assert all(kernel.page_cache.resident(file.ino, i)
               for i in range(100, 104))


def test_unknown_policy_name_rejected():
    kernel = Kernel(env=Environment(), ram_bytes=64 * PAGE_SIZE)
    assert "evict-high-first" in policy_names()
    with pytest.raises(ValueError):
        attach_evict_policy(kernel, "no-such-policy")


# -- verifier rules on the new surface ----------------------------------------
def test_verifier_rejects_ctx_read_beyond_evict_ctx(kernel):
    prog = assemble("oob", [load(R2, R1, EVICT_CTX_SIZE),
                            movi(R0, 0), exit_()])
    with pytest.raises(VerificationError):
        kernel.kprobes.attach(HOOK_MM_EVICT, prog)


def test_verifier_rejects_pointer_arg_to_cached_pages(kernel):
    # R1 is still the ctx pointer when the helper is called.
    prog = assemble("ptrarg", [call(BPF_FUNC_CACHED_PAGES), exit_()])
    with pytest.raises(VerificationError):
        kernel.kprobes.attach(HOOK_MM_EVICT, prog)


def test_verifier_rejects_unregistered_kfunc(kernel):
    prog = assemble("nokfunc", [movi(R1, 0), movi(R2, 0), movi(R3, 0),
                                call_kfunc("snapbpf_no_such_kfunc"),
                                exit_()])
    with pytest.raises(VerificationError):
        kernel.kprobes.attach(HOOK_MM_EVICT, prog)


# -- the bpf_cached_pages helper ----------------------------------------------
def test_cached_pages_helper_reads_residency(kernel):
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 12)
    kernel.env.run()
    prog = assemble("count", [load(R1, R1, 0),  # r1 = ctx.ino (scalar)
                              call(BPF_FUNC_CACHED_PAGES), exit_()])
    kernel.kprobes.attach(HOOK_MM_EVICT, prog)
    verdict, cost = kernel.kprobes.fire_verdict(
        HOOK_MM_EVICT, pack_u64(file.ino, 0, 0, 0))
    assert verdict == 12
    assert cost > 0.0


def test_cached_pages_helper_without_page_stats_returns_zero():
    prog = assemble("count", [movi(R1, 7),
                              call(BPF_FUNC_CACHED_PAGES), exit_()])
    assert Interpreter().run(prog).r0 == 0


# -- the snapbpf_evict_hint kfunc ---------------------------------------------
def test_registration_idempotent(kernel):
    register_evict_hint(kernel)  # Kernel already registered it
    assert SNAPBPF_EVICT_HINT in kernel.kfuncs
    assert kernel.kfuncs.get(SNAPBPF_EVICT_HINT).n_args == 3


def test_evict_hint_rejects_unknown_hint(kernel):
    spec = kernel.kfuncs.get(SNAPBPF_EVICT_HINT)
    assert spec.func(1, 2, 99) == -22  # -EINVAL
    assert kernel.reclaim.hints.as_dict() == {}


def test_evict_hint_keep_pins_page_against_reclaim():
    kernel = Kernel(env=Environment(), ram_bytes=8 * PAGE_SIZE)
    file = kernel.filestore.create("f", MIB)
    kernel.page_cache.populate(file, 0, 8)
    kernel.env.run()

    pin = assemble("pin", [movi(R1, file.ino), movi(R2, 0),
                           movi(R3, HINT_KEEP),
                           call_kfunc(SNAPBPF_EVICT_HINT), exit_()])
    kernel.kprobes.attach(HOOK_MM_EVICT, pin)
    verdict, _cost = kernel.kprobes.fire_verdict(HOOK_MM_EVICT,
                                                 pack_u64(0, 0, 0, 0))
    assert verdict == 0  # kfunc returned success
    kernel.kprobes.detach(HOOK_MM_EVICT, pin)
    assert kernel.reclaim.hints.as_dict() == {(file.ino, 0): HINT_KEEP}

    kernel.page_cache.populate(file, 100, 1)
    kernel.env.run()
    assert kernel.page_cache.resident(file.ino, 0)  # pinned by the hint
    assert not kernel.page_cache.resident(file.ino, 1)
    assert kernel.metrics.get("reclaim_hint_keeps_total").value >= 1
