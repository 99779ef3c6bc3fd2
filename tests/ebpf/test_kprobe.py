"""Kprobe manager: hook declaration, attach-time verification, dispatch,
and the self-detach convention the prefetch program uses."""

import pytest

import repro.ebpf.compile as compile_mod
from repro.ebpf.asm import assemble, exit_, load, movi
from repro.ebpf.insn import R0, R6, R1
from repro.ebpf.interp import pack_u64
from repro.ebpf.kprobe import (RET_DETACH_SELF, AttachError, KprobeError,
                               KprobeManager)


def trivial_program(name="p", ret=0):
    return assemble(name, [movi(R0, ret), exit_()])


@pytest.fixture
def kp():
    manager = KprobeManager()
    manager.declare_hook("add_to_page_cache_lru", 16)
    return manager


def test_declare_twice_rejected(kp):
    with pytest.raises(KprobeError):
        kp.declare_hook("add_to_page_cache_lru", 16)


def test_unknown_hook_rejected(kp):
    with pytest.raises(KprobeError):
        kp.attach("no_such_fn", trivial_program())
    with pytest.raises(KprobeError):
        kp.fire("no_such_fn", b"")


def test_attach_verifies(kp):
    bad = assemble("bad", [exit_()])  # R0 uninitialized
    with pytest.raises(Exception):
        kp.attach("add_to_page_cache_lru", bad)
    assert kp.attached("add_to_page_cache_lru") == []


def test_attach_of_uncompilable_program_fails(kp, monkeypatch):
    """Compiled closures are the only tier: a verified program the
    compiler rejects fails to attach (the error hosts degrade on) and
    never reaches the hook."""
    def reject(program, interpreter):
        raise compile_mod.CompileError("cannot translate")

    monkeypatch.setattr(compile_mod, "compile_program", reject)
    with pytest.raises(AttachError, match="failed to compile"):
        kp.attach("add_to_page_cache_lru", trivial_program())
    assert kp.attached("add_to_page_cache_lru") == []


def test_attach_fire_detach(kp):
    prog = assemble("reader", [load(R6, R1, 0), movi(R0, 0), exit_()])
    kp.attach("add_to_page_cache_lru", prog)
    cost = kp.fire("add_to_page_cache_lru", pack_u64(1, 2))
    assert cost > 0
    kp.detach("add_to_page_cache_lru", prog)
    assert kp.fire("add_to_page_cache_lru", pack_u64(1, 2)) == 0.0


def test_double_attach_rejected(kp):
    prog = trivial_program()
    kp.attach("add_to_page_cache_lru", prog)
    with pytest.raises(KprobeError):
        kp.attach("add_to_page_cache_lru", prog)


def test_detach_unattached_rejected(kp):
    with pytest.raises(KprobeError):
        kp.detach("add_to_page_cache_lru", trivial_program())


def test_ctx_size_enforced_on_fire(kp):
    kp.attach("add_to_page_cache_lru", trivial_program())
    with pytest.raises(KprobeError):
        kp.fire("add_to_page_cache_lru", b"\0" * 8)


def test_fire_without_programs_is_free(kp):
    assert kp.fire("add_to_page_cache_lru", pack_u64(0, 0)) == 0.0
    assert kp.hook("add_to_page_cache_lru").fire_count == 1


def test_multiple_programs_all_run(kp):
    p1, p2 = trivial_program("p1"), trivial_program("p2")
    kp.attach("add_to_page_cache_lru", p1)
    kp.attach("add_to_page_cache_lru", p2)
    single = KprobeManager()
    single.declare_hook("h", 16)
    single.attach("h", trivial_program())
    assert (kp.fire("add_to_page_cache_lru", pack_u64(0, 0))
            == pytest.approx(2 * single.fire("h", pack_u64(0, 0))))


def test_self_detach_on_ret(kp):
    prog = trivial_program("selfdetach", ret=RET_DETACH_SELF)
    kp.attach("add_to_page_cache_lru", prog)
    kp.fire("add_to_page_cache_lru", pack_u64(0, 0))
    assert kp.attached("add_to_page_cache_lru") == []


def test_side_cost_drained_into_fire(kp):
    prog = trivial_program()
    kp.attach("add_to_page_cache_lru", prog)
    kp.side_cost += 1.5e-3
    cost = kp.fire("add_to_page_cache_lru", pack_u64(0, 0))
    assert cost > 1.5e-3
    assert kp.side_cost == 0.0
