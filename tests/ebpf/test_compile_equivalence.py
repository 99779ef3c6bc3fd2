"""Compiled-runtime equivalence fuzzing.

The runtime runs every program as the closure :mod:`repro.ebpf.compile`
translates it into.  It promises *observational equivalence* with the
per-instruction reference interpreter (``reference_interp.py``) for
every verifier-accepted program: same :class:`ExecutionResult` (r0 and
insn_count), same runtime faults with the same messages, same final map
states, same ring-buffer record streams.  This harness generates random
programs with a seeded RNG until 200 of them pass the verifier, then
runs each accepted program through both — fresh maps for each — over a
shared context sequence and compares everything observable.

Two real programs (capture and prefetch-guard) ride along as
deterministic cases covering the ring-buffer write path and the
array-map state machine the random space reaches only occasionally.
So do small programs for every case the compiler emits inline:
pointer ``add``/``sub``, the NULL check on a lookup result, and the map
and buffer arguments of the map and ringbuf helpers, including the
faults each must raise with the reference's message.
"""

import random
import struct
from functools import partial

import pytest

from repro.core.progs import (
    build_capture_program,
    build_prefetch_program,
    make_events_ringbuf,
    make_groups_map,
    make_state_map,
)
from repro.ebpf.asm import (
    Label,
    Program,
    alu,
    alui,
    assemble,
    call,
    exit_,
    jcond,
    ldmap,
    load,
    mov,
    movi,
    storei,
)
from repro.ebpf.helpers import (
    BPF_FUNC_MAP_LOOKUP_ELEM,
    BPF_FUNC_MAP_UPDATE_ELEM,
    BPF_FUNC_RINGBUF_OUTPUT,
)
from repro.ebpf.insn import (
    ALU_OPS,
    Alu,
    Call,
    Exit,
    JMP_OPS,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.compile import CompileError
from repro.ebpf.insn import R0, R1, R2, R3, R6, R10, U64_MASK
from repro.ebpf.interp import Interpreter, RuntimeFault, pack_u64
from repro.ebpf.maps import ArrayMap, HashMap, RingBufMap
from repro.ebpf.verifier import VerificationError, Verifier
from tests.ebpf import reference_interp

CTX_SIZE = 16
PROGRAM_LEN = 12
TARGET_ACCEPTED = 200
MAX_ATTEMPTS = 60_000
BUDGET = 50_000

_IMMS = (-16, -8, -4, -1, 0, 1, 4, 8, 16, 512, 1 << 40)
_WIDTHS = (1, 2, 4, 8)
_HELPERS = (1, 2, 3, 5, 6, 130)  # map ops, ktime, printk, ringbuf_output
_ALU = sorted(ALU_OPS - {"neg"})
_JCC = sorted(JMP_OPS - {"ja"})


def _random_insn(rng: random.Random):
    kind = rng.randrange(8)
    reg = rng.randrange(11)
    if kind == 0:
        return Alu(rng.choice(_ALU), reg, src=rng.randrange(11))
    if kind == 1:
        return Alu(rng.choice(_ALU), reg, imm=rng.choice(_IMMS))
    if kind == 2:
        return Jmp("ja", rng.randrange(PROGRAM_LEN + 1))
    if kind == 3:
        return Jmp(rng.choice(_JCC), rng.randrange(PROGRAM_LEN + 1),
                   dst=reg, imm=rng.choice(_IMMS))
    if kind == 4:
        return Load(reg, rng.randrange(11), rng.choice(_IMMS),
                    rng.choice(_WIDTHS))
    if kind == 5:
        if rng.random() < 0.5:
            return Store(reg, rng.choice(_IMMS), imm=rng.choice(_IMMS),
                         width=rng.choice(_WIDTHS))
        return Store(reg, rng.choice(_IMMS), src=rng.randrange(11),
                     width=rng.choice(_WIDTHS))
    if kind == 6:
        return LoadMapFd(reg, rng.choice(("h", "a", "rb")))
    return Call(rng.choice(_HELPERS))


def _build(insns) -> Program:
    """Assemble with *fresh* maps so each tier mutates its own state."""
    maps = {"h": HashMap("h", key_size=8, value_size=8, max_entries=8),
            "a": ArrayMap("a", value_size=16, max_entries=4),
            "rb": RingBufMap("rb", value_size=8, max_entries=16)}
    return assemble("fuzz", list(insns) + [Exit()], maps=maps)


def _map_state(bpf_map):
    """Everything userspace could observe about a map, as comparable
    plain data (including what the ring's consumer would read)."""
    if isinstance(bpf_map, RingBufMap):
        return ("ringbuf", bpf_map.consume(), bpf_map.dropped)
    if isinstance(bpf_map, HashMap):
        return ("hash", {bytes(k): bytes(v or b"")
                         for k, v in ((k, bpf_map.lookup(k))
                                      for k in bpf_map.keys())})
    if isinstance(bpf_map, ArrayMap):
        return ("array", [bytes(bpf_map.lookup(struct.pack("<I", i)))
                          for i in range(bpf_map.max_entries)])
    raise AssertionError(f"unknown map kind {bpf_map!r}")


def _runner(interp: Interpreter, compiled: bool):
    """``interp``'s own (compiled) entry point, or the reference loop
    running against the same runtime."""
    return interp.run if compiled else partial(reference_interp.interpret,
                                               interp)


def _run_tier(program: Program, ctxs, compiled: bool):
    """One tier's full observable behaviour over a context sequence."""
    interp = Interpreter()
    if compiled:
        try:
            interp.prepare(program)
        except CompileError as exc:
            pytest.fail(f"verified program failed to compile ({exc}):\n"
                        f"{program.insns}")
    run = _runner(interp, compiled)
    outcomes = []
    for ctx in ctxs:
        try:
            result = run(program, ctx, budget=BUDGET)
        except RuntimeFault as fault:
            outcomes.append(("fault", str(fault)))
        else:
            outcomes.append(("ok", result.r0, result.insn_count))
    states = {name: _map_state(m) for name, m in program.maps.items()}
    return outcomes, states, list(interp.printk_log)


def _assert_equivalent(insns, ctxs):
    compiled = _run_tier(_build(insns), ctxs, compiled=True)
    interpreted = _run_tier(_build(insns), ctxs, compiled=False)
    assert compiled == interpreted, (
        f"tier divergence on:\n{list(insns)}\n"
        f"compiled:    {compiled}\ninterpreted: {interpreted}")


def test_fuzzed_programs_equivalent_across_tiers():
    rng = random.Random(0xEB9F)
    verifier = Verifier(ctx_size=CTX_SIZE)
    ctxs = [pack_u64(7, 9), pack_u64(0, 0), pack_u64(1 << 40, 3)]
    accepted = 0
    for _ in range(MAX_ATTEMPTS):
        insns = [_random_insn(rng)
                 for _ in range(rng.randrange(1, PROGRAM_LEN))]
        try:
            verifier.verify(_build(insns))
        except VerificationError:
            continue
        _assert_equivalent(insns, ctxs)
        accepted += 1
        if accepted >= TARGET_ACCEPTED:
            break
    assert accepted >= TARGET_ACCEPTED, (
        f"only {accepted} verifier-accepted programs in "
        f"{MAX_ATTEMPTS} attempts; widen the generator")


def test_capture_program_equivalent_across_tiers():
    """Ring-buffer stream equivalence on the real capture program."""
    ino = 4242

    def run_tier(compiled):
        interp = Interpreter(time_ns=iter(range(0, 10_000, 7)).__next__)
        run = _runner(interp, compiled)
        events = make_events_ringbuf("ev", max_entries=64)
        program = build_capture_program(ino, events)
        outcomes = [run(program, struct.pack("<QQ", i_no, index))
                    for index in range(80)
                    for i_no in (ino, ino + 1)]  # hits and filtered inos
        return outcomes, events.consume(), events.dropped

    assert run_tier(True) == run_tier(False)


def test_prefetch_program_equivalent_across_tiers():
    """Array-map walk + kfunc calls + done-flag state machine."""
    from repro.core.kfuncs import SNAPBPF_PREFETCH
    from repro.ebpf.kfunc import KfuncRegistry

    ino = 777

    def run_tier(compiled):
        calls = []
        kfuncs = KfuncRegistry()
        kfuncs.register(SNAPBPF_PREFETCH,
                        lambda ino_, start, count: calls.append(
                            (ino_, start, count)) or 0, n_args=3)
        interp = Interpreter(kfuncs=kfuncs)
        run = _runner(interp, compiled)
        groups = make_groups_map("groups", n_groups=3)
        for index, (start, count) in enumerate(((10, 4), (64, 32), (2, 1))):
            groups.update_u64s(index, start, count)
        state = make_state_map("state")
        program = build_prefetch_program(ino, groups, state)
        # First fire walks and detaches; repeats take the done-flag exit.
        outcomes = [run(program, struct.pack("<QQ", ino, 0))
                    for _ in range(3)]
        return outcomes, calls, _map_state(state)

    assert run_tier(True) == run_tier(False)


# -- every scalar op over edge operands -----------------------------------------
# Random programs rarely route an ALU result or a branch into r0, so the
# fuzz above alone misses a wrong operator; these walk every one.

#: Zero (the div/mod-by-zero rule), small values, the sign bit and u64 max.
_EDGES = (0, 1, 7, (1 << 63) | 5, U64_MASK)


@pytest.mark.parametrize("op", sorted(ALU_OPS - {"mov"}))
def test_scalar_alu_ops_equivalent(op):
    for a in _EDGES:
        if op == "neg":
            _assert_equivalent([movi(R0, a), Alu("neg", R0)], [b""])
            continue
        for b in _EDGES:
            _assert_equivalent([movi(R0, a), movi(R3, b), alu(op, R0, R3)],
                               [b""])
            _assert_equivalent([movi(R0, a), alui(op, R0, b)], [b""])


@pytest.mark.parametrize("op", sorted(JMP_OPS - {"ja"}))
def test_scalar_jump_ops_equivalent(op):
    for a in _EDGES:
        for b in _EDGES:
            for check in ([movi(R3, b), jcond(op, R6, "taken", src=R3)],
                          [jcond(op, R6, "taken", imm=b)]):
                _assert_equivalent(
                    [movi(R6, a), *check, movi(R0, 1), exit_(),
                     Label("taken"), movi(R0, 2)], [b""])


# -- the inlined cases, one small program each ---------------------------------

def _outcome(source, ctx=pack_u64(7, 9)):
    """The one outcome both tiers agree on for ``source``."""
    _assert_equivalent(source, [ctx])
    outcomes, _states, _log = _run_tier(_build(source), [ctx],
                                        compiled=True)
    return outcomes[0]


@pytest.mark.parametrize("move", [
    [alui("add", R2, -8)],
    [alui("sub", R2, 8)],
    [alui("add", R2, -16), alui("add", R2, 8)],
    [movi(R3, -8), alu("add", R2, R3)],
    [movi(R3, 8), alu("sub", R2, R3)],
])
def test_stack_pointer_moves_equivalent(move):
    source = [mov(R2, R10), *move,
              storei(R2, 0, 0x1234), load(R0, R2, 0)]
    assert _outcome(source) == ("ok", 0x1234, len(source) + 1)


@pytest.mark.parametrize("move, message", [
    ([alui("add", R2, 8)], "stack: read [520, 528) out of bounds"),
    ([movi(R3, 600), alu("sub", R2, R3)],
     "stack: read [-88, -80) out of bounds"),
])
def test_stack_pointer_moved_out_of_bounds_faults_alike(move, message):
    source = [mov(R2, R10), *move, load(R0, R2, 0)]
    assert _outcome(source) == ("fault", message)


@pytest.mark.parametrize("source, message", [
    ([mov(R2, R10), alu("add", R2, R10)], "add on pointer"),
    ([mov(R2, R10), alu("sub", R2, R1)], "sub on pointer"),
    ([movi(R2, 4), alu("add", R2, R10)], "add with non-scalar operand"),
    ([mov(R2, R10), alui("mul", R2, 2)], "mul on pointer"),
])
def test_pointer_arithmetic_faults_alike(source, message):
    assert _outcome(source) == ("fault", message)


@pytest.mark.parametrize("map_name, key, hit", [
    ("a", 0, True), ("a", 9, False), ("h", 0, False)])
@pytest.mark.parametrize("op", ["jeq", "jne"])
@pytest.mark.parametrize("zero", ["imm", "reg"])
def test_null_check_on_lookup_result_equivalent(map_name, key, hit, op,
                                                zero):
    """``jeq``/``jne`` 0 on a lookup result: a hit is a pointer (never
    NULL), a miss is scalar 0."""
    check = ([jcond(op, R0, "taken", imm=0)] if zero == "imm"
             else [movi(R3, 0), jcond(op, R0, "taken", src=R3)])
    source = [storei(R10, -8, key), ldmap(R1, map_name),
              mov(R2, R10), alui("add", R2, -8),
              call(BPF_FUNC_MAP_LOOKUP_ELEM), *check,
              movi(R0, 1), exit_(),
              Label("taken"), movi(R0, 2)]
    taken = hit if op == "jne" else not hit
    assert _outcome(source) == ("ok", 2 if taken else 1, 7 + len(check))


@pytest.mark.parametrize("source, message", [
    ([mov(R2, R10), jcond("jeq", R2, "end", imm=1), Label("end")],
     "pointer comparison beyond NULL check"),
    ([mov(R2, R10), movi(R3, 1), jcond("jne", R2, "end", src=R3),
      Label("end")], "pointer comparison beyond NULL check"),
    ([mov(R2, R10), jcond("jgt", R2, "end", imm=0), Label("end")],
     "pointer comparison beyond NULL check"),
    ([movi(R2, 0), jcond("jeq", R2, "end", src=R10), Label("end")],
     "jump on non-scalar operands"),
])
def test_pointer_comparisons_fault_alike(source, message):
    assert _outcome(source) == ("fault", message)


def _helper_call(helper_id, map_name, key_off, value_off=-16):
    """``helper(map, r10 + key_off[, r10 + value_off])``."""
    return [ldmap(R1, map_name),
            mov(R2, R10), alui("add", R2, key_off),
            mov(R3, R10), alui("add", R3, value_off),
            call(helper_id), movi(R0, 0)]


@pytest.mark.parametrize("source, message", [
    # The array map's 4-byte key window runs off either end of the stack.
    (_helper_call(BPF_FUNC_MAP_LOOKUP_ELEM, "a", -2),
     "stack: read [510, 514) out of bounds"),
    (_helper_call(BPF_FUNC_MAP_LOOKUP_ELEM, "a", -516),
     "stack: read [-4, 0) out of bounds"),
    (_helper_call(BPF_FUNC_MAP_UPDATE_ELEM, "h", -4),
     "stack: read [508, 516) out of bounds"),
    # Key in bounds, the 16-byte array value window off the end.
    (_helper_call(BPF_FUNC_MAP_UPDATE_ELEM, "a", -4, value_off=-8),
     "stack: read [504, 520) out of bounds"),
    (_helper_call(BPF_FUNC_RINGBUF_OUTPUT, "rb", -4),
     "stack: read [508, 516) out of bounds"),
    ([movi(R1, 0), mov(R2, R10), call(BPF_FUNC_MAP_LOOKUP_ELEM)],
     "helper expected a map pointer"),
    ([ldmap(R1, "a"), movi(R2, 0), call(BPF_FUNC_MAP_LOOKUP_ELEM)],
     "helper expected a buffer pointer"),
    ([ldmap(R1, "rb"), movi(R2, 0), call(BPF_FUNC_RINGBUF_OUTPUT)],
     "helper expected a buffer pointer"),
])
def test_helper_buffer_arguments_fault_alike(source, message):
    assert _outcome(source) == ("fault", message)


@pytest.mark.parametrize("helper_id, map_name", [
    (BPF_FUNC_MAP_LOOKUP_ELEM, "a"),
    (BPF_FUNC_MAP_UPDATE_ELEM, "a"),
    (BPF_FUNC_MAP_UPDATE_ELEM, "h"),
    (BPF_FUNC_RINGBUF_OUTPUT, "rb"),
])
def test_helper_buffer_arguments_in_bounds_equivalent(helper_id, map_name):
    """The same calls with windows inside the stack; map states and
    ring records are compared by ``_assert_equivalent``."""
    source = [storei(R10, -16, 3), storei(R10, -8, 0x55),
              *_helper_call(helper_id, map_name, -16, value_off=-16)]
    assert _outcome(source) == ("ok", 0, len(source) + 1)
