"""Verifier/runtime soundness fuzzing.

Two properties the kernel verifier promises, checked over randomly
generated programs:

1. The verifier never crashes: any syntactically valid program is either
   accepted or rejected with a VerificationError.
2. *Soundness*: a program the verifier accepts compiles, and never
   faults at runtime — no out-of-bounds access, no bad dereference, no
   type confusion — the only permitted runtime stop is the instruction
   budget (loops).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ebpf.asm import Program, assemble
from repro.ebpf.compile import CompileError
from repro.ebpf.insn import (
    Alu,
    ALU_OPS,
    Call,
    Exit,
    JMP_OPS,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.interp import Interpreter, RuntimeFault, pack_u64
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.verifier import VerificationError, Verifier

CTX_SIZE = 16
PROGRAM_LEN = 12

regs = st.integers(0, 10)
imms = st.sampled_from([-16, -8, -4, -1, 0, 1, 4, 8, 16, 512, 1 << 40])
widths = st.sampled_from([1, 2, 4, 8])
targets = st.integers(0, PROGRAM_LEN)  # may be out of range: verifier's job
helper_ids = st.sampled_from([1, 2, 3, 5, 6, 99])


def alu_insns():
    reg_variant = st.builds(
        lambda op, dst, src: Alu(op, dst, src=src),
        st.sampled_from(sorted(ALU_OPS - {"neg"})), regs, regs)
    imm_variant = st.builds(
        lambda op, dst, imm: Alu(op, dst, imm=imm),
        st.sampled_from(sorted(ALU_OPS - {"neg"})), regs, imms)
    neg = st.builds(lambda dst: Alu("neg", dst), regs)
    return st.one_of(reg_variant, imm_variant, neg)


def jmp_insns():
    ja = st.builds(lambda t: Jmp("ja", t), targets)
    cond = st.builds(
        lambda op, dst, t, imm: Jmp(op, t, dst=dst, imm=imm),
        st.sampled_from(sorted(JMP_OPS - {"ja"})), regs, targets, imms)
    return st.one_of(ja, cond)


insn_strategy = st.one_of(
    alu_insns(),
    jmp_insns(),
    st.builds(Load, regs, regs, imms, widths),
    st.builds(lambda dst, off, imm, width: Store(dst, off, imm=imm,
                                                 width=width),
              regs, imms, imms, widths),
    st.builds(lambda dst, off, src, width: Store(dst, off, src=src,
                                                 width=width),
              regs, imms, regs, widths),
    st.builds(LoadMapFd, regs, st.sampled_from(["h", "a"])),
    st.builds(Call, helper_ids),
)

program_strategy = st.lists(insn_strategy, min_size=1,
                            max_size=PROGRAM_LEN - 1)


def build(insns) -> Program:
    maps = {"h": HashMap("h", key_size=8, value_size=8),
            "a": ArrayMap("a", value_size=16, max_entries=4)}
    return assemble("fuzz", list(insns) + [Exit()], maps=maps)


@settings(max_examples=400, deadline=None)
@given(insns=program_strategy)
def test_verifier_never_crashes(insns):
    program = build(insns)
    try:
        Verifier(ctx_size=CTX_SIZE).verify(program)
    except VerificationError:
        pass  # rejection is a valid outcome


@settings(max_examples=400, deadline=None)
@given(insns=program_strategy)
def test_verified_programs_never_fault(insns):
    program = build(insns)
    try:
        Verifier(ctx_size=CTX_SIZE).verify(program)
    except VerificationError:
        return  # rejected: nothing to run
    interp = Interpreter()
    try:
        interp.prepare(program)
    except CompileError as exc:
        pytest.fail(f"verifier accepted a program that does not compile "
                    f"({exc}):\n{program.insns}")
    try:
        result = interp.run(program, pack_u64(7, 9), budget=50_000)
    except RuntimeFault as fault:
        assert "budget" in str(fault), (
            f"verifier soundness hole: accepted program faulted with "
            f"{fault!r}:\n{program.insns}")
    else:
        assert isinstance(result.r0, int)
