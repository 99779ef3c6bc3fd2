"""Instruction set for the miniature eBPF machine.

Eleven 64-bit registers (R0..R10) with the classic eBPF calling
convention: R0 return value, R1-R5 helper arguments (clobbered by calls),
R6-R9 callee-saved, R10 read-only frame pointer to a 512-byte stack.

Instructions are plain dataclasses rather than packed 8-byte words; the
opcode vocabulary and operand semantics mirror eBPF so that the verifier
and runtime face the same problems the real ones do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

NUM_REGS = 11
R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10 = range(NUM_REGS)
FP = R10

STACK_SIZE = 512

#: ALU operation mnemonics.
ALU_OPS = frozenset({
    "mov", "add", "sub", "mul", "div", "mod", "and", "or", "xor",
    "lsh", "rsh", "arsh", "neg",
})

#: Conditional jump mnemonics (plus unconditional "ja").
JMP_OPS = frozenset({
    "ja", "jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jsge",
    "jslt", "jsle", "jset",
})

#: Memory access widths in bytes.
WIDTHS = frozenset({1, 2, 4, 8})

U64_MASK = (1 << 64) - 1


def _check_reg(reg: int, name: str) -> None:
    if not isinstance(reg, int) or not 0 <= reg < NUM_REGS:
        raise ValueError(f"{name} must be a register index 0..10, got {reg!r}")


@dataclass(frozen=True)
class Insn:
    """Base class so isinstance checks cover the whole ISA."""


@dataclass(frozen=True)
class Alu(Insn):
    """``dst = dst <op> (src register | imm)``; exactly one source set."""

    op: str
    dst: int
    src: int | None = None
    imm: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ALU_OPS:
            raise ValueError(f"unknown ALU op {self.op!r}")
        _check_reg(self.dst, "dst")
        if self.op == "neg":
            if self.src is not None or self.imm is not None:
                raise ValueError("neg takes no source operand")
        elif (self.src is None) == (self.imm is None):
            raise ValueError("ALU needs exactly one of src/imm")
        if self.src is not None:
            _check_reg(self.src, "src")


@dataclass(frozen=True)
class Jmp(Insn):
    """Conditional/unconditional jump.  ``target`` is a label name until
    assembly resolves it into an absolute instruction index."""

    op: str
    target: Any
    dst: int | None = None
    src: int | None = None
    imm: int | None = None

    def __post_init__(self) -> None:
        if self.op not in JMP_OPS:
            raise ValueError(f"unknown jump op {self.op!r}")
        if self.op == "ja":
            if self.dst is not None or self.src is not None or self.imm is not None:
                raise ValueError("ja takes only a target")
            return
        if self.dst is None:
            raise ValueError(f"{self.op} needs a dst register")
        _check_reg(self.dst, "dst")
        if (self.src is None) == (self.imm is None):
            raise ValueError("conditional jump needs exactly one of src/imm")
        if self.src is not None:
            _check_reg(self.src, "src")


@dataclass(frozen=True)
class Load(Insn):
    """``dst = *(u<width*8> *)(src + off)``."""

    dst: int
    src: int
    off: int
    width: int = 8

    def __post_init__(self) -> None:
        _check_reg(self.dst, "dst")
        _check_reg(self.src, "src")
        if self.width not in WIDTHS:
            raise ValueError(f"bad load width {self.width}")


@dataclass(frozen=True)
class Store(Insn):
    """``*(u<width*8> *)(dst + off) = (src register | imm)``."""

    dst: int
    off: int
    src: int | None = None
    imm: int | None = None
    width: int = 8

    def __post_init__(self) -> None:
        _check_reg(self.dst, "dst")
        if (self.src is None) == (self.imm is None):
            raise ValueError("store needs exactly one of src/imm")
        if self.src is not None:
            _check_reg(self.src, "src")
        if self.width not in WIDTHS:
            raise ValueError(f"bad store width {self.width}")


@dataclass(frozen=True)
class LoadMapFd(Insn):
    """``dst = &map`` — the BPF_LD_IMM64/BPF_PSEUDO_MAP_FD idiom.

    ``map_name`` is resolved against the program's map table at attach
    time; the verifier types ``dst`` as CONST_PTR_TO_MAP.
    """

    dst: int
    map_name: str

    def __post_init__(self) -> None:
        _check_reg(self.dst, "dst")


@dataclass(frozen=True)
class Call(Insn):
    """Call a BPF helper by well-known id (see :mod:`repro.ebpf.helpers`)."""

    helper_id: int


@dataclass(frozen=True)
class CallKfunc(Insn):
    """Call a kernel function exposed to BPF (kfunc) by name.

    Verification fails unless the name is registered in the attaching
    runtime's :class:`~repro.ebpf.kfunc.KfuncRegistry` — this is the exact
    mechanism that lets SnapBPF reach ``page_cache_ra_unbounded()`` while
    ordinary programs cannot touch the page cache at all.
    """

    name: str


@dataclass(frozen=True)
class Exit(Insn):
    """Return R0 to the kernel."""
