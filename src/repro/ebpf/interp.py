"""Interpreter for verified programs.

Runs an assembled :class:`~repro.ebpf.asm.Program` against a concrete
context, with the runtime guarantees the kernel gives: a hard budget on
executed instructions (loop termination) and bounds-checked memory even
though the verifier already proved safety (defense in depth — a verifier
bug must not corrupt the "kernel").

Execution cost is reported as the executed-instruction count so callers
(the kprobe dispatch path) can charge simulated nanoseconds for program
runs — eBPF overhead is part of what the paper measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable

from repro.ebpf import helpers as H
from repro.ebpf.asm import Program
from repro.ebpf.insn import (
    FP,
    NUM_REGS,
    R0,
    R1,
    STACK_SIZE,
    U64_MASK,
    Alu,
    Call,
    CallKfunc,
    Exit,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.maps import BpfMap

INSN_BUDGET = 1 << 20

#: Cost of one interpreted BPF instruction.  JITed eBPF runs at roughly
#: nanosecond-per-instruction scale; the exact constant only needs to keep
#: program overhead small relative to I/O, which the paper confirms (<1 %).
INSN_COST_SECONDS = 2e-9


class RuntimeFault(RuntimeError):
    """Illegal runtime behaviour (should be prevented by the verifier)."""


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of one program run."""

    r0: int
    insn_count: int
    trace: list[int] = field(default_factory=list)


class _Region:
    """A bounds-checked byte region addressable from BPF."""

    __slots__ = ("data", "writable", "name")

    def __init__(self, data: bytearray | bytes, writable: bool, name: str):
        self.data = data
        self.writable = writable
        self.name = name

    def read(self, off: int, width: int) -> int:
        if off < 0 or off + width > len(self.data):
            raise RuntimeFault(
                f"{self.name}: read [{off}, {off + width}) out of bounds")
        return int.from_bytes(self.data[off:off + width], "little")

    def read_bytes(self, off: int, size: int) -> bytes:
        if off < 0 or off + size > len(self.data):
            raise RuntimeFault(
                f"{self.name}: read [{off}, {off + size}) out of bounds")
        return bytes(self.data[off:off + size])

    def write(self, off: int, width: int, value: int) -> None:
        if not self.writable:
            raise RuntimeFault(f"{self.name}: region is read-only")
        if off < 0 or off + width > len(self.data):
            raise RuntimeFault(
                f"{self.name}: write [{off}, {off + width}) out of bounds")
        self.data[off:off + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(
            width, "little")


@dataclass(slots=True)
class _Ptr:
    """A concrete typed pointer: region + byte offset."""

    region: _Region | None
    off: int
    bpf_map: BpfMap | None = None  # set for const-map pointers

    def moved(self, delta: int) -> "_Ptr":
        return _Ptr(self.region, self.off + delta, self.bpf_map)


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


class Interpreter:
    """Executes programs; shared helper/kfunc environment.

    Two execution tiers share this entry point.  A program is *compiled*
    on first run — translated once into a Python closure with identical
    semantics (see :mod:`repro.ebpf.compile`) — and every later run
    executes the closure.  The per-instruction interpreter loop runs
    programs the compiler rejects (``CompileError``) and, with
    ``use_compiled = False`` on an instance, serves as the reference the
    equivalence fuzz harness runs side by side with the compiled tier.
    """

    def __init__(self, kfuncs: KfuncRegistry | None = None,
                 time_ns: Callable[[], int] | None = None):
        self.kfuncs = kfuncs or KfuncRegistry()
        self.time_ns = time_ns or (lambda: 0)
        self.printk_log: list[int] = []
        #: Trace plane hook (duck-typed; see repro.trace).  When set and
        #: enabled, every completed program run emits one span.
        self.tracer = None
        #: Residency hook for bpf_cached_pages(): any object exposing
        #: ``cached_pages(ino) -> int`` (the kernel wires its page cache
        #: here).  ``None`` makes the helper report 0 — a standalone
        #: interpreter has no page cache to inspect.
        self.page_stats = None
        #: Tier switch: compiled closures unless a test turns it off to
        #: run the interpreter loop as the reference.
        self.use_compiled = True

    def run(self, program: Program, ctx: bytes = b"",
            budget: int = INSN_BUDGET) -> ExecutionResult:
        """Run ``program`` on the active tier (compiled unless disabled)."""
        if self.use_compiled:
            compiled = getattr(program, "_compiled", None)
            if compiled is None or compiled.owner is not self:
                compiled = self.prepare(program)
                if compiled is None:   # generator punted; interpret
                    return self.interpret(program, ctx, budget)
            return compiled.fn(self, ctx, budget)
        return self.interpret(program, ctx, budget)

    def prepare(self, program: Program):
        """Compile ``program`` for this runtime and cache it on the
        program (the program-load step; kprobe attach calls this so the
        first fire already runs compiled code).  Returns the compiled
        form, or ``None`` when the program cannot be compiled."""
        from repro.ebpf.compile import CompileError, compile_program
        self._kfunc_table(program)   # resolve once for both tiers
        try:
            compiled = compile_program(program, self)
        except CompileError:
            return None
        program._compiled = compiled
        return compiled

    def interpret(self, program: Program, ctx: bytes = b"",
                  budget: int = INSN_BUDGET) -> ExecutionResult:
        """The per-instruction tier: the fallback for programs the
        compiler rejects, and the reference the compiled tier is fuzzed
        against."""
        stack = _Region(bytearray(STACK_SIZE), writable=True, name="stack")
        ctx_region = _Region(bytes(ctx), writable=False, name="ctx")
        regs: list[object] = [None] * NUM_REGS
        regs[R1] = _Ptr(ctx_region, 0)
        regs[FP] = _Ptr(stack, STACK_SIZE)

        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        kfunc_table = self._kfunc_table(program)
        pc = 0
        executed = 0
        while True:
            if executed >= budget:
                raise RuntimeFault(
                    f"instruction budget {budget} exhausted at pc {pc}")
            if not 0 <= pc < len(program.insns):
                raise RuntimeFault(f"pc {pc} out of program")
            insn = program.insns[pc]
            executed += 1

            if isinstance(insn, Exit):
                r0 = regs[R0]
                if not isinstance(r0, int):
                    raise RuntimeFault("exit with non-scalar R0")
                if tracing:
                    tracer.complete(
                        f"bpf:{program.name}", "ebpf",
                        self.time_ns() / 1e9,
                        dur=executed * INSN_COST_SECONDS, track="ebpf",
                        insns=executed, r0=r0)
                return ExecutionResult(r0=r0, insn_count=executed)
            if isinstance(insn, Alu):
                self._alu(regs, insn)
                pc += 1
            elif isinstance(insn, Jmp):
                pc = self._jump(regs, insn, pc)
            elif isinstance(insn, Load):
                ptr = self._as_ptr(regs[insn.src], "load base")
                regs[insn.dst] = ptr.region.read(ptr.off + insn.off, insn.width)
                pc += 1
            elif isinstance(insn, Store):
                ptr = self._as_ptr(regs[insn.dst], "store base")
                value = insn.imm if insn.imm is not None else regs[insn.src]
                if not isinstance(value, int):
                    raise RuntimeFault("store of non-scalar value")
                ptr.region.write(ptr.off + insn.off, insn.width, value)
                pc += 1
            elif isinstance(insn, LoadMapFd):
                regs[insn.dst] = _Ptr(None, 0,
                                      bpf_map=program.map_named(insn.map_name))
                pc += 1
            elif isinstance(insn, Call):
                regs[R0] = self._helper(regs, insn.helper_id)
                self._clobber(regs)
                pc += 1
            elif isinstance(insn, CallKfunc):
                spec = kfunc_table.get(insn.name)
                if spec is None:   # unresolved (or late-registered) name
                    spec = self.kfuncs.get(insn.name)
                args = []
                for arg_idx in range(spec.n_args):
                    arg = regs[R1 + arg_idx]
                    if not isinstance(arg, int):
                        raise RuntimeFault(
                            f"kfunc {insn.name}: arg{arg_idx + 1} not scalar")
                    args.append(arg)
                result = spec.func(*args)
                regs[R0] = int(result) & U64_MASK if result is not None else 0
                self._clobber(regs)
                pc += 1
            else:  # pragma: no cover
                raise RuntimeFault(f"unknown instruction {insn!r}")

    def _kfunc_table(self, program: Program) -> dict:
        """Kfunc resolution hoisted to program-load time (once per
        program, not per invocation); the compiled tier resolves against
        the same registry at the same point.  Names that fail to resolve
        stay lazy so late registration — or the registry's error — keeps
        per-invocation behaviour."""
        cached = getattr(program, "_kfunc_table", None)
        if cached is not None and cached[0] is self.kfuncs:
            return cached[1]
        table = {insn.name: self.kfuncs.get(insn.name)
                 for insn in program.insns
                 if isinstance(insn, CallKfunc) and insn.name in self.kfuncs}
        program._kfunc_table = (self.kfuncs, table)
        return table

    # -- instruction semantics -------------------------------------------------
    @staticmethod
    def _as_ptr(value: object, what: str) -> _Ptr:
        if not isinstance(value, _Ptr) or value.region is None:
            raise RuntimeFault(f"{what} is not a dereferenceable pointer")
        return value

    def _alu(self, regs: list[object], insn: Alu) -> None:
        op = insn.op
        if op == "mov":
            regs[insn.dst] = (insn.imm & U64_MASK if insn.imm is not None
                              else regs[insn.src])
            return
        if op == "neg":
            value = regs[insn.dst]
            if not isinstance(value, int):
                raise RuntimeFault("neg on pointer")
            regs[insn.dst] = (-value) & U64_MASK
            return
        dst = regs[insn.dst]
        src = insn.imm if insn.imm is not None else regs[insn.src]
        if isinstance(dst, _Ptr):
            if op == "add" and isinstance(src, int):
                regs[insn.dst] = dst.moved(_to_signed(src & U64_MASK))
            elif op == "sub" and isinstance(src, int):
                regs[insn.dst] = dst.moved(-_to_signed(src & U64_MASK))
            else:
                raise RuntimeFault(f"{op} on pointer")
            return
        if not isinstance(dst, int) or not isinstance(src, int):
            raise RuntimeFault(f"{op} with non-scalar operand")
        src &= U64_MASK
        if op == "add":
            result = dst + src
        elif op == "sub":
            result = dst - src
        elif op == "mul":
            result = dst * src
        elif op == "div":
            result = 0 if src == 0 else dst // src
        elif op == "mod":
            result = dst if src == 0 else dst % src
        elif op == "and":
            result = dst & src
        elif op == "or":
            result = dst | src
        elif op == "xor":
            result = dst ^ src
        elif op == "lsh":
            result = dst << (src & 63)
        elif op == "rsh":
            result = dst >> (src & 63)
        elif op == "arsh":
            result = _to_signed(dst) >> (src & 63)
        else:  # pragma: no cover - validated at construction
            raise RuntimeFault(f"unknown ALU op {op}")
        regs[insn.dst] = result & U64_MASK

    def _jump(self, regs: list[object], insn: Jmp, pc: int) -> int:
        if insn.op == "ja":
            return insn.target
        dst = regs[insn.dst]
        src = insn.imm if insn.imm is not None else regs[insn.src]
        if isinstance(dst, _Ptr):
            # Only the NULL check is legal on pointers; a live _Ptr is by
            # construction non-null (NULL lookups return scalar 0).
            if insn.op in ("jeq", "jne") and isinstance(src, int) and src == 0:
                return insn.target if insn.op == "jne" else pc + 1
            raise RuntimeFault("pointer comparison beyond NULL check")
        if not isinstance(dst, int) or not isinstance(src, int):
            raise RuntimeFault("jump on non-scalar operands")
        dst &= U64_MASK
        src &= U64_MASK
        op = insn.op
        if op == "jeq":
            taken = dst == src
        elif op == "jne":
            taken = dst != src
        elif op == "jgt":
            taken = dst > src
        elif op == "jge":
            taken = dst >= src
        elif op == "jlt":
            taken = dst < src
        elif op == "jle":
            taken = dst <= src
        elif op == "jsgt":
            taken = _to_signed(dst) > _to_signed(src)
        elif op == "jsge":
            taken = _to_signed(dst) >= _to_signed(src)
        elif op == "jslt":
            taken = _to_signed(dst) < _to_signed(src)
        elif op == "jsle":
            taken = _to_signed(dst) <= _to_signed(src)
        elif op == "jset":
            taken = (dst & src) != 0
        else:  # pragma: no cover
            raise RuntimeFault(f"unknown jump op {op}")
        return insn.target if taken else pc + 1

    # -- helpers ---------------------------------------------------------------
    def _helper(self, regs: list[object], helper_id: int) -> object:
        # Dispatch directly on the id: the helper table is static, so
        # there is nothing to resolve per invocation (spec_for is only
        # consulted for unknown ids, to raise its canonical error).
        if helper_id == H.BPF_FUNC_MAP_LOOKUP_ELEM:
            bpf_map = self._map_arg(regs[R1])
            key = self._buffer_arg(regs[R1 + 1], bpf_map.key_size)
            value = bpf_map.lookup(key)
            if value is None:
                return 0
            return _Ptr(_Region(value, writable=True,
                                name=f"map:{bpf_map.name}"), 0)
        if helper_id == H.BPF_FUNC_MAP_UPDATE_ELEM:
            bpf_map = self._map_arg(regs[R1])
            key = self._buffer_arg(regs[R1 + 1], bpf_map.key_size)
            value = self._buffer_arg(regs[R1 + 2], bpf_map.value_size)
            try:
                bpf_map.update(key, value)
            except ValueError:
                return (-1) & U64_MASK
            return 0
        if helper_id == H.BPF_FUNC_MAP_DELETE_ELEM:
            bpf_map = self._map_arg(regs[R1])
            key = self._buffer_arg(regs[R1 + 1], bpf_map.key_size)
            try:
                bpf_map.delete(key)
            except ValueError:
                return (-1) & U64_MASK
            return 0
        if helper_id == H.BPF_FUNC_RINGBUF_OUTPUT:
            bpf_map = self._map_arg(regs[R1])
            if bpf_map.KIND != "ringbuf":
                raise RuntimeFault("bpf_ringbuf_output on non-ringbuf map")
            data = self._buffer_arg(regs[R1 + 1], bpf_map.value_size)
            # reserve + copy + commit; a full ring is -ENOSPC (flattened
            # to -1 like the update helper), never a fault.
            return bpf_map.output(data) & U64_MASK
        if helper_id == H.BPF_FUNC_KTIME_GET_NS:
            return int(self.time_ns()) & U64_MASK
        if helper_id == H.BPF_FUNC_TRACE_PRINTK:
            value = regs[R1]
            if not isinstance(value, int):
                raise RuntimeFault("trace_printk arg not scalar")
            self.printk_log.append(value)
            return 0
        if helper_id == H.BPF_FUNC_CACHED_PAGES:
            ino = regs[R1]
            if not isinstance(ino, int):
                raise RuntimeFault("cached_pages arg not scalar")
            if self.page_stats is None:
                return 0
            return int(self.page_stats.cached_pages(ino)) & U64_MASK
        H.spec_for(helper_id)   # unknown id: raise the canonical KeyError
        raise RuntimeFault(f"helper {helper_id} not implemented")

    @staticmethod
    def _map_arg(value: object) -> BpfMap:
        if not isinstance(value, _Ptr) or value.bpf_map is None:
            raise RuntimeFault("helper expected a map pointer")
        return value.bpf_map

    @staticmethod
    def _buffer_arg(value: object, size: int) -> bytes:
        if not isinstance(value, _Ptr) or value.region is None:
            raise RuntimeFault("helper expected a buffer pointer")
        return value.region.read_bytes(value.off, size)

    @staticmethod
    def _clobber(regs: list[object]) -> None:
        for reg in range(R1, R1 + 5):
            regs[reg] = None


def pack_u64(*values: int) -> bytes:
    """Pack integers as a little-endian u64 context struct."""
    return struct.pack(f"<{len(values)}Q", *values)
