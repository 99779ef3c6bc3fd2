"""The eBPF runtime: executes verified programs.

A program is translated once, at load time, into a Python closure
(:mod:`repro.ebpf.compile`), the way the kernel JIT-compiles a verified
program, and every run executes that closure.  There is no second
execution tier: a program the compiler cannot translate fails to load,
as it does on a kernel built with ``CONFIG_BPF_JIT_ALWAYS_ON``.

The runtime keeps the guarantees the kernel gives: a hard budget on
executed instructions (loop termination; charged per basic block, see
:mod:`repro.ebpf.compile`) and bounds-checked memory even though the
verifier already proved safety (defense in depth — a verifier bug must
not corrupt the "kernel").

Execution cost is reported as the executed-instruction count so callers
(the kprobe dispatch path) can charge simulated nanoseconds for program
runs — eBPF overhead is part of what the paper measures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable

from repro.ebpf.asm import Program
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.maps import BpfMap

INSN_BUDGET = 1 << 20

#: Cost of one executed BPF instruction.  JITed eBPF runs at roughly
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


def _to_signed(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


class Interpreter:
    """The eBPF runtime: the helper and kfunc environment programs run in.

    A program runs as the closure :mod:`repro.ebpf.compile` translates
    it into, once per program and runtime.  :meth:`prepare` is the load
    step (kprobe attach calls it, so the first fire already runs
    compiled code); :meth:`run` compiles on first use when nothing
    loaded the program for this runtime.
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
        #: runtime has no page cache to inspect.
        self.page_stats = None

    def run(self, program: Program, ctx: bytes = b"",
            budget: int = INSN_BUDGET) -> ExecutionResult:
        """Run ``program``'s compiled closure on ``ctx``; raises
        ``CompileError`` for a program that cannot be compiled."""
        compiled = getattr(program, "_compiled", None)
        if compiled is None or compiled.owner is not self:
            compiled = self.prepare(program)
        return compiled.fn(self, ctx, budget)

    def prepare(self, program: Program):
        """Compile ``program`` for this runtime and cache it on the
        program (the program-load step).  Returns the compiled form;
        raises ``CompileError`` when the program cannot be compiled."""
        from repro.ebpf.compile import compile_program
        compiled = compile_program(program, self)
        program._compiled = compiled
        return compiled


def pack_u64(*values: int) -> bytes:
    """Pack integers as a little-endian u64 context struct."""
    return struct.pack(f"<{len(values)}Q", *values)
