"""Translate verified programs into Python closures: the one eBPF tier.

The kernel JIT-compiles a verified program once and runs native code on
every fire.  This module is the analogous step for the miniature
machine: a program's instruction list is translated *once* into Python
source (basic blocks inside a dispatch loop), compiled to CPython
bytecode, and the resulting closure is what
:meth:`~repro.ebpf.interp.Interpreter.run` executes.  There is no other
way to run a program: one this module cannot translate fails to load
(:class:`CompileError`), and ``KprobeManager.attach`` reports that as an
``AttachError``.

The runtime's semantics:

* registers hold masked u64 ints, ``_Ptr`` pointers or ``None``
  (clobbered or never written); every ALU/jump/load/store checks its
  operand types, masks to 64 bits, and faults with a ``RuntimeFault``
  naming the violation;
* helpers and kfuncs are resolved at compile (program-load) time; an
  unknown helper id raises its error only when execution reaches the
  call, and a kfunc unregistered at load time is looked up then (so one
  registered since is called, and one still missing raises its
  registry's error);
* ``insn_count`` is the number of executed instructions, the quantity
  the kprobe path converts into simulated seconds;
* the instruction budget is charged per basic block, at the block's
  entry: a run that would exhaust the budget inside a block faults at
  that block's entry, reporting the pc of the first instruction past
  the budget, and none of the block's instructions run.  Verified
  programs never reach the budget (the verifier bounds their loops);
* the legal pointer cases are emitted inline: ``add``/``sub`` of a
  scalar to a pointer (an immediate's offset folded at compile time),
  the ``jeq``/``jne`` NULL check against 0 on a pointer, and the map
  and buffer arguments of the map and ringbuf helpers.  Every type and
  bounds check still runs per execution; the cases that fault fall
  through to ``_alu_slow``, ``_jmp_slow`` and ``_Region.read_bytes``,
  which raise the fault's message.

``tests/ebpf/reference_interp.py`` keeps a per-instruction interpreter
of the same semantics (checking the budget before every instruction);
the equivalence fuzz in ``tests/ebpf`` runs both side by side.

Compiled code objects are cached by program *structure* (instruction
tuple, map table names, kfunc signatures), so the many per-VM clones of
the same builder-produced program pay ``compile()`` once; per-program
constants (map pointers, resolved kfunc specs) live in each closure's
globals.
"""

from __future__ import annotations

from typing import NoReturn

from repro.ebpf import helpers as H
from repro.ebpf.asm import Program
from repro.ebpf.insn import (
    STACK_SIZE,
    U64_MASK,
    Alu,
    Call,
    CallKfunc,
    Exit,
    Insn,
    Jmp,
    Load,
    LoadMapFd,
    Store,
)
from repro.ebpf.interp import (
    INSN_COST_SECONDS,
    ExecutionResult,
    RuntimeFault,
    _Ptr,
    _Region,
    _to_signed,
)
from repro.ebpf.kfunc import KfuncRegistry

__all__ = ["CompiledProgram", "CompileError", "compile_program"]

#: Structure-keyed cache of compiled code objects (see module docstring).
_CODE_CACHE: dict[tuple, object] = {}

_MASK = "0x%X" % U64_MASK


class CompileError(ValueError):
    """The program cannot be compiled (a non-integer jump target, an
    unknown instruction or ALU op): it fails to load.  The instruction
    constructors and the verifier reject every such program, so only an
    unverified one raises this."""


class CompiledProgram:
    """One program's compiled form, bound to the runtime that loaded it."""

    __slots__ = ("owner", "fn", "source")

    def __init__(self, owner, fn, source: str):
        #: The Interpreter whose kfunc registry the closure was resolved
        #: against; a different runtime must recompile.
        self.owner = owner
        self.fn = fn
        self.source = source


# -- runtime support shared by every closure ---------------------------------

def _budget_fault(budget: int, executed: int, pcs: tuple) -> None:
    """Raise the budget fault naming the instruction that crosses it.

    ``executed`` already includes the whole block (``len(pcs)`` charged
    up front); the budget runs out after ``budget`` total instructions,
    i.e. ``executed - budget`` from the end of this block.
    """
    idx = len(pcs) - (executed - budget)
    raise RuntimeFault(
        f"instruction budget {budget} exhausted at pc {pcs[idx]}")


def _alu_slow(op: str, dst: object) -> NoReturn:
    """The ALU faults: generated code handles scalars, and moves a
    pointer by a scalar, inline; every other operand pair ends here."""
    if isinstance(dst, _Ptr):
        raise RuntimeFault(f"{op} on pointer")
    raise RuntimeFault(f"{op} with non-scalar operand")


def _jmp_slow(dst: object) -> NoReturn:
    """The jump faults: generated code handles scalars, and a pointer's
    NULL check, inline; every other operand pair ends here."""
    if isinstance(dst, _Ptr):
        raise RuntimeFault("pointer comparison beyond NULL check")
    raise RuntimeFault("jump on non-scalar operands")


def _late_kfunc(kfuncs: KfuncRegistry, name: str, *regs) -> int:
    """A call to a kfunc that was unregistered at load time: resolve it
    now, then check, call and mask exactly as an inline call does."""
    spec = kfuncs.get(name)
    args = regs[:spec.n_args]
    for idx, arg in enumerate(args):
        if not isinstance(arg, int):
            raise RuntimeFault(f"kfunc {name}: arg{idx + 1} not scalar")
    result = spec.func(*args)
    return int(result) & U64_MASK if result is not None else 0


#: Globals every generated closure runs against (plus its per-program
#: constants).  ``exec`` copies this into each closure's namespace.
_BASE_NAMESPACE = {
    "_Ptr": _Ptr,
    "_Region": _Region,
    "ExecutionResult": ExecutionResult,
    "RuntimeFault": RuntimeFault,
    "_sg": _to_signed,
    "_fb": int.from_bytes,
    "_cost": INSN_COST_SECONDS,
    "_budget_fault": _budget_fault,
    "_alu_slow": _alu_slow,
    "_jmp_slow": _jmp_slow,
    "_spec_for": H.spec_for,
    "_late_kfunc": _late_kfunc,
}

_CMP = {
    "jeq": "==", "jne": "!=", "jgt": ">", "jge": ">=",
    "jlt": "<", "jle": "<=",
}
_SCMP = {"jsgt": ">", "jsge": ">=", "jslt": "<", "jsle": "<="}


class _Codegen:
    """Walks one program's instruction list and emits Python source."""

    def __init__(self, program: Program, kfuncs: KfuncRegistry):
        self.program = program
        self.kfuncs = kfuncs
        self.lines: list[str] = []
        #: Per-program runtime constants referenced by the source.
        self.consts: dict[str, object] = {}
        self._maps: dict[str, str] = {}      # map name -> const name
        self._nconst = 0

    # -- small utilities ----------------------------------------------------
    def emit(self, indent: int, line: str) -> None:
        self.lines.append("    " * indent + line)

    def const(self, prefix: str, value: object) -> str:
        name = f"_{prefix}{self._nconst}"
        self._nconst += 1
        self.consts[name] = value
        return name

    def map_const(self, map_name: str) -> str:
        """A shared ``_Ptr(None, 0, bpf_map=...)`` per referenced map."""
        if map_name not in self._maps:
            ptr = _Ptr(None, 0, bpf_map=self.program.map_named(map_name))
            self._maps[map_name] = self.const("map", ptr)
        return self._maps[map_name]

    # -- program structure --------------------------------------------------
    def block_starts(self) -> list[int]:
        insns = self.program.insns
        leaders = {0}
        for pc, insn in enumerate(insns):
            if isinstance(insn, Jmp):
                if not isinstance(insn.target, int):
                    raise CompileError(
                        f"unresolved jump target {insn.target!r}")
                if 0 <= insn.target < len(insns):
                    leaders.add(insn.target)
                leaders.add(pc + 1)
            elif isinstance(insn, Exit):
                leaders.add(pc + 1)
        return sorted(pc for pc in leaders if pc < len(insns))

    def generate(self) -> str:
        starts = self.block_starts()
        block_of = {pc: i for i, pc in enumerate(starts)}
        insns = self.program.insns
        # Straight-line programs skip the dispatch loop entirely.  Any
        # jump needs it (even a single-block self-loop uses ``continue``).
        single = (len(starts) == 1
                  and not any(isinstance(i, Jmp) for i in insns))

        self.consts["_span"] = f"bpf:{self.program.name}"
        self.emit(0, "def _bpf_run(rt, ctx, budget):")
        self.emit(1, f'_stk = _Region(bytearray({STACK_SIZE}), True, "stack")')
        self.emit(1, f"r10 = _Ptr(_stk, {STACK_SIZE})")
        self.emit(1, 'r1 = _Ptr(_Region(bytes(ctx), False, "ctx"), 0)')
        self.emit(1, "r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = None")
        self.emit(1, "executed = 0")
        if single:
            body = 1
        else:
            self.emit(1, "_b = 0")
            self.emit(1, "while True:")
            body = 3

        for bi, start in enumerate(starts):
            end = starts[bi + 1] if bi + 1 < len(starts) else len(insns)
            if not single:
                self.emit(2, f"{'if' if bi == 0 else 'elif'} _b == {bi}:")
            pcs = self.const("pcs", tuple(range(start, end)))
            self.emit(body, f"executed += {end - start}")
            self.emit(body, "if executed > budget:")
            self.emit(body + 1, f"_budget_fault(budget, executed, {pcs})")
            terminated = False
            for pc in range(start, end):
                terminated = self.emit_insn(insns[pc], body, block_of)
            if not terminated:
                if end in block_of:
                    self.emit(body, f"_b = {block_of[end]}")
                    self.emit(body, "continue")
                else:
                    self.emit(body, "raise RuntimeFault("
                                    f'"pc {end} out of program")')
        return "\n".join(self.lines) + "\n"

    # -- per-instruction emission -------------------------------------------
    def emit_insn(self, insn: Insn, ind: int, block_of: dict) -> bool:
        """Emit one instruction; returns True when it ends the block."""
        if isinstance(insn, Alu):
            self.emit_alu(insn, ind)
        elif isinstance(insn, Jmp):
            # Only an unconditional jump terminates the block; conditional
            # jumps fall through to the next block when not taken.
            self.emit_jmp(insn, ind, block_of)
            return insn.op == "ja"
        elif isinstance(insn, Load):
            self.emit_load(insn, ind)
        elif isinstance(insn, Store):
            self.emit_store(insn, ind)
        elif isinstance(insn, LoadMapFd):
            self.emit(ind, f"r{insn.dst} = {self.map_const(insn.map_name)}")
        elif isinstance(insn, Call):
            self.emit_call(insn, ind)
        elif isinstance(insn, CallKfunc):
            self.emit_kfunc(insn, ind)
        elif isinstance(insn, Exit):
            self.emit_exit(ind)
            return True
        else:
            raise CompileError(f"unknown instruction {insn!r}")
        return False

    def emit_alu(self, insn: Alu, ind: int) -> None:
        d = f"r{insn.dst}"
        op = insn.op
        if op == "mov":
            if insn.imm is not None:
                self.emit(ind, f"{d} = {insn.imm & U64_MASK}")
            else:
                self.emit(ind, f"{d} = r{insn.src}")
            return
        if op == "neg":
            self.emit(ind, f"if isinstance({d}, int):")
            self.emit(ind + 1, f"{d} = (-{d}) & {_MASK}")
            self.emit(ind, "else:")
            self.emit(ind + 1, 'raise RuntimeFault("neg on pointer")')
            return
        moves = op in ("add", "sub")   # legal on a pointer
        if insn.imm is not None:
            im = insn.imm & U64_MASK
            expr = self._alu_expr(op, d, str(im), imm=im)
            self.emit(ind, f"if isinstance({d}, int):")
            self.emit(ind + 1, f"{d} = {expr}")
            if moves:
                delta = _to_signed(im) if op == "add" else -_to_signed(im)
                off = f"{d}.off {'-' if delta < 0 else '+'} {abs(delta)}"
                self.emit(ind, f"elif isinstance({d}, _Ptr):")
                self.emit(ind + 1, f"{d} = _Ptr({d}.region, {off}, "
                                   f"{d}.bpf_map)")
            self.emit(ind, "else:")
            self.emit(ind + 1, f'_alu_slow("{op}", {d})')
        else:
            s = f"r{insn.src}"
            expr = self._alu_expr(op, d, "_s")
            self.emit(ind, f"_s = {s}")
            self.emit(ind, f"if isinstance({d}, int) and isinstance(_s, int):")
            self.emit(ind + 1, f"{d} = {expr}")
            if moves:
                sign = "+" if op == "add" else "-"
                self.emit(ind, f"elif isinstance({d}, _Ptr) "
                               "and isinstance(_s, int):")
                self.emit(ind + 1, f"{d} = _Ptr({d}.region, {d}.off {sign} "
                                   f"_sg(_s & {_MASK}), {d}.bpf_map)")
            self.emit(ind, "else:")
            self.emit(ind + 1, f'_alu_slow("{op}", {d})')

    @staticmethod
    def _alu_expr(op: str, d: str, s: str, imm: int | None = None) -> str:
        """Expression for ``d <op> s`` on pre-masked u64 scalars."""
        if op == "add":
            return f"({d} + {s}) & {_MASK}"
        if op == "sub":
            return f"({d} - {s}) & {_MASK}"
        if op == "mul":
            return f"({d} * {s}) & {_MASK}"
        if op == "div":
            if imm is not None:
                return "0" if imm == 0 else f"{d} // {s}"
            return f"({d} // {s}) if {s} else 0"
        if op == "mod":
            if imm is not None:
                return d if imm == 0 else f"{d} % {s}"
            return f"({d} % {s}) if {s} else {d}"
        if op == "and":
            return f"{d} & {s}"
        if op == "or":
            return f"{d} | {s}"
        if op == "xor":
            return f"{d} ^ {s}"
        if op == "lsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"({d} << {shift}) & {_MASK}"
        if op == "rsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"{d} >> {shift}"
        if op == "arsh":
            shift = str(imm & 63) if imm is not None else f"({s} & 63)"
            return f"(_sg({d}) >> {shift}) & {_MASK}"
        raise CompileError(f"unknown ALU op {op!r}")

    def emit_jmp(self, insn: Jmp, ind: int, block_of: dict) -> None:
        def goto(target: int, level: int) -> None:
            if target in block_of:
                self.emit(level, f"_b = {block_of[target]}")
                self.emit(level, "continue")
            else:
                self.emit(level, "raise RuntimeFault("
                                 f'"pc {target} out of program")')

        if insn.op == "ja":
            goto(insn.target, ind)
            return
        d = f"r{insn.dst}"
        op = insn.op
        if insn.imm is not None:
            im = insn.imm & U64_MASK
            guard = f"isinstance({d}, int)"
            if op in _CMP:
                expr = f"{d} {_CMP[op]} {im}"
            elif op in _SCMP:
                expr = f"_sg({d}) {_SCMP[op]} {_to_signed(im)}"
            else:  # jset
                expr = f"({d} & {im}) != 0"
            # The NULL check, if the immediate is 0.
            null = "" if im else f"isinstance({d}, _Ptr)"
        else:
            self.emit(ind, f"_s = r{insn.src}")
            guard = f"isinstance({d}, int) and isinstance(_s, int)"
            if op in _CMP:
                expr = f"{d} {_CMP[op]} _s"
            elif op in _SCMP:
                expr = f"_sg({d}) {_SCMP[op]} _sg(_s)"
            else:  # jset
                expr = f"({d} & _s) != 0"
            null = (f"isinstance({d}, _Ptr) and isinstance(_s, int) "
                    "and _s == 0")
        self.emit(ind, f"if {guard}:")
        self.emit(ind + 1, f"_t = {expr}")
        if op in ("jeq", "jne") and null:
            # A live pointer is never NULL (a missed lookup returns
            # scalar 0), so the NULL check's outcome is a constant.
            self.emit(ind, f"elif {null}:")
            self.emit(ind + 1, f"_t = {op == 'jne'}")
        self.emit(ind, "else:")
        self.emit(ind + 1, f"_jmp_slow({d})")
        self.emit(ind, "if _t:")
        goto(insn.target, ind + 1)

    def emit_load(self, insn: Load, ind: int) -> None:
        d, w = f"r{insn.dst}", insn.width
        self.emit(ind, f"_p = r{insn.src}")
        self.emit(ind, "if isinstance(_p, _Ptr) and _p.region is not None:")
        self.emit(ind + 1, "_g = _p.region")
        self.emit(ind + 1, f"_o = _p.off + {insn.off}")
        self.emit(ind + 1, "_m = _g.data")
        self.emit(ind + 1, f"if 0 <= _o and _o + {w} <= len(_m):")
        self.emit(ind + 2, f'{d} = _fb(_m[_o:_o + {w}], "little")')
        self.emit(ind + 1, "else:")
        self.emit(ind + 2, f"{d} = _g.read(_o, {w})")
        self.emit(ind, "else:")
        self.emit(ind + 1, 'raise RuntimeFault('
                           '"load base is not a dereferenceable pointer")')

    def emit_store(self, insn: Store, ind: int) -> None:
        w = insn.width
        wmask = (1 << (8 * w)) - 1
        self.emit(ind, f"_p = r{insn.dst}")
        self.emit(ind, "if isinstance(_p, _Ptr) and _p.region is not None:")
        if insn.imm is not None:
            packed = self.const(
                "c", (insn.imm & wmask).to_bytes(w, "little"))
            value, fast = str(insn.imm), f"_m[_o:_o + {w}] = {packed}"
        else:
            value = "_v"
            fast = (f"_m[_o:_o + {w}] = "
                    f'(_v & {"0x%X" % wmask}).to_bytes({w}, "little")')
            self.emit(ind + 1, f"_v = r{insn.src}")
            self.emit(ind + 1, "if not isinstance(_v, int):")
            self.emit(ind + 2,
                      'raise RuntimeFault("store of non-scalar value")')
        self.emit(ind + 1, "_g = _p.region")
        self.emit(ind + 1, f"_o = _p.off + {insn.off}")
        self.emit(ind + 1, "_m = _g.data")
        self.emit(ind + 1, f"if _g.writable and 0 <= _o "
                           f"and _o + {w} <= len(_m):")
        self.emit(ind + 2, fast)
        self.emit(ind + 1, "else:")
        self.emit(ind + 2, f"_g.write(_o, {w}, {value})")
        self.emit(ind, "else:")
        self.emit(ind + 1, 'raise RuntimeFault('
                           '"store base is not a dereferenceable pointer")')

    def emit_map_arg(self, ind: int) -> None:
        """``_a = `` the map R1 points to, or the helper's fault."""
        self.emit(ind, "_a = r1")
        self.emit(ind, "if isinstance(_a, _Ptr) and _a.bpf_map is not None:")
        self.emit(ind + 1, "_a = _a.bpf_map")
        self.emit(ind, "else:")
        self.emit(ind + 1,
                  'raise RuntimeFault("helper expected a map pointer")')

    def emit_buffer_arg(self, ind: int, var: str, reg: int,
                        size: str) -> None:
        """``var = `` the ``size`` bytes at pointer ``r<reg>``, or the
        helper's fault; an out-of-bounds window faults in
        ``_Region.read_bytes``."""
        self.emit(ind, f"_p = r{reg}")
        self.emit(ind, "if isinstance(_p, _Ptr) and _p.region is not None:")
        self.emit(ind + 1, "_o = _p.off")
        self.emit(ind + 1, f"_n = {size}")
        self.emit(ind + 1, "_m = _p.region.data")
        self.emit(ind + 1, "if 0 <= _o and _o + _n <= len(_m):")
        self.emit(ind + 2, f"{var} = bytes(_m[_o:_o + _n])")
        self.emit(ind + 1, "else:")
        self.emit(ind + 2, f"{var} = _p.region.read_bytes(_o, _n)")
        self.emit(ind, "else:")
        self.emit(ind + 1,
                  'raise RuntimeFault("helper expected a buffer pointer")')

    def emit_call(self, insn: Call, ind: int) -> None:
        hid = insn.helper_id
        if hid == H.BPF_FUNC_MAP_LOOKUP_ELEM:
            self.emit_map_arg(ind)
            self.emit_buffer_arg(ind, "_key", 2, "_a.key_size")
            self.emit(ind, "_v = _a.lookup(_key)")
            self.emit(ind, "if _v is None:")
            self.emit(ind + 1, "r0 = 0")
            self.emit(ind, "else:")
            self.emit(ind + 1,
                      'r0 = _Ptr(_Region(_v, True, "map:" + _a.name), 0)')
        elif hid == H.BPF_FUNC_MAP_UPDATE_ELEM:
            self.emit_map_arg(ind)
            self.emit_buffer_arg(ind, "_key", 2, "_a.key_size")
            self.emit_buffer_arg(ind, "_val", 3, "_a.value_size")
            self.emit(ind, "try:")
            self.emit(ind + 1, "_a.update(_key, _val)")
            self.emit(ind + 1, "r0 = 0")
            self.emit(ind, "except ValueError:")
            self.emit(ind + 1, f"r0 = {_MASK}")
        elif hid == H.BPF_FUNC_MAP_DELETE_ELEM:
            self.emit_map_arg(ind)
            self.emit_buffer_arg(ind, "_key", 2, "_a.key_size")
            self.emit(ind, "try:")
            self.emit(ind + 1, "_a.delete(_key)")
            self.emit(ind + 1, "r0 = 0")
            self.emit(ind, "except ValueError:")
            self.emit(ind + 1, f"r0 = {_MASK}")
        elif hid == H.BPF_FUNC_RINGBUF_OUTPUT:
            self.emit_map_arg(ind)
            self.emit(ind, 'if _a.KIND != "ringbuf":')
            self.emit(ind + 1, 'raise RuntimeFault('
                               '"bpf_ringbuf_output on non-ringbuf map")')
            self.emit_buffer_arg(ind, "_val", 2, "_a.value_size")
            self.emit(ind, f"r0 = _a.output(_val) & {_MASK}")
        elif hid == H.BPF_FUNC_KTIME_GET_NS:
            self.emit(ind, f"r0 = int(rt.time_ns()) & {_MASK}")
        elif hid == H.BPF_FUNC_TRACE_PRINTK:
            self.emit(ind, "_v = r1")
            self.emit(ind, "if not isinstance(_v, int):")
            self.emit(ind + 1,
                      'raise RuntimeFault("trace_printk arg not scalar")')
            self.emit(ind, "rt.printk_log.append(_v)")
            self.emit(ind, "r0 = 0")
        elif hid == H.BPF_FUNC_CACHED_PAGES:
            self.emit(ind, "_v = r1")
            self.emit(ind, "if not isinstance(_v, int):")
            self.emit(ind + 1,
                      'raise RuntimeFault("cached_pages arg not scalar")')
            self.emit(ind, "_ps = rt.page_stats")
            self.emit(ind, "r0 = (0 if _ps is None else "
                           f"int(_ps.cached_pages(_v)) & {_MASK})")
        else:
            # Unknown id: raise the helper table's error lazily, when (if)
            # execution actually reaches the call.
            self.emit(ind, f"_spec_for({hid})")
            self.emit(ind, "raise RuntimeFault("
                           f'"helper {hid} not implemented")')
        self.emit(ind, "r1 = r2 = r3 = r4 = r5 = None")

    def emit_kfunc(self, insn: CallKfunc, ind: int) -> None:
        if insn.name not in self.kfuncs:
            # Resolution failed at load time; resolve when execution
            # reaches the call.
            self.emit(ind, f"r0 = _late_kfunc(rt.kfuncs, {insn.name!r}, "
                           "r1, r2, r3, r4, r5)")
            self.emit(ind, "r1 = r2 = r3 = r4 = r5 = None")
            return
        spec = self.kfuncs.get(insn.name)
        kf = self.const("kf", spec)
        args = []
        for idx in range(spec.n_args):
            arg = f"_a{idx + 1}"
            self.emit(ind, f"{arg} = r{idx + 1}")
            self.emit(ind, f"if not isinstance({arg}, int):")
            self.emit(ind + 1, "raise RuntimeFault("
                               f'"kfunc {insn.name}: arg{idx + 1} '
                               'not scalar")')
            args.append(arg)
        self.emit(ind, f"_x = {kf}.func({', '.join(args)})")
        self.emit(ind, f"r0 = int(_x) & {_MASK} if _x is not None else 0")
        self.emit(ind, "r1 = r2 = r3 = r4 = r5 = None")

    def emit_exit(self, ind: int) -> None:
        self.emit(ind, "if not isinstance(r0, int):")
        self.emit(ind + 1, 'raise RuntimeFault("exit with non-scalar R0")')
        self.emit(ind, "_tr = rt.tracer")
        self.emit(ind, "if _tr is not None and _tr.enabled:")
        self.emit(ind + 1, '_tr.complete(_span, "ebpf", '
                           "rt.time_ns() / 1e9, dur=executed * _cost, "
                           'track="ebpf", insns=executed, r0=r0)')
        self.emit(ind, "return ExecutionResult(r0=r0, insn_count=executed)")


def _cache_key(program: Program, kfuncs: KfuncRegistry) -> tuple:
    """Structure key: everything the generated *source* depends on."""
    kfunc_sig = tuple(
        (insn.name, kfuncs.get(insn.name).n_args
         if insn.name in kfuncs else None)
        for insn in program.insns if isinstance(insn, CallKfunc))
    return (program.name, tuple(program.insns), tuple(program.maps),
            kfunc_sig)


def compile_program(program: Program, interpreter) -> CompiledProgram:
    """Translate ``program`` once for ``interpreter``'s runtime.

    Raises :class:`CompileError` for programs the generator cannot
    handle (unresolved labels, foreign instruction types).
    """
    gen = _Codegen(program, interpreter.kfuncs)
    source = gen.generate()
    key = _cache_key(program, interpreter.kfuncs)
    code = _CODE_CACHE.get(key)
    if code is None:
        code = compile(source, f"<bpf:{program.name}>", "exec")
        _CODE_CACHE[key] = code
    namespace = dict(_BASE_NAMESPACE)
    namespace.update(gen.consts)
    exec(code, namespace)
    return CompiledProgram(owner=interpreter, fn=namespace["_bpf_run"],
                           source=source)
