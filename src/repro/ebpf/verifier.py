"""Static verifier: abstract interpretation over register types.

Like the kernel verifier, this explores every control-flow path of a
program with an abstract machine whose register values are *types*:
scalars, typed pointers with statically-known offsets, and
possibly-NULL map-value pointers that must be null-checked before
dereference.  A program attaches only if every path:

* never reads an uninitialized register or stack slot,
* keeps every memory access within its region (512-byte stack, map value
  size, attach-point context size),
* null-checks every ``bpf_map_lookup_elem`` result before dereference,
* passes correctly-typed arguments to helpers,
* only calls kfuncs registered with the runtime it attaches to,
* terminates verification within a state budget (the runtime
  additionally enforces an executed-instruction budget).

Before exploring any path it checks that every instruction, reachable
or not, is one the load-time compiler translates: a known instruction
type, and an integer (label-resolved) jump target.

The abstract domain is finite (types + bounded offsets), so the worklist
fixpoint terminates even for programs with loops — which SnapBPF's
prefetch program has (it walks the grouped-offset array map).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.ebpf import helpers as H
from repro.ebpf.asm import Program
from repro.ebpf.insn import (
    FP,
    NUM_REGS,
    R0,
    R1,
    STACK_SIZE,
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

MAX_INSNS = 4096
MAX_STATES = 200_000


class VerificationError(ValueError):
    """Program rejected; message says which insn and why."""

    def __init__(self, pc: int, reason: str):
        super().__init__(f"insn {pc}: {reason}")
        self.pc = pc
        self.reason = reason


# -- abstract values ----------------------------------------------------------
@dataclass(frozen=True)
class AbstractValue:
    pass


@dataclass(frozen=True)
class Uninit(AbstractValue):
    pass


@dataclass(frozen=True)
class Scalar(AbstractValue):
    pass


@dataclass(frozen=True)
class ConstPtrToMap(AbstractValue):
    map_name: str


@dataclass(frozen=True)
class PtrToMapValue(AbstractValue):
    map_name: str
    off: int | None  # None = statically unknown (deref rejected)


@dataclass(frozen=True)
class PtrToMapValueOrNull(AbstractValue):
    map_name: str


@dataclass(frozen=True)
class PtrToStack(AbstractValue):
    off: int | None  # byte offset from stack base; FP starts at STACK_SIZE


@dataclass(frozen=True)
class PtrToCtx(AbstractValue):
    off: int | None


_UNINIT = Uninit()
_SCALAR = Scalar()

_POINTER_TYPES = (ConstPtrToMap, PtrToMapValue, PtrToMapValueOrNull,
                  PtrToStack, PtrToCtx)

_INSN_TYPES = (Alu, Jmp, Load, Store, LoadMapFd, Call, CallKfunc, Exit)


@dataclass(frozen=True)
class AbstractState:
    """Registers + set of initialized stack bytes, at one program point."""

    regs: tuple[AbstractValue, ...]
    stack_init: frozenset[int]

    def with_reg(self, reg: int, value: AbstractValue) -> "AbstractState":
        regs = list(self.regs)
        regs[reg] = value
        return AbstractState(tuple(regs), self.stack_init)

    def with_stack_init(self, offsets: Iterable[int]) -> "AbstractState":
        return AbstractState(self.regs, self.stack_init | frozenset(offsets))


def _initial_state(ctx_size: int) -> AbstractState:
    regs: list[AbstractValue] = [_UNINIT] * NUM_REGS
    regs[R1] = PtrToCtx(0) if ctx_size > 0 else _SCALAR
    regs[FP] = PtrToStack(STACK_SIZE)
    return AbstractState(tuple(regs), frozenset())


class Verifier:
    """Verifies a :class:`Program` against an attach context and runtime.

    Parameters
    ----------
    ctx_size:
        Size in bytes of the context struct the attach point provides
        (e.g. a kprobe exposes the hooked function's arguments).
    kfuncs:
        The runtime's kfunc registry; ``CallKfunc`` to unregistered names
        is rejected, which is the sandbox boundary the paper describes.
    """

    def __init__(self, ctx_size: int = 0,
                 kfuncs: KfuncRegistry | None = None):
        self.ctx_size = ctx_size
        self.kfuncs = kfuncs or KfuncRegistry()

    # -- public API --------------------------------------------------------
    def verify(self, program: Program) -> None:
        # The program is needed during load/store bounds checks (map value
        # sizes); keep it for the duration of this verification run.
        self._program = program
        insns = program.insns
        if len(insns) > MAX_INSNS:
            raise VerificationError(0, f"program too large ({len(insns)} insns)")
        if not isinstance(insns[-1], (Exit, Jmp)):
            raise VerificationError(len(insns) - 1,
                                    "program does not end with exit or jump")
        # Every instruction must decode, reachable or not: the whole
        # program is compiled at load time, like the kernel's JIT.
        for pc, insn in enumerate(insns):
            if not isinstance(insn, _INSN_TYPES):
                raise VerificationError(pc, f"unknown instruction {insn!r}")
            if isinstance(insn, Jmp) and not isinstance(insn.target, int):
                raise VerificationError(
                    pc, f"jump target {insn.target!r} is not an "
                        "instruction index")

        seen: dict[int, set[AbstractState]] = {}
        worklist: list[tuple[int, AbstractState]] = [
            (0, _initial_state(self.ctx_size))]
        explored = 0
        while worklist:
            pc, state = worklist.pop()
            if pc >= len(insns):
                raise VerificationError(pc, "control flow falls off the program")
            if state in seen.setdefault(pc, set()):
                continue
            seen[pc].add(state)
            explored += 1
            if explored > MAX_STATES:
                raise VerificationError(pc, "state budget exhausted "
                                            "(program too complex)")
            for nxt_pc, nxt_state in self._step(program, pc, state):
                worklist.append((nxt_pc, nxt_state))

    # -- transfer function ---------------------------------------------------
    def _step(self, program: Program, pc: int,
              state: AbstractState) -> list[tuple[int, AbstractState]]:
        insn = program.insns[pc]
        if isinstance(insn, Exit):
            if isinstance(state.regs[R0], Uninit):
                raise VerificationError(pc, "R0 not initialized at exit")
            if not isinstance(state.regs[R0], Scalar):
                raise VerificationError(
                    pc, f"R0 must be a scalar at exit, "
                        f"got {state.regs[R0]!r} (pointer leak)")
            return []
        if isinstance(insn, Alu):
            return [(pc + 1, self._alu(pc, state, insn))]
        if isinstance(insn, Jmp):
            return self._jump(program, pc, state, insn)
        if isinstance(insn, Load):
            return [(pc + 1, self._load(pc, state, insn))]
        if isinstance(insn, Store):
            return [(pc + 1, self._store(pc, state, insn))]
        if isinstance(insn, LoadMapFd):
            return [(pc + 1, state.with_reg(insn.dst,
                                            ConstPtrToMap(insn.map_name)))]
        if isinstance(insn, Call):
            return [(pc + 1, self._call(program, pc, state, insn))]
        # A CallKfunc: verify() rejected every other type up front.
        return [(pc + 1, self._call_kfunc(pc, state, insn))]

    def _read_reg(self, pc: int, state: AbstractState, reg: int,
                  what: str) -> AbstractValue:
        value = state.regs[reg]
        if isinstance(value, Uninit):
            raise VerificationError(pc, f"{what} R{reg} is uninitialized")
        return value

    # .. ALU ..................................................................
    def _alu(self, pc: int, state: AbstractState, insn: Alu) -> AbstractState:
        if insn.dst == FP:
            raise VerificationError(pc, "frame pointer is read-only")
        op = insn.op
        if op == "mov":
            if insn.imm is not None:
                return state.with_reg(insn.dst, _SCALAR)
            src_val = self._read_reg(pc, state, insn.src, "mov source")
            return state.with_reg(insn.dst, src_val)
        if op == "neg":
            dst_val = self._read_reg(pc, state, insn.dst, "neg operand")
            if isinstance(dst_val, _POINTER_TYPES):
                raise VerificationError(pc, "arithmetic on pointer")
            return state

        dst_val = self._read_reg(pc, state, insn.dst, "ALU dst")
        src_is_ptr = False
        if insn.src is not None:
            src_val = self._read_reg(pc, state, insn.src, "ALU src")
            src_is_ptr = isinstance(src_val, _POINTER_TYPES)

        if isinstance(dst_val, _POINTER_TYPES):
            if op not in ("add", "sub"):
                raise VerificationError(pc, f"{op} on pointer prohibited")
            if isinstance(dst_val, (ConstPtrToMap, PtrToMapValueOrNull)):
                raise VerificationError(
                    pc, "arithmetic on map pointer / unchecked map value")
            if src_is_ptr:
                raise VerificationError(pc, "pointer +/- pointer prohibited")
            if insn.imm is not None and dst_val.off is not None:
                delta = insn.imm if op == "add" else -insn.imm
                return state.with_reg(insn.dst,
                                      replace(dst_val, off=dst_val.off + delta))
            # Variable adjustment: offset becomes unknown, deref will be
            # rejected (we do not track scalar ranges).
            return state.with_reg(insn.dst, replace(dst_val, off=None))
        if src_is_ptr:
            raise VerificationError(pc, "pointer used as scalar ALU source")
        return state.with_reg(insn.dst, _SCALAR)

    # .. jumps ................................................................
    def _jump(self, program: Program, pc: int, state: AbstractState,
              insn: Jmp) -> list[tuple[int, AbstractState]]:
        target = insn.target
        if not 0 <= target < len(program.insns):
            raise VerificationError(pc, f"jump target {target} out of range")
        if insn.op == "ja":
            return [(target, state)]

        dst_val = self._read_reg(pc, state, insn.dst, "jump operand")
        src_val = None
        if insn.src is not None:
            src_val = self._read_reg(pc, state, insn.src, "jump operand")

        # NULL-check refinement: `if (ptr ==/!= 0)` on a maybe-null map value.
        if (isinstance(dst_val, PtrToMapValueOrNull) and insn.src is None
                and insn.imm == 0 and insn.op in ("jeq", "jne")):
            non_null = state.with_reg(insn.dst,
                                      PtrToMapValue(dst_val.map_name, 0))
            null = state.with_reg(insn.dst, _SCALAR)
            if insn.op == "jeq":
                return [(target, null), (pc + 1, non_null)]
            return [(target, non_null), (pc + 1, null)]

        for operand, val in (("dst", dst_val), ("src", src_val)):
            if isinstance(val, (PtrToMapValueOrNull, ConstPtrToMap)):
                raise VerificationError(
                    pc, f"comparison on unchecked/const map pointer ({operand})")
        # Pointers admit only the exact NULL-check shape the runtime
        # accepts, `jeq/jne ptr, 0`.  Anything else — nonzero immediate,
        # relational op, or a pointer in the src operand — faults at
        # runtime, so reject it here.
        if src_val is not None and not isinstance(src_val, Scalar):
            raise VerificationError(pc, "pointer in jump src operand")
        if not isinstance(dst_val, Scalar) and not (
                insn.op in ("jeq", "jne") and insn.src is None
                and insn.imm == 0):
            raise VerificationError(pc, "pointer comparison beyond NULL check")
        return [(target, state), (pc + 1, state)]

    # .. memory ...............................................................
    def _mem_region(self, pc: int, program: Program, value: AbstractValue,
                    off: int, width: int, is_store: bool) -> tuple[str, int]:
        """Validate access and return (region kind, absolute offset)."""
        if isinstance(value, PtrToMapValueOrNull):
            raise VerificationError(pc, "map value dereferenced without "
                                        "NULL check")
        if isinstance(value, ConstPtrToMap):
            raise VerificationError(pc, "const map pointer is not "
                                        "dereferenceable")
        if isinstance(value, Scalar):
            raise VerificationError(pc, "dereference of scalar")
        if not isinstance(value, (PtrToStack, PtrToMapValue, PtrToCtx)):
            raise VerificationError(pc, f"dereference of {value!r}")
        if value.off is None:
            raise VerificationError(pc, "dereference at statically unknown "
                                        "offset")
        absolute = value.off + off
        if isinstance(value, PtrToStack):
            limit = STACK_SIZE
            kind = "stack"
        elif isinstance(value, PtrToCtx):
            if is_store:
                raise VerificationError(pc, "context is read-only")
            limit = self.ctx_size
            kind = "ctx"
        else:
            limit = program.map_named(value.map_name).value_size
            kind = "map_value"
        if absolute < 0 or absolute + width > limit:
            raise VerificationError(
                pc, f"{kind} access [{absolute}, {absolute + width}) out of "
                    f"bounds [0, {limit})")
        return kind, absolute

    def _load(self, pc: int, state: AbstractState, insn: Load) -> AbstractState:
        src_val = self._read_reg(pc, state, insn.src, "load base")
        # Reconstruct the Program via closure-free path: region bounds need
        # the map table, threaded through self._current_program.
        kind, absolute = self._mem_region(pc, self._program, src_val,
                                          insn.off, insn.width, is_store=False)
        if kind == "stack":
            missing = [b for b in range(absolute, absolute + insn.width)
                       if b not in state.stack_init]
            if missing:
                raise VerificationError(
                    pc, f"read of uninitialized stack byte {missing[0]}")
        if insn.dst == FP:
            raise VerificationError(pc, "frame pointer is read-only")
        return state.with_reg(insn.dst, _SCALAR)

    def _store(self, pc: int, state: AbstractState, insn: Store) -> AbstractState:
        dst_val = self._read_reg(pc, state, insn.dst, "store base")
        if insn.src is not None:
            src_val = self._read_reg(pc, state, insn.src, "store source")
            if isinstance(src_val, _POINTER_TYPES):
                raise VerificationError(
                    pc, "pointer spill to memory not supported")
        kind, absolute = self._mem_region(pc, self._program, dst_val,
                                          insn.off, insn.width, is_store=True)
        if kind == "stack":
            return state.with_stack_init(range(absolute, absolute + insn.width))
        return state

    # .. calls ................................................................
    def _call(self, program: Program, pc: int, state: AbstractState,
              insn: Call) -> AbstractState:
        try:
            spec = H.spec_for(insn.helper_id)
        except KeyError as exc:
            raise VerificationError(pc, str(exc)) from None

        map_name: str | None = None
        for arg_idx, arg_type in enumerate(spec.args):
            reg = R1 + arg_idx
            value = self._read_reg(pc, state, reg,
                                   f"{spec.name} arg{arg_idx + 1}")
            if arg_type == H.ARG_CONST_MAP_PTR:
                if not isinstance(value, ConstPtrToMap):
                    raise VerificationError(
                        pc, f"{spec.name} arg{arg_idx + 1} must be a map "
                            f"pointer, got {value!r}")
                map_name = value.map_name
                kind = program.map_named(map_name).KIND
                if spec.map_kinds is not None and kind not in spec.map_kinds:
                    raise VerificationError(
                        pc, f"{spec.name} is incompatible with {kind} map "
                            f"{map_name!r} (allowed: "
                            f"{', '.join(spec.map_kinds)})")
            elif arg_type in (H.ARG_PTR_TO_MAP_KEY, H.ARG_PTR_TO_MAP_VALUE):
                if map_name is None:
                    raise VerificationError(pc, f"{spec.name}: no map argument "
                                                f"precedes pointer argument")
                bpf_map = program.map_named(map_name)
                size = (bpf_map.key_size if arg_type == H.ARG_PTR_TO_MAP_KEY
                        else bpf_map.value_size)
                self._check_sized_buffer(pc, state, value, size, spec.name)
            elif arg_type == H.ARG_SCALAR:
                if isinstance(value, _POINTER_TYPES):
                    raise VerificationError(
                        pc, f"{spec.name} arg{arg_idx + 1} must be scalar")
            else:  # pragma: no cover - spec table is static
                raise VerificationError(pc, f"bad arg archetype {arg_type!r}")

        state = self._clobber_caller_saved(state)
        if spec.ret == H.RET_MAP_VALUE_OR_NULL:
            assert map_name is not None
            return state.with_reg(R0, PtrToMapValueOrNull(map_name))
        return state.with_reg(R0, _SCALAR)

    def _check_sized_buffer(self, pc: int, state: AbstractState,
                            value: AbstractValue, size: int,
                            helper: str) -> None:
        """Helper buffer args must be fully-initialized stack memory."""
        if not isinstance(value, PtrToStack) or value.off is None:
            raise VerificationError(
                pc, f"{helper}: buffer argument must be a stack pointer with "
                    f"known offset, got {value!r}")
        if value.off < 0 or value.off + size > STACK_SIZE:
            raise VerificationError(
                pc, f"{helper}: buffer [{value.off}, {value.off + size}) "
                    f"outside stack")
        missing = [b for b in range(value.off, value.off + size)
                   if b not in state.stack_init]
        if missing:
            raise VerificationError(
                pc, f"{helper}: buffer byte {missing[0]} uninitialized")

    def _call_kfunc(self, pc: int, state: AbstractState,
                    insn: CallKfunc) -> AbstractState:
        if insn.name not in self.kfuncs:
            raise VerificationError(
                pc, f"call to unregistered kfunc {insn.name!r} "
                    f"(available: {self.kfuncs.names()})")
        spec = self.kfuncs.get(insn.name)
        for arg_idx in range(spec.n_args):
            value = self._read_reg(pc, state, R1 + arg_idx,
                                   f"kfunc {insn.name} arg{arg_idx + 1}")
            if isinstance(value, _POINTER_TYPES):
                raise VerificationError(
                    pc, f"kfunc {insn.name} arg{arg_idx + 1} must be scalar")
        state = self._clobber_caller_saved(state)
        return state.with_reg(R0, _SCALAR)

    @staticmethod
    def _clobber_caller_saved(state: AbstractState) -> AbstractState:
        regs = list(state.regs)
        for reg in range(R1, R1 + 5):
            regs[reg] = _UNINIT
        return AbstractState(tuple(regs), state.stack_init)

    # Set by verify() for the duration of one verification run.
    _program: Program
