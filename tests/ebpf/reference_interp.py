"""The per-instruction eBPF interpreter, kept as a test-only reference.

:meth:`~repro.ebpf.interp.Interpreter.run` executes every program
through the closure :mod:`repro.ebpf.compile` translates it into once,
at load time.  This module keeps the loop that re-dispatches on each
instruction's dataclass, so ``test_compile_equivalence.py`` can run both
on the same programs and require the same results, faults, map states
and ring-buffer streams.

It runs against the same runtime object as the compiled closure (an
:class:`~repro.ebpf.interp.Interpreter`: its kfunc registry, clock,
``printk_log``, tracer and ``page_stats``).

Budget: this loop checks the instruction budget before *every*
instruction, so a run that exhausts it has applied the side effects of
every instruction before the faulting pc.  The compiled closure charges
a whole basic block at its entry and faults there, at the same reported
pc and count, without those partial side effects.  Verified programs
never reach the budget; the equivalence fuzz runs with a budget no
accepted program exhausts.
"""

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
from repro.ebpf.interp import (
    INSN_BUDGET,
    INSN_COST_SECONDS,
    ExecutionResult,
    RuntimeFault,
    _Ptr,
    _Region,
    _to_signed,
)
from repro.ebpf.maps import BpfMap


def interpret(runtime, program: Program, ctx: bytes = b"",
              budget: int = INSN_BUDGET) -> ExecutionResult:
    """Run ``program`` one instruction at a time against ``runtime``."""
    stack = _Region(bytearray(STACK_SIZE), writable=True, name="stack")
    ctx_region = _Region(bytes(ctx), writable=False, name="ctx")
    regs: list[object] = [None] * NUM_REGS
    regs[R1] = _Ptr(ctx_region, 0)
    regs[FP] = _Ptr(stack, STACK_SIZE)

    tracer = runtime.tracer
    tracing = tracer is not None and tracer.enabled
    kfunc_table = _kfunc_table(runtime, program)
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
                    runtime.time_ns() / 1e9,
                    dur=executed * INSN_COST_SECONDS, track="ebpf",
                    insns=executed, r0=r0)
            return ExecutionResult(r0=r0, insn_count=executed)
        if isinstance(insn, Alu):
            _alu(regs, insn)
            pc += 1
        elif isinstance(insn, Jmp):
            pc = _jump(regs, insn, pc)
        elif isinstance(insn, Load):
            ptr = _as_ptr(regs[insn.src], "load base")
            regs[insn.dst] = ptr.region.read(ptr.off + insn.off, insn.width)
            pc += 1
        elif isinstance(insn, Store):
            ptr = _as_ptr(regs[insn.dst], "store base")
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
            regs[R0] = _helper(runtime, regs, insn.helper_id)
            _clobber(regs)
            pc += 1
        elif isinstance(insn, CallKfunc):
            spec = kfunc_table.get(insn.name)
            if spec is None:   # unresolved (or late-registered) name
                spec = runtime.kfuncs.get(insn.name)
            args = []
            for arg_idx in range(spec.n_args):
                arg = regs[R1 + arg_idx]
                if not isinstance(arg, int):
                    raise RuntimeFault(
                        f"kfunc {insn.name}: arg{arg_idx + 1} not scalar")
                args.append(arg)
            result = spec.func(*args)
            regs[R0] = int(result) & U64_MASK if result is not None else 0
            _clobber(regs)
            pc += 1
        else:  # pragma: no cover
            raise RuntimeFault(f"unknown instruction {insn!r}")


def _kfunc_table(runtime, program: Program) -> dict:
    """Kfunc resolution, once per program and registry.  Names that fail
    to resolve stay lazy, so late registration (or the registry's
    error) keeps per-invocation behaviour."""
    cached = getattr(program, "_kfunc_table", None)
    if cached is not None and cached[0] is runtime.kfuncs:
        return cached[1]
    table = {insn.name: runtime.kfuncs.get(insn.name)
             for insn in program.insns
             if isinstance(insn, CallKfunc) and insn.name in runtime.kfuncs}
    program._kfunc_table = (runtime.kfuncs, table)
    return table


# -- instruction semantics -----------------------------------------------------
def _moved(ptr: _Ptr, delta: int) -> _Ptr:
    return _Ptr(ptr.region, ptr.off + delta, ptr.bpf_map)


def _as_ptr(value: object, what: str) -> _Ptr:
    if not isinstance(value, _Ptr) or value.region is None:
        raise RuntimeFault(f"{what} is not a dereferenceable pointer")
    return value


def _alu(regs: list[object], insn: Alu) -> None:
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
            regs[insn.dst] = _moved(dst, _to_signed(src & U64_MASK))
        elif op == "sub" and isinstance(src, int):
            regs[insn.dst] = _moved(dst, -_to_signed(src & U64_MASK))
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


def _jump(regs: list[object], insn: Jmp, pc: int) -> int:
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


# -- helpers -------------------------------------------------------------------
def _helper(runtime, regs: list[object], helper_id: int) -> object:
    if helper_id == H.BPF_FUNC_MAP_LOOKUP_ELEM:
        bpf_map = _map_arg(regs[R1])
        key = _buffer_arg(regs[R1 + 1], bpf_map.key_size)
        value = bpf_map.lookup(key)
        if value is None:
            return 0
        return _Ptr(_Region(value, writable=True,
                            name=f"map:{bpf_map.name}"), 0)
    if helper_id == H.BPF_FUNC_MAP_UPDATE_ELEM:
        bpf_map = _map_arg(regs[R1])
        key = _buffer_arg(regs[R1 + 1], bpf_map.key_size)
        value = _buffer_arg(regs[R1 + 2], bpf_map.value_size)
        try:
            bpf_map.update(key, value)
        except ValueError:
            return (-1) & U64_MASK
        return 0
    if helper_id == H.BPF_FUNC_MAP_DELETE_ELEM:
        bpf_map = _map_arg(regs[R1])
        key = _buffer_arg(regs[R1 + 1], bpf_map.key_size)
        try:
            bpf_map.delete(key)
        except ValueError:
            return (-1) & U64_MASK
        return 0
    if helper_id == H.BPF_FUNC_RINGBUF_OUTPUT:
        bpf_map = _map_arg(regs[R1])
        if bpf_map.KIND != "ringbuf":
            raise RuntimeFault("bpf_ringbuf_output on non-ringbuf map")
        data = _buffer_arg(regs[R1 + 1], bpf_map.value_size)
        # reserve + copy + commit; a full ring is -ENOSPC (flattened to
        # -1 like the update helper), never a fault.
        return bpf_map.output(data) & U64_MASK
    if helper_id == H.BPF_FUNC_KTIME_GET_NS:
        return int(runtime.time_ns()) & U64_MASK
    if helper_id == H.BPF_FUNC_TRACE_PRINTK:
        value = regs[R1]
        if not isinstance(value, int):
            raise RuntimeFault("trace_printk arg not scalar")
        runtime.printk_log.append(value)
        return 0
    if helper_id == H.BPF_FUNC_CACHED_PAGES:
        ino = regs[R1]
        if not isinstance(ino, int):
            raise RuntimeFault("cached_pages arg not scalar")
        if runtime.page_stats is None:
            return 0
        return int(runtime.page_stats.cached_pages(ino)) & U64_MASK
    H.spec_for(helper_id)   # unknown id: raise the canonical KeyError
    raise RuntimeFault(f"helper {helper_id} not implemented")


def _map_arg(value: object) -> BpfMap:
    if not isinstance(value, _Ptr) or value.bpf_map is None:
        raise RuntimeFault("helper expected a map pointer")
    return value.bpf_map


def _buffer_arg(value: object, size: int) -> bytes:
    if not isinstance(value, _Ptr) or value.region is None:
        raise RuntimeFault("helper expected a buffer pointer")
    return value.region.read_bytes(value.off, size)


def _clobber(regs: list[object]) -> None:
    for reg in range(R1, R1 + 5):
        regs[reg] = None
