"""Interpreter: concrete execution semantics + runtime defenses."""

import pytest

from repro.ebpf.asm import (
    Label,
    Program,
    assemble,
    alu,
    alui,
    call,
    call_kfunc,
    exit_,
    jcond,
    jmp,
    ldmap,
    load,
    mov,
    movi,
    storei,
)
from repro.ebpf.helpers import (
    BPF_FUNC_KTIME_GET_NS,
    BPF_FUNC_MAP_DELETE_ELEM,
    BPF_FUNC_MAP_LOOKUP_ELEM,
    BPF_FUNC_MAP_UPDATE_ELEM,
    BPF_FUNC_TRACE_PRINTK,
)
from repro.ebpf.compile import CompileError
from repro.ebpf.insn import R0, R1, R2, R3, R4, R6, R10, U64_MASK, Exit, Jmp
from repro.ebpf.interp import Interpreter, RuntimeFault, pack_u64
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.maps import HashMap


def run(source, maps=None, ctx=b"", budget=None, **kwargs):
    prog = assemble("t", source, maps=maps)
    interp = Interpreter(**kwargs)
    if budget is not None:
        return interp.run(prog, ctx, budget=budget)
    return interp.run(prog, ctx)


class TestAlu:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 5, 3, 8),
        ("sub", 5, 3, 2),
        ("mul", 5, 3, 15),
        ("div", 7, 2, 3),
        ("mod", 7, 3, 1),
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("lsh", 1, 4, 16),
        ("rsh", 16, 2, 4),
    ])
    def test_binops(self, op, a, b, expected):
        result = run([movi(R0, a), alui(op, R0, b), exit_()])
        assert result.r0 == expected

    def test_div_by_zero_yields_zero(self):
        # eBPF defines x/0 == 0, x%0 == x.
        assert run([movi(R0, 7), alui("div", R0, 0), exit_()]).r0 == 0
        assert run([movi(R0, 7), alui("mod", R0, 0), exit_()]).r0 == 7

    def test_wraparound_u64(self):
        result = run([movi(R0, -1), alui("add", R0, 2), exit_()])
        assert result.r0 == 1

    def test_neg(self):
        from repro.ebpf.insn import Alu
        prog = assemble("t", [movi(R0, 5), Alu("neg", R0), exit_()])
        assert Interpreter().run(prog).r0 == U64_MASK - 4

    def test_arsh_sign_extends(self):
        result = run([movi(R0, -8), alui("arsh", R0, 1), exit_()])
        assert result.r0 == (-4) & U64_MASK

    def test_reg_variant(self):
        result = run([movi(R0, 6), movi(R3, 7), alu("mul", R0, R3), exit_()])
        assert result.r0 == 42


class TestJumps:
    @pytest.mark.parametrize("op,a,b,taken", [
        ("jeq", 5, 5, True), ("jeq", 5, 6, False),
        ("jne", 5, 6, True),
        ("jgt", 6, 5, True), ("jgt", 5, 5, False),
        ("jge", 5, 5, True),
        ("jlt", 4, 5, True),
        ("jle", 5, 5, True),
        ("jset", 0b110, 0b010, True), ("jset", 0b100, 0b010, False),
    ])
    def test_unsigned_conditions(self, op, a, b, taken):
        result = run([
            movi(R6, a),
            jcond(op, R6, "yes", imm=b),
            movi(R0, 0), exit_(),
            Label("yes"),
            movi(R0, 1), exit_(),
        ])
        assert result.r0 == (1 if taken else 0)

    def test_signed_comparison(self):
        result = run([
            movi(R6, -1),
            jcond("jsgt", R6, "yes", imm=0),  # -1 > 0 signed: no
            movi(R0, 0), exit_(),
            Label("yes"), movi(R0, 1), exit_(),
        ])
        assert result.r0 == 0

    def test_unsigned_sees_minus_one_as_max(self):
        result = run([
            movi(R6, -1),
            jcond("jgt", R6, "yes", imm=0),  # u64(-1) > 0: yes
            movi(R0, 0), exit_(),
            Label("yes"), movi(R0, 1), exit_(),
        ])
        assert result.r0 == 1


class TestMemory:
    def test_stack_widths(self):
        result = run([
            storei(R10, -8, 0x1122334455667788),
            load(R0, R10, -8, width=4),
            exit_(),
        ])
        assert result.r0 == 0x55667788  # little-endian low word

    def test_ctx_read(self):
        result = run([load(R0, R1, 8), exit_()], ctx=pack_u64(1, 42))
        assert result.r0 == 42

    def test_runtime_bounds_fault(self):
        with pytest.raises(RuntimeFault):
            run([mov(R2, R10), alui("add", R2, 8),
                 storei(R2, 0, 1), movi(R0, 0), exit_()])

    def test_ctx_write_fault(self):
        with pytest.raises(RuntimeFault):
            run([storei(R1, 0, 9), movi(R0, 0), exit_()], ctx=pack_u64(1))


class TestHelpers:
    def test_map_update_and_lookup(self):
        m = HashMap("m", key_size=8, value_size=8)
        result = run([
            storei(R10, -8, 5),        # key
            storei(R10, -16, 50),      # value
            ldmap(R1, "m"),
            mov(R2, R10), alui("add", R2, -8),
            mov(R3, R10), alui("add", R3, -16),
            movi(R4, 0),
            call(BPF_FUNC_MAP_UPDATE_ELEM),
            # read it back
            ldmap(R1, "m"),
            mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jeq", R0, "miss", imm=0),
            load(R0, R0, 0),
            exit_(),
            Label("miss"),
            movi(R0, 0), exit_(),
        ], maps={"m": m})
        assert result.r0 == 50
        assert m.lookup_u64s(5) == (50,)

    def test_lookup_miss_returns_null(self):
        m = HashMap("m", key_size=8, value_size=8)
        result = run([
            storei(R10, -8, 5),
            ldmap(R1, "m"),
            mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jeq", R0, "null", imm=0),
            movi(R0, 1), exit_(),
            Label("null"), movi(R0, 2), exit_(),
        ], maps={"m": m})
        assert result.r0 == 2

    def test_delete(self):
        m = HashMap("m", key_size=8, value_size=8)
        m.update_u64s(5, 99)
        run([
            storei(R10, -8, 5),
            ldmap(R1, "m"),
            mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_DELETE_ELEM),
            movi(R0, 0), exit_(),
        ], maps={"m": m})
        assert m.lookup_u64s(5) is None

    def test_ktime(self):
        interp = Interpreter(time_ns=lambda: 123456)
        prog = assemble("t", [call(BPF_FUNC_KTIME_GET_NS), exit_()])
        assert interp.run(prog).r0 == 123456

    def test_trace_printk(self):
        interp = Interpreter()
        prog = assemble("t", [movi(R1, 777),
                              call(BPF_FUNC_TRACE_PRINTK),
                              movi(R0, 0), exit_()])
        interp.run(prog)
        assert interp.printk_log == [777]


class TestKfuncs:
    def test_kfunc_receives_args_and_returns(self):
        seen = []
        kfuncs = KfuncRegistry()
        kfuncs.register("probe", lambda a, b: seen.append((a, b)) or 7,
                        n_args=2)
        prog = assemble("t", [
            movi(R1, 10), movi(R2, 20),
            call_kfunc("probe"),
            exit_(),
        ])
        result = Interpreter(kfuncs=kfuncs).run(prog)
        assert result.r0 == 7
        assert seen == [(10, 20)]

    def test_registry_duplicate_and_missing(self):
        kfuncs = KfuncRegistry()
        kfuncs.register("f", lambda: 0, n_args=0)
        with pytest.raises(KeyError):
            kfuncs.register("f", lambda: 0, n_args=0)
        kfuncs.unregister("f")
        with pytest.raises(KeyError):
            kfuncs.unregister("f")
        assert "f" not in kfuncs


class TestBudget:
    def test_infinite_loop_hits_budget(self):
        with pytest.raises(RuntimeFault, match="budget"):
            run([Label("spin"), jmp("spin"), exit_()], budget=1000)

    def test_insn_count_reported(self):
        result = run([movi(R0, 0), exit_()])
        assert result.insn_count == 2

    def test_loop_insn_count(self):
        result = run([
            movi(R6, 0), movi(R0, 0),
            Label("top"),
            jcond("jge", R6, "done", imm=100),
            alui("add", R6, 1),
            jmp("top"),
            Label("done"),
            exit_(),
        ])
        assert result.insn_count == 2 + 3 * 100 + 1 + 1


def test_uncompilable_program_does_not_run():
    # No per-instruction fallback: a program the compiler rejects (here
    # an unresolved label, which the verifier would refuse) cannot run.
    prog = Program("t", [movi(R0, 0), Jmp("ja", "nowhere"), Exit()])
    with pytest.raises(CompileError, match="unresolved jump target"):
        Interpreter().run(prog)
