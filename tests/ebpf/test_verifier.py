"""Verifier: the sandbox guarantees the paper's design leans on.

Each test is one accept/reject decision; rejects assert on the reason so
regressions in the abstract interpreter are visible.
"""

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
    store,
    storei,
)
from repro.ebpf.helpers import (
    BPF_FUNC_KTIME_GET_NS,
    BPF_FUNC_MAP_LOOKUP_ELEM,
    BPF_FUNC_MAP_UPDATE_ELEM,
)
from repro.ebpf.insn import (
    R0, R1, R2, R3, R4, R6, R7, R8, R10, Alu, Exit, Insn, Jmp)
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.maps import ArrayMap, HashMap
from repro.ebpf.verifier import VerificationError, Verifier


def verify(source, maps=None, ctx_size=16, kfuncs=None):
    prog = assemble("t", source, maps=maps)
    Verifier(ctx_size=ctx_size, kfuncs=kfuncs).verify(prog)
    return prog


def reject(source, match, maps=None, ctx_size=16, kfuncs=None):
    prog = assemble("t", source, maps=maps)
    with pytest.raises(VerificationError, match=match):
        Verifier(ctx_size=ctx_size, kfuncs=kfuncs).verify(prog)


@pytest.fixture
def hmap():
    return HashMap("m", key_size=8, value_size=8)


class TestBasics:
    def test_minimal_program(self):
        verify([movi(R0, 0), exit_()])

    def test_exit_with_uninit_r0_rejected(self):
        reject([exit_()], "R0 not initialized")

    def test_fallthrough_off_end_rejected(self):
        reject([movi(R0, 0), movi(R1, 1)], "does not end with exit")

    def test_uninit_register_read_rejected(self):
        reject([mov(R0, R6), exit_()], "uninitialized")

    def test_unreachable_garbage_ok_if_not_executed(self):
        # Dead code after exit is never explored; accepted like the kernel
        # accepts unreachable-but-wellformed tails after pruning.
        verify([movi(R0, 0), exit_(), movi(R0, 1), exit_()])

    def test_non_integer_jump_target_rejected(self):
        # Built by hand: assemble() would resolve or refuse the label.
        prog = Program("t", [Alu("mov", R0, imm=0), Jmp("ja", "later"),
                             Exit()])
        with pytest.raises(VerificationError,
                           match="target 'later' is not an instruction"):
            Verifier().verify(prog)

    def test_unreachable_malformed_insn_rejected(self):
        # The whole program is compiled at load, dead code included.
        prog = Program("t", [Alu("mov", R0, imm=0), Exit(), Insn(),
                             Exit()])
        with pytest.raises(VerificationError, match="insn 2: unknown"):
            Verifier().verify(prog)


class TestStack:
    def test_store_load_roundtrip(self):
        verify([
            storei(R10, -8, 77),
            load(R3, R10, -8),
            movi(R0, 0), exit_(),
        ])

    def test_uninit_stack_read_rejected(self):
        reject([load(R3, R10, -8), movi(R0, 0), exit_()],
               "uninitialized stack")

    def test_partial_init_read_rejected(self):
        reject([
            storei(R10, -8, 1, width=4),
            load(R3, R10, -8, width=8),
            movi(R0, 0), exit_(),
        ], "uninitialized stack")

    def test_overflow_rejected(self):
        reject([storei(R10, -520, 1), movi(R0, 0), exit_()],
               "out of bounds")

    def test_underflow_rejected(self):
        reject([storei(R10, 0, 1), movi(R0, 0), exit_()], "out of bounds")

    def test_fp_is_read_only(self):
        reject([alui("add", R10, 8), movi(R0, 0), exit_()], "read-only")

    def test_fp_copy_arithmetic_ok(self):
        verify([
            mov(R2, R10), alui("add", R2, -16),
            storei(R2, 0, 1),
            movi(R0, 0), exit_(),
        ])

    def test_variable_stack_offset_rejected(self):
        reject([
            movi(R3, 8),
            mov(R2, R10), alu("add", R2, R3),
            storei(R2, 0, 1),
            movi(R0, 0), exit_(),
        ], "unknown")


class TestContext:
    def test_ctx_load_in_bounds(self):
        verify([load(R6, R1, 8), movi(R0, 0), exit_()], ctx_size=16)

    def test_ctx_load_out_of_bounds(self):
        reject([load(R6, R1, 16), movi(R0, 0), exit_()], "out of bounds",
               ctx_size=16)

    def test_ctx_store_rejected(self):
        reject([storei(R1, 0, 1), movi(R0, 0), exit_()], "read-only",
               ctx_size=16)

    def test_no_ctx_means_scalar_r1(self):
        # With ctx_size 0, R1 is scalar; dereferencing it must fail.
        reject([load(R6, R1, 0), movi(R0, 0), exit_()],
               "dereference of scalar", ctx_size=0)


class TestPointers:
    def test_scalar_deref_rejected(self):
        reject([movi(R3, 1234), load(R4, R3, 0), movi(R0, 0), exit_()],
               "dereference of scalar")

    def test_pointer_multiply_rejected(self):
        reject([mov(R2, R10), alui("mul", R2, 2), movi(R0, 0), exit_()],
               "on pointer")

    def test_pointer_plus_pointer_rejected(self):
        reject([mov(R2, R10), mov(R3, R10), alu("add", R2, R3),
                movi(R0, 0), exit_()], "pointer")

    def test_pointer_as_scalar_source_rejected(self):
        reject([movi(R3, 1), alu("add", R3, R10), movi(R0, 0), exit_()],
               "pointer used as scalar")

    def test_pointer_spill_rejected(self):
        reject([mov(R2, R10), store(R10, -8, R2), movi(R0, 0), exit_()],
               "spill")


class TestMapAccess:
    def test_lookup_requires_null_check(self, hmap):
        reject([
            storei(R10, -8, 1),
            ldmap(R1, "m"), mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            load(R3, R0, 0),
            movi(R0, 0), exit_(),
        ], "NULL check", maps={"m": hmap})

    def test_lookup_with_null_check_ok(self, hmap):
        verify([
            storei(R10, -8, 1),
            ldmap(R1, "m"), mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jeq", R0, "out", imm=0),
            load(R3, R0, 0),
            Label("out"),
            movi(R0, 0), exit_(),
        ], maps={"m": hmap})

    def test_map_value_bounds_checked(self, hmap):
        reject([
            storei(R10, -8, 1),
            ldmap(R1, "m"), mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jeq", R0, "out", imm=0),
            load(R3, R0, 8),  # value_size is 8: offset 8 overflows
            Label("out"),
            movi(R0, 0), exit_(),
        ], "out of bounds", maps={"m": hmap})

    def test_uninit_key_buffer_rejected(self, hmap):
        reject([
            ldmap(R1, "m"), mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            movi(R0, 0), exit_(),
        ], "uninitialized", maps={"m": hmap})

    def test_key_must_be_stack_pointer(self, hmap):
        reject([
            ldmap(R1, "m"), movi(R2, 1234),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            movi(R0, 0), exit_(),
        ], "stack pointer", maps={"m": hmap})

    def test_map_arg_must_be_map_pointer(self, hmap):
        reject([
            movi(R1, 0), mov(R2, R10),
            storei(R10, -8, 1), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            movi(R0, 0), exit_(),
        ], "map", maps={"m": hmap})

    def test_const_map_pointer_not_dereferenceable(self, hmap):
        reject([ldmap(R1, "m"), load(R2, R1, 0), movi(R0, 0), exit_()],
               "not", maps={"m": hmap})

    def test_update_full_signature(self, hmap):
        verify([
            storei(R10, -8, 1),
            storei(R10, -16, 2),
            ldmap(R1, "m"),
            mov(R2, R10), alui("add", R2, -8),
            mov(R3, R10), alui("add", R3, -16),
            movi(R4, 0),
            call(BPF_FUNC_MAP_UPDATE_ELEM),
            movi(R0, 0), exit_(),
        ], maps={"m": hmap})

    def test_write_through_map_value_ok(self):
        amap = ArrayMap("a", value_size=8, max_entries=1)
        verify([
            storei(R10, -4, 0, width=4),
            ldmap(R1, "a"), mov(R2, R10), alui("add", R2, -4),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jeq", R0, "out", imm=0),
            storei(R0, 0, 1),
            Label("out"),
            movi(R0, 0), exit_(),
        ], maps={"a": amap})


class TestCalls:
    def test_unknown_helper_rejected(self):
        reject([call(999), movi(R0, 0), exit_()], "unknown BPF helper")

    def test_caller_saved_clobbered(self):
        reject([
            movi(R1, 1),
            call(BPF_FUNC_KTIME_GET_NS),
            mov(R2, R1),  # R1 was clobbered by the call
            movi(R0, 0), exit_(),
        ], "uninitialized")

    def test_callee_saved_survive(self):
        verify([
            movi(R6, 1), movi(R7, 2), movi(R8, 3),
            call(BPF_FUNC_KTIME_GET_NS),
            mov(R2, R6), mov(R3, R7), mov(R4, R8),
            movi(R0, 0), exit_(),
        ])

    def test_unregistered_kfunc_rejected(self):
        reject([movi(R1, 1), call_kfunc("snapbpf_prefetch"),
                movi(R0, 0), exit_()], "unregistered kfunc")

    def test_registered_kfunc_ok(self):
        kfuncs = KfuncRegistry()
        kfuncs.register("snapbpf_prefetch", lambda a, b, c: 0, n_args=3)
        verify([
            movi(R1, 1), movi(R2, 2), movi(R3, 3),
            call_kfunc("snapbpf_prefetch"),
            movi(R0, 0), exit_(),
        ], kfuncs=kfuncs)

    def test_kfunc_pointer_arg_rejected(self):
        kfuncs = KfuncRegistry()
        kfuncs.register("k", lambda a: 0, n_args=1)
        reject([mov(R1, R10), call_kfunc("k"), movi(R0, 0), exit_()],
               "must be scalar", kfuncs=kfuncs)


class TestControlFlow:
    def test_bounded_loop_verifies(self):
        verify([
            movi(R6, 0),
            Label("top"),
            jcond("jge", R6, "done", imm=10),
            alui("add", R6, 1),
            jmp("top"),
            Label("done"),
            movi(R0, 0), exit_(),
        ])

    def test_branch_states_merge(self):
        verify([
            load(R6, R1, 0),
            jcond("jeq", R6, "a", imm=0),
            movi(R7, 1),
            jmp("join"),
            Label("a"),
            movi(R7, 2),
            Label("join"),
            mov(R0, R7), exit_(),
        ])

    def test_r0_init_on_one_path_only_rejected(self):
        reject([
            load(R6, R1, 0),
            jcond("jeq", R6, "skip", imm=0),
            movi(R0, 1),
            Label("skip"),
            exit_(),
        ], "R0 not initialized")

    def test_comparison_on_unchecked_map_value_rejected(self, hmap):
        reject([
            storei(R10, -8, 1),
            ldmap(R1, "m"), mov(R2, R10), alui("add", R2, -8),
            call(BPF_FUNC_MAP_LOOKUP_ELEM),
            jcond("jgt", R0, "out", imm=5),  # only ==/!= 0 is legal
            Label("out"),
            movi(R0, 0), exit_(),
        ], "unchecked", maps={"m": hmap})
