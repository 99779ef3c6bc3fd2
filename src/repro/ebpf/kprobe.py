"""Kprobe attach points: dynamic hooks on simulated kernel functions.

The simulated kernel declares hookable functions (for SnapBPF the one
that matters is ``add_to_page_cache_lru``); userspace attaches verified
programs to them, and the kernel fires the hook inline on every call,
passing the hooked function's arguments as the BPF context — exactly the
kprobe contract the paper uses to observe snapshot pages entering the
page cache.

``fire`` returns the simulated seconds the attached programs consumed
(executed instructions x per-instruction cost) so the calling kernel path
can charge eBPF overhead to whoever triggered it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ebpf.asm import Program
from repro.ebpf.compile import CompileError
from repro.ebpf.interp import INSN_COST_SECONDS, Interpreter
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.verifier import Verifier

__all__ = ["INSN_COST_SECONDS", "RET_DETACH_SELF", "KprobeError",
           "AttachError", "HookPoint", "KprobeManager"]

#: A program returning this value from a fire asks to be detached — the
#: "disable itself" semantics SnapBPF's prefetch program uses once it has
#: issued the read request for the last offset group (paper §3.1).
RET_DETACH_SELF = 1


class KprobeError(ValueError):
    """Unknown hook point, double attach, or detach of missing program."""


class AttachError(KprobeError):
    """A structurally valid attach failed at runtime (resource
    exhaustion, injected fault, a program the compiler cannot translate)
    — the failure mode the host must handle by degrading, not the
    programmer error :class:`KprobeError` models."""


@dataclass
class HookPoint:
    """One hookable kernel function."""

    name: str
    ctx_size: int
    programs: list[Program] = field(default_factory=list)
    fire_count: int = 0


class KprobeManager:
    """Registry of hook points + attach/detach/fire dispatch."""

    def __init__(self, kfuncs: KfuncRegistry | None = None,
                 interpreter: Interpreter | None = None):
        self.kfuncs = kfuncs or KfuncRegistry()
        self.interpreter = interpreter or Interpreter(kfuncs=self.kfuncs)
        self._hooks: dict[str, HookPoint] = {}
        #: Fault plane hook (duck-typed; see repro.faults).  When set,
        #: ``fault_injector.on_attach`` may veto an attach by raising
        #: :class:`AttachError`, and ``fault_injector.map_capacity``
        #: clamps requested BPF map sizes.
        self.fault_injector = None
        #: CPU seconds accumulated by kfunc side effects during a fire
        #: (e.g. snapbpf_prefetch allocating cache pages); drained into
        #: the fire() return value so the triggering kernel path pays.
        self.side_cost = 0.0

    # -- hook point administration (the simulated kernel's side) -------------
    def declare_hook(self, name: str, ctx_size: int) -> None:
        if name in self._hooks:
            raise KprobeError(f"hook {name!r} already declared")
        self._hooks[name] = HookPoint(name=name, ctx_size=ctx_size)

    def hook(self, name: str) -> HookPoint:
        try:
            return self._hooks[name]
        except KeyError:
            raise KprobeError(f"no such kernel function {name!r}") from None

    # -- userspace side -----------------------------------------------------
    def attach(self, name: str, program: Program) -> None:
        """Verify ``program`` against the hook's context, then attach it."""
        hook = self.hook(name)
        if any(p is program for p in hook.programs):
            raise KprobeError(
                f"program {program.name!r} already attached to {name!r}")
        Verifier(ctx_size=hook.ctx_size, kfuncs=self.kfuncs).verify(program)
        if self.fault_injector is not None:
            self.fault_injector.on_attach(name, program)
        # Compile the now-verified program once at attach time so the
        # first fire already runs compiled code.  There is no other tier
        # to run it on, so a program the compiler rejects fails to attach.
        try:
            self.interpreter.prepare(program)
        except CompileError as exc:
            raise AttachError(
                f"program {program.name!r} failed to compile: {exc}") from exc
        hook.programs.append(program)

    def map_capacity(self, requested: int) -> int:
        """Grantable capacity for a new BPF map (fault plane may clamp)."""
        if self.fault_injector is not None:
            return self.fault_injector.map_capacity(requested)
        return requested

    def detach(self, name: str, program: Program) -> None:
        hook = self.hook(name)
        for idx, attached in enumerate(hook.programs):
            if attached is program:
                del hook.programs[idx]
                return
        raise KprobeError(
            f"program {program.name!r} not attached to {name!r}")

    def attached(self, name: str) -> list[Program]:
        return list(self.hook(name).programs)

    # -- kernel dispatch ------------------------------------------------------
    def fire(self, name: str, ctx: bytes) -> float:
        """Run all programs attached to ``name``; returns seconds consumed."""
        hook = self.hook(name)
        hook.fire_count += 1
        if not hook.programs:
            return 0.0
        if len(ctx) != hook.ctx_size:
            raise KprobeError(
                f"hook {name!r}: ctx size {len(ctx)} != {hook.ctx_size}")
        total_insns = 0
        # Iterate over a copy: a program may detach itself (SnapBPF's
        # prefetch program disables itself after the last group) by
        # returning RET_DETACH_SELF.
        for program in list(hook.programs):
            result = self.interpreter.run(program, ctx)
            total_insns += result.insn_count
            if result.r0 == RET_DETACH_SELF:
                try:
                    self.detach(name, program)
                except KprobeError:
                    pass  # already detached by a nested fire
        side, self.side_cost = self.side_cost, 0.0
        return total_insns * INSN_COST_SECONDS + side

    def fire_verdict(self, name: str, ctx: bytes) -> tuple[int | None, float]:
        """Run all programs attached to ``name`` and report a verdict.

        Unlike :meth:`fire`, r0 is *data* returned to the kernel caller
        (score/veto for eviction-policy hooks), so no value carries the
        RET_DETACH_SELF side effect.  Returns ``(verdict, seconds)``
        where the verdict is the last program's r0, or ``None`` when
        nothing is attached — the caller falls back to its built-in
        policy (kernel LRU for reclaim).
        """
        hook = self.hook(name)
        hook.fire_count += 1
        if not hook.programs:
            return None, 0.0
        if len(ctx) != hook.ctx_size:
            raise KprobeError(
                f"hook {name!r}: ctx size {len(ctx)} != {hook.ctx_size}")
        total_insns = 0
        verdict = 0
        for program in list(hook.programs):
            result = self.interpreter.run(program, ctx)
            total_insns += result.insn_count
            verdict = result.r0
        side, self.side_cost = self.side_cost, 0.0
        return verdict, total_insns * INSN_COST_SECONDS + side
