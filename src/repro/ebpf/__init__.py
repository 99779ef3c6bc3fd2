"""A miniature eBPF subsystem.

SnapBPF's mechanism *is* eBPF: a capture program attached to a kprobe on
``add_to_page_cache_lru()``, BPF maps to move working-set offsets between
kernel and userspace, and a kfunc (``snapbpf_prefetch``) because the
verifier's sandbox forbids BPF programs from issuing block I/O or touching
the page cache directly.  To reproduce that faithfully we implement the
subsystem itself:

* a register-machine instruction set (:mod:`repro.ebpf.insn`) with an
  assembler (:mod:`repro.ebpf.asm`),
* HASH/ARRAY maps with the classic helper call interface, plus a
  RINGBUF map with reserve/commit semantics and an ordered userspace
  consumer (:mod:`repro.ebpf.maps`, :mod:`repro.ebpf.helpers`),
* a static verifier (:mod:`repro.ebpf.verifier`) that performs abstract
  interpretation over register types — rejecting uninitialized reads,
  out-of-bounds stack/map accesses, dereferences of unchecked
  ``bpf_map_lookup_elem`` results, and calls to unregistered kfuncs,
* a runtime (:mod:`repro.ebpf.interp`) that runs each verified program
  as the closure :mod:`repro.ebpf.compile` translates it into at load
  time, with a runtime instruction budget (the loop-termination
  guarantee),
* kprobe attach points fired by the simulated kernel
  (:mod:`repro.ebpf.kprobe`) and a kfunc registry
  (:mod:`repro.ebpf.kfunc`).

The SnapBPF capture/prefetch programs in :mod:`repro.core` are written in
this assembly and must pass this verifier before they can attach — the
same contract the paper's programs have with Linux.
"""

from repro.ebpf.asm import Label, Program, assemble
from repro.ebpf.interp import ExecutionResult, Interpreter, RuntimeFault
from repro.ebpf.kfunc import KfuncRegistry
from repro.ebpf.kprobe import KprobeManager
from repro.ebpf.maps import ArrayMap, BpfMap, HashMap, MapError, RingBufMap
from repro.ebpf.verifier import VerificationError, Verifier

__all__ = [
    "ArrayMap",
    "BpfMap",
    "ExecutionResult",
    "HashMap",
    "Interpreter",
    "KfuncRegistry",
    "KprobeManager",
    "Label",
    "MapError",
    "Program",
    "RingBufMap",
    "RuntimeFault",
    "VerificationError",
    "Verifier",
    "assemble",
]
