"""Memory-pressure plane: split-LRU reclaim, kswapd, and eviction policy.

This module is the repro's ``mm/vmscan.c``.  It replaces the original
15-line direct-reclaim loop with the three mechanisms the paper's
elasticity argument (Fig. 3c) rests on:

* **Split active/inactive LRU lists** with a second-chance
  ``referenced`` bit: a page enters the inactive list, a first touch
  marks it referenced, a second touch promotes it to the active list,
  and reclaim scans only demote/rotate — so one streaming pass cannot
  flush the hot working set.
* **Zone watermarks and kswapd**: when free frames drop below the low
  watermark, a background DES process reclaims in
  :data:`SWAP_CLUSTER_MAX` batches until the high watermark is restored;
  synchronous *direct* reclaim is left for allocations at/below min.
  Watermarks are **off by default** — an unpressured kernel behaves
  byte-identically to one without this plane.
* **eBPF-pluggable eviction policy**: every reclaim candidate is offered
  to programs attached to the :data:`HOOK_MM_EVICT` attach point
  (context ``(u64 ino, u64 index, u64 free_frames, u64 need)``).  A
  program may veto the eviction (r0 == :data:`VERDICT_VETO`) or return a
  score; candidates are evicted in ascending ``(score, scan order)``.
  Programs can also pin pages ahead of time through the
  ``snapbpf_evict_hint()`` kfunc.  With nothing attached the kernel LRU
  order applies unchanged — the default-off contract of "Cache is King"
  style pluggable eviction.

Eviction never takes mapped (``mapcount > 0``) or not-uptodate
(under-I/O) pages, in any mode.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from repro.ebpf.interp import pack_u64
from repro.metrics.registry import MetricsRegistry
from repro.mm.frames import OutOfMemory
from repro.mm.pageset import PageValueMap

#: The eviction-policy attach point: fired once per reclaim candidate.
HOOK_MM_EVICT = "mm_evict_candidate"
#: (u64 ino, u64 index, u64 free_frames, u64 need)
EVICT_CTX_SIZE = 32

#: The hint kfunc: ``snapbpf_evict_hint(ino, index, hint)``.
SNAPBPF_EVICT_HINT = "snapbpf_evict_hint"

#: Hint values accepted by the kfunc.
HINT_CLEAR = 0
HINT_KEEP = 1
HINT_COLD = 2

#: Policy verdicts (program r0).  Anything >= 2 is a score; candidates
#: are evicted in ascending (score, scan order), with score 0 (the
#: default) sorting before explicit scores.
VERDICT_DEFAULT = 0
VERDICT_VETO = 1

#: Pages reclaimed per kswapd batch (mm/vmscan.c's SWAP_CLUSTER_MAX).
SWAP_CLUSTER_MAX = 32


@dataclass(frozen=True)
class Watermarks:
    """Zone watermarks, in frames (min <= low <= high)."""

    min_frames: int
    low_frames: int
    high_frames: int

    def __post_init__(self) -> None:
        if not 0 < self.min_frames <= self.low_frames <= self.high_frames:
            raise ValueError(
                f"watermarks must satisfy 0 < min <= low <= high, got "
                f"({self.min_frames}, {self.low_frames}, {self.high_frames})")

    @classmethod
    def for_pool(cls, total_frames: int) -> "Watermarks":
        """Linux-like defaults: min ~ pool/128, low/high a quarter and a
        half above it (``watermark_scale_factor`` flattened)."""
        min_frames = max(4, total_frames // 128)
        return cls(min_frames=min_frames,
                   low_frames=min_frames + max(1, min_frames // 4),
                   high_frames=min_frames + max(2, min_frames // 2))


class LruLists:
    """Split active/inactive LRU of cache entries keyed by (ino, index).

    Head of each ordered dict is the coldest end (scan side); insertions
    and rotations go to the tail.
    """

    def __init__(self) -> None:
        self.inactive: OrderedDict[tuple[int, int], object] = OrderedDict()
        self.active: OrderedDict[tuple[int, int], object] = OrderedDict()

    def __len__(self) -> int:
        return len(self.inactive) + len(self.active)

    def __contains__(self, key) -> bool:
        return key in self.inactive or key in self.active

    def insert(self, key, entry) -> None:
        """New page: inactive tail, unreferenced."""
        entry.active = False
        entry.referenced = False
        self.inactive[key] = entry

    def touch(self, key) -> str | None:
        """Mark an access.  Returns what happened: ``"active"`` (rotated
        within active), ``"referenced"`` (first touch on inactive),
        ``"promoted"`` (second touch; moved to active), or ``None``."""
        entry = self.active.get(key)
        if entry is not None:
            self.active.move_to_end(key)
            return "active"
        entry = self.inactive.get(key)
        if entry is None:
            return None
        if entry.referenced:
            del self.inactive[key]
            entry.referenced = False
            entry.active = True
            self.active[key] = entry
            return "promoted"
        entry.referenced = True
        return "referenced"

    def activate(self, key) -> None:
        """Move an inactive page straight to the active tail (mapped
        pages found by the reclaim scan)."""
        entry = self.inactive.pop(key)
        entry.referenced = False
        entry.active = True
        self.active[key] = entry

    def demote(self, key) -> None:
        """Move an active page to the inactive tail, second chance spent."""
        entry = self.active.pop(key)
        entry.referenced = False
        entry.active = False
        self.inactive[key] = entry

    def rotate(self, key) -> None:
        """Give an inactive page another lap (locked, referenced, vetoed)."""
        self.inactive.move_to_end(key)

    def remove(self, key) -> None:
        if self.inactive.pop(key, None) is None:
            self.active.pop(key, None)


def _lap(inactive: OrderedDict, parked: list) -> Iterator[tuple[int, int]]:
    """Yield the keys of ``inactive`` as it stands now, head first,
    copying only the run of keys about to be visited.

    Exact while the caller takes every yielded key off the head (rotate,
    activate, evict) or parks it in place, appended to ``parked``, and
    nothing else moves a page meanwhile (reclaim never recurses): the
    unvisited keys then always start ``len(parked)`` past the head.
    Chunks start at :data:`SWAP_CLUSTER_MAX` keys and double; the lap
    ends after the list's starting length, so pages rotated or inserted
    at the tail meanwhile are never revisited."""
    remaining = len(inactive)
    take = SWAP_CLUSTER_MAX
    while remaining > 0:
        n = min(take, remaining)
        start = len(parked)
        yield from list(islice(inactive, start, start + n))
        remaining -= n
        take *= 2


class ReclaimController:
    """One machine's reclaim state: LRU lists, watermarks, kswapd, and
    the eviction-policy attach point.

    Constructed by the page cache (which owns the entries) and installed
    onto the frame allocator as its ``reclaimer`` so *every* allocation
    — file pages and anonymous uffd/CoW installs alike — goes through
    watermark checks and direct reclaim.
    """

    def __init__(self, env, frames, page_cache, kprobes,
                 registry: MetricsRegistry | None = None,
                 reclaim_page_cost: float = 0.0):
        self.env = env
        self.frames = frames
        self.page_cache = page_cache
        self.kprobes = kprobes
        self.reclaim_page_cost = reclaim_page_cost
        self.lru = LruLists()
        c = (registry or MetricsRegistry()).counter
        self._m_scanned = c("reclaim_scanned_total")
        self._m_reclaimed = c("reclaim_reclaimed_total")
        self._m_kswapd_wakeups = c("reclaim_kswapd_wakeups_total")
        self._m_direct = c("reclaim_direct_total")
        self._m_rotations = c("reclaim_rotations_total")
        self._m_activations = c("reclaim_activations_total")
        self._m_promotions = c("reclaim_promotions_total")
        self._m_demotions = c("reclaim_demotions_total")
        self._m_policy_runs = c("reclaim_policy_runs_total")
        self._m_policy_vetoes = c("reclaim_policy_vetoes_total")
        self._m_hints = c("reclaim_hints_total")
        self._m_hint_keeps = c("reclaim_hint_keeps_total")
        self._m_stalls = c("reclaim_stalls_total")
        self._m_stall_seconds = c("reclaim_stall_seconds_total")
        self._m_cpu_seconds = c("reclaim_cpu_seconds_total")
        #: Off until :meth:`enable_watermarks`; ``None`` keeps seed
        #: semantics (direct reclaim on exhaustion only, no kswapd).
        self.watermarks: Watermarks | None = None
        #: Per-ino HINT_* byte maps set via the snapbpf_evict_hint kfunc
        #: (probed per reclaim candidate; see repro.mm.pageset).
        self.hints = PageValueMap()
        #: Eviction order of the whole run, for determinism digests.
        self.eviction_log: list[tuple[int, int]] = []
        #: Fault plane (duck-typed MemFaultInjector): kswapd wakeups ask
        #: it for an injected stall before scanning.
        self.fault_injector = None
        #: CPU seconds accrued by scans/policy runs since last drained
        #: by kswapd (synchronous direct reclaim cannot sleep).
        self.pending_cost = 0.0
        #: PF_MEMALLOC: set while a shrink pass runs, so an allocation
        #: made from inside it (an eviction policy's kfunc filling the
        #: cache) takes a free frame or fails, and never reclaims.
        self._in_reclaim = False
        self._wake = None
        self._kswapd = None
        if HOOK_MM_EVICT not in getattr(kprobes, "_hooks", {}):
            kprobes.declare_hook(HOOK_MM_EVICT, EVICT_CTX_SIZE)

    # -- LRU bookkeeping (called by the page cache) ---------------------------
    def page_added(self, key, entry) -> None:
        self.lru.insert(key, entry)

    def page_touched(self, key) -> None:
        if self.lru.touch(key) == "promoted":
            self._m_promotions.inc()

    def page_removed(self, key) -> None:
        self.lru.remove(key)
        self.hints.discard(key[0], key[1])

    def set_hint(self, ino: int, index: int, hint: int) -> None:
        if hint == HINT_CLEAR:
            self.hints.discard(ino, index)
        else:
            self.hints.set(ino, index, hint)
        self._m_hints.inc()

    # -- allocator integration ------------------------------------------------
    def throttle_alloc(self) -> None:
        """Called by the frame allocator before every allocation.

        Below the min watermark (or on plain exhaustion with watermarks
        off) the allocating path does synchronous direct reclaim.  An
        :class:`OutOfMemory` from reclaim is fatal only if no frame is
        actually available.  Reclaim never recurses: an allocation made
        during a shrink pass returns from here at once."""
        if self._in_reclaim:
            return
        free = self.frames.free_frames
        wm = self.watermarks
        if wm is not None:
            if free <= wm.min_frames:
                try:
                    self.direct_reclaim(wm.low_frames - free + 1)
                except OutOfMemory:
                    if self.frames.free_frames <= 0:
                        raise
        elif free <= 0:
            self.direct_reclaim(1)

    def note_allocation(self) -> None:
        """Called by the frame allocator after every allocation: wake
        kswapd once free frames sink below the low watermark."""
        wm = self.watermarks
        if (wm is not None and self._wake is not None
                and not self._wake.triggered
                and self.frames.free_frames < wm.low_frames):
            self._wake.succeed()

    # -- watermarks / kswapd --------------------------------------------------
    def enable_watermarks(self,
                          watermarks: Watermarks | None = None) -> Watermarks:
        """Turn the pressure plane on: set watermarks and start kswapd."""
        if self._kswapd is None:
            self.watermarks = watermarks or Watermarks.for_pool(
                self.frames.total_frames)
            self._kswapd = self.env.process(self._kswapd_loop(),
                                            name="kswapd")
        return self.watermarks

    def _kswapd_loop(self):
        while True:
            self._wake = self.env.event()
            yield self._wake
            self._m_kswapd_wakeups.inc()
            if self.fault_injector is not None:
                stall = self.fault_injector.on_wakeup()
                if stall > 0.0:
                    self._m_stalls.inc()
                    self._m_stall_seconds.inc(stall)
                    tracer = self.env.tracer
                    if tracer is not None and tracer.enabled:
                        tracer.instant("reclaim stall", "reclaim",
                                       self.env.now, track="kswapd",
                                       seconds=stall)
                    yield self.env.timeout(stall)
            wm = self.watermarks
            while self.frames.free_frames < wm.high_frames:
                start = self.env.now
                want = max(1, min(SWAP_CLUSTER_MAX,
                                  wm.high_frames - self.frames.free_frames))
                freed = self.shrink(want)
                if freed == 0:
                    break  # nothing reclaimable; direct reclaim decides
                cost = freed * self.reclaim_page_cost + self.pending_cost
                self.pending_cost = 0.0
                self._m_cpu_seconds.inc(freed * self.reclaim_page_cost)
                yield self.env.timeout(cost)
                tracer = self.env.tracer
                if tracer is not None and tracer.enabled:
                    tracer.complete("kswapd shrink", "reclaim", start,
                                    end=self.env.now, track="kswapd",
                                    freed=freed,
                                    free=self.frames.free_frames)

    # -- reclaim proper -------------------------------------------------------
    def direct_reclaim(self, need: int) -> int:
        """Synchronously free ``need`` frames or raise :class:`OutOfMemory`.

        First a policy-respecting pass, then a desperate pass that
        ignores referenced bits, hints, and policy verdicts — but never
        touches mapped or under-I/O pages."""
        self._m_direct.inc()
        freed = self.shrink(need)
        if freed < need:
            freed += self.shrink(need - freed, desperate=True)
        if freed < need:
            raise OutOfMemory(
                "page reclaim could not free enough frames "
                "(all pages mapped or under I/O)")
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant("direct reclaim", "reclaim", self.env.now,
                           track="reclaim", need=need, freed=freed)
        return freed

    def shrink(self, nr_to_reclaim: int, desperate: bool = False) -> int:
        """One shrink pass over the inactive list, refilling it from the
        active list's cold end when it runs dry.  Returns frames freed."""
        if nr_to_reclaim <= 0:
            return 0
        self._in_reclaim = True
        try:
            freed = self._scan_inactive(nr_to_reclaim, desperate)
            if freed < nr_to_reclaim and self.lru.active:
                limit = (len(self.lru.active) if desperate
                         else max(SWAP_CLUSTER_MAX,
                                  2 * (nr_to_reclaim - freed)))
                self._refill_inactive(limit)
                freed += self._scan_inactive(nr_to_reclaim - freed,
                                             desperate)
            return freed
        finally:
            self._in_reclaim = False

    def _refill_inactive(self, limit: int) -> None:
        """shrink_active_list: demote up to ``limit`` cold active pages."""
        for key in list(islice(self.lru.active, limit)):
            self.lru.demote(key)
            self._m_demotions.inc()

    def _scan_inactive(self, nr_to_reclaim: int, desperate: bool) -> int:
        """shrink_inactive_list: one lap over the inactive list as it
        stood when the pass began, head first; rotations within the pass
        are not revisited."""
        hook = self.kprobes.hook(HOOK_MM_EVICT)
        policy = bool(hook.programs) and not desperate
        batch_cap = max(nr_to_reclaim, SWAP_CLUSTER_MAX)
        inactive = self.lru.inactive
        candidates: list[tuple[tuple, tuple[int, int], object]] = []
        freed = 0
        for seq, key in enumerate(_lap(inactive, candidates)):
            if policy:
                if len(candidates) >= batch_cap:
                    break
            elif freed >= nr_to_reclaim:
                break
            entry = inactive[key]
            self._m_scanned.inc()
            if entry.locked:
                self.lru.rotate(key)
                self._m_rotations.inc()
                continue
            if entry.frame.mapcount > 0:
                self.lru.activate(key)
                self._m_activations.inc()
                continue
            hint = self.hints.get(key[0], key[1], HINT_CLEAR)
            if not desperate:
                if hint == HINT_KEEP:
                    self.lru.rotate(key)
                    self._m_hint_keeps.inc()
                    continue
                if entry.referenced and hint != HINT_COLD:
                    entry.referenced = False
                    self.lru.rotate(key)
                    self._m_rotations.inc()
                    continue
            if policy:
                verdict = self._policy_verdict(key, nr_to_reclaim - freed)
                if verdict == VERDICT_VETO:
                    self.lru.rotate(key)
                    self._m_policy_vetoes.inc()
                    continue
                sort_key = ((0, seq) if hint == HINT_COLD
                            else (1, verdict, seq))
                candidates.append((sort_key, key, entry))
            else:
                self._evict(key, entry)
                freed += 1
        if policy:
            candidates.sort(key=lambda item: item[0])
            for _sort_key, key, entry in candidates:
                if freed >= nr_to_reclaim:
                    break
                self._evict(key, entry)
                freed += 1
        return freed

    def _policy_verdict(self, key: tuple[int, int], need: int) -> int:
        ino, index = key
        ctx = pack_u64(ino, index, self.frames.free_frames, need)
        verdict, cost = self.kprobes.fire_verdict(HOOK_MM_EVICT, ctx)
        self._m_policy_runs.inc()
        if cost:
            self.pending_cost += cost
            self._m_cpu_seconds.inc(cost)
        return VERDICT_DEFAULT if verdict is None else verdict

    def _evict(self, key: tuple[int, int], entry) -> None:
        self.page_cache.evict_entry(entry)
        self._m_reclaimed.inc()
        self.eviction_log.append(key)


def register_evict_hint(kernel) -> None:
    """Expose ``snapbpf_evict_hint(ino, index, hint)`` to BPF programs.

    Idempotent per kernel.  Returns 0, or -EINVAL for unknown hints;
    hints on pages not (yet) cached are kept and apply when the page
    shows up — matching a policy program annotating offsets it has only
    seen in its maps."""
    if SNAPBPF_EVICT_HINT in kernel.kfuncs:
        return

    controller = kernel.reclaim

    def snapbpf_evict_hint(ino: int, index: int, hint: int) -> int:
        if hint not in (HINT_CLEAR, HINT_KEEP, HINT_COLD):
            return -22  # -EINVAL
        controller.set_hint(ino, index, hint)
        return 0

    kernel.kfuncs.register(SNAPBPF_EVICT_HINT, snapbpf_evict_hint, n_args=3)
