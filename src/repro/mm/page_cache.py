"""The OS page cache.

Two functions here are the paper's whole attack surface:

* :meth:`PageCache.add_to_page_cache_lru` — every page entering the cache
  passes through it, and it fires the kprobe hook of the same name with
  ``(ino, page index)`` as the BPF context.  SnapBPF's capture program
  records working sets from exactly this vantage point.
* :meth:`PageCache.page_cache_ra_unbounded` — the batch read routine that
  readahead uses; SnapBPF's ``snapbpf_prefetch`` kfunc wraps it so a BPF
  program can prefetch snapshot ranges *into the page cache*, where they
  are shared by every sandbox of the function (in-memory deduplication).

Pages under I/O are "locked": they are present in the cache with
``uptodate == False`` and an event that concurrent faulters wait on — the
mechanism by which ten concurrent sandboxes end up doing one disk read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.ebpf.kprobe import KprobeManager
from repro.faults.retry import RetryPolicy
from repro.metrics.registry import MetricsRegistry
from repro.mm.frames import FILE, FrameAllocator, OutOfMemory
from repro.mm.pageset import PageSet
from repro.mm.reclaim import ReclaimController
from repro.sim import Environment, Event
from repro.storage.device import PRIO_READAHEAD
from repro.storage.filestore import File, FileStore

HOOK_ADD_TO_PAGE_CACHE = "add_to_page_cache_lru"
HOOK_CTX_SIZE = 16  # (u64 ino, u64 index)
_HOOK_CTX = struct.Struct("<QQ")


@dataclass(slots=True)
class CacheEntry:
    """One cached file page."""

    ino: int
    index: int
    frame: object
    uptodate: bool = False
    #: Fires when the filling I/O completes; None once uptodate.
    io_event: Event | None = None
    #: PG_readahead: touching this page triggers the next async window.
    ra_marker: bool = False
    #: PG_referenced: second-chance bit — a touch on the inactive list
    #: sets it; the reclaim scan clears it and rotates instead of
    #: evicting; a touch while set promotes to the active list.
    referenced: bool = False
    #: Which LRU list the page sits on (maintained by the reclaim plane).
    active: bool = False

    @property
    def locked(self) -> bool:
        return not self.uptodate


class CacheStats:
    """Page-cache counters, registry-backed (read-compatible facade).

    The attribute names the old dataclass exposed are preserved as
    properties; values live in the machine's
    :class:`~repro.metrics.registry.MetricsRegistry` under ``cache_*``.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        c = self.registry.counter
        self._adds = c("cache_adds_total")
        self._hits = c("cache_hits_total")
        self._misses = c("cache_misses_total")
        self._evictions = c("cache_evictions_total")
        self._bpf_hook_seconds = c("cache_bpf_hook_seconds_total")
        #: Transient I/O errors healed by re-issuing the read (fault plane).
        self._io_retries = c("cache_io_retries_total")
        #: Reads that exhausted the retry budget (or were not retryable):
        #: pages dropped, waiters saw EIO.
        self._io_failures = c("cache_io_failures_total")
        #: Speculative (readahead/prefetch) fills aborted because the
        #: frame pool was exhausted — graceful degradation, not an error.
        self._ra_oom_aborts = c("cache_ra_oom_aborts_total")

    @property
    def adds(self) -> int:
        return self._adds.value

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def bpf_hook_seconds(self) -> float:
        return self._bpf_hook_seconds.value

    @property
    def io_retries(self) -> int:
        return self._io_retries.value

    @property
    def io_failures(self) -> int:
        return self._io_failures.value

    @property
    def ra_oom_aborts(self) -> int:
        return self._ra_oom_aborts.value

    def reset(self) -> None:
        for metric in (self._adds, self._hits, self._misses,
                       self._evictions, self._bpf_hook_seconds,
                       self._io_retries, self._io_failures,
                       self._ra_oom_aborts):
            metric.reset()


class PageCache:
    """Radix-tree-like map of (ino, index) -> CacheEntry with LRU reclaim."""

    def __init__(self, env: Environment, frames: FrameAllocator,
                 filestore: FileStore, kprobes: KprobeManager,
                 insert_cost: float = 0.15e-6,
                 retry_policy: RetryPolicy | None = None,
                 registry: MetricsRegistry | None = None,
                 reclaim_page_cost: float = 0.0):
        self.env = env
        self.frames = frames
        self.filestore = filestore
        self.kprobes = kprobes
        self.insert_cost = insert_cost
        #: Bounded backoff-retry for transient read errors; ``None``
        #: fails waiters on the first error (the pre-fault-plane rule).
        self.retry_policy = retry_policy
        self.stats = CacheStats(registry)
        self._entries: dict[tuple[int, int], CacheEntry] = {}
        #: Per-ino presence arrays mirroring ``_entries`` keys: byte-per-
        #: page membership with the O(1) per-ino counts cached_pages()
        #: promises (see repro.mm.pageset).
        self._present = PageSet()
        #: Subset of ``_present`` whose I/O has completed — resident()
        #: (mincore's view) is a byte test, bulk-queried by mincore().
        self._uptodate = PageSet()
        if HOOK_ADD_TO_PAGE_CACHE not in getattr(kprobes, "_hooks", {}):
            kprobes.declare_hook(HOOK_ADD_TO_PAGE_CACHE, HOOK_CTX_SIZE)
        #: The memory-pressure plane: split LRU lists, watermarks/kswapd
        #: (off until enabled), and the eviction-policy attach point.
        self.reclaim = ReclaimController(env, frames, self, kprobes,
                                         registry=registry,
                                         reclaim_page_cost=reclaim_page_cost)
        frames.reclaimer = self.reclaim

    # -- lookup ---------------------------------------------------------------
    def lookup(self, ino: int, index: int) -> CacheEntry | None:
        key = (ino, index)
        entry = self._entries.get(key)
        if entry is not None:
            self.reclaim.page_touched(key)
        return entry

    def resident(self, ino: int, index: int) -> bool:
        """mincore()'s view: present and uptodate."""
        return self._uptodate.test(ino, index)

    def residency_bytes(self, ino: int, start: int, count: int) -> bytearray:
        """Bulk resident() over [start, start + count), one byte per page
        (the page-cache side of mincore(2))."""
        return self._uptodate.residency_bytes(ino, start, count)

    def cached_pages(self, ino: int | None = None) -> int:
        if ino is None:
            return len(self._entries)
        return self._present.count(ino)

    # -- insertion (the kprobe hook point) -------------------------------------
    def add_to_page_cache_lru(self, file: File, index: int) -> tuple[CacheEntry, float]:
        """Insert a locked page for (file, index); fires the kprobe.

        Returns the new entry and the CPU seconds consumed (BPF programs
        attached to the hook run synchronously on this path).
        """
        ino = file.ino
        key = (ino, index)
        if self._present.test(ino, index):
            raise ValueError(f"page {key} already in cache")
        # The allocator consults the reclaim plane itself (watermark
        # throttling, direct reclaim); OutOfMemory here means reclaim
        # already tried and failed.  The presence bit is set only after
        # the allocation: eviction-policy programs running inside that
        # reclaim must not see the page counted yet.
        frame = self.frames.alloc(FILE, ino=ino, index=index)
        entry = CacheEntry(ino, index, frame, False, Event(self.env))
        self._entries[key] = entry
        self._present.add(ino, index)
        self.reclaim.page_added(key, entry)
        stats = self.stats
        stats._adds.inc()
        cost = self.kprobes.fire(HOOK_ADD_TO_PAGE_CACHE,
                                 _HOOK_CTX.pack(ino, index))
        stats._bpf_hook_seconds.inc(cost)
        return entry, cost + self.insert_cost

    # -- population -------------------------------------------------------------
    def populate(self, file: File, start: int, count: int,
                 marker: int | None = None, prio: int = 0,
                 speculative: bool = False,
                 required: int | None = None) -> tuple[float, list[CacheEntry]]:
        """Insert all absent pages of [start, start+count) and start their I/O.

        Non-blocking: device reads are issued per contiguous absent run
        and completion callbacks mark the entries uptodate.  Returns the
        CPU cost (allocations + hook executions) and the new entries.
        Waiters use each entry's ``io_event``.

        ``speculative`` marks readahead-class fills: if the frame pool is
        exhausted mid-fill, the remaining speculative pages are skipped
        (the fill degrades instead of killing the caller) — except
        ``required``, the demand page the caller is actually faulting on,
        which is still attempted and whose failure still raises
        :class:`OutOfMemory`.  Reads already built are issued either way.
        """
        if count <= 0:
            return 0.0, []
        if start < 0 or start + count > file.size_pages:
            raise IndexError(
                f"populate [{start}, {start + count}) outside {file.name!r}")
        cost = 0.0
        new_entries: list[CacheEntry] = []
        run: list[CacheEntry] = []
        run_start = None
        oom = False
        # One presence array probe per page instead of a tuple hash; the
        # bytearray mutates in place under adds and reclaim evictions, so
        # holding it across the loop is safe.
        pmap = self._present.ensure(file.ino, file.size_pages)
        for index in range(start, start + count):
            present = pmap[index] != 0
            if not present and oom and index != required:
                continue
            if not present:
                try:
                    entry, add_cost = self.add_to_page_cache_lru(file, index)
                except OutOfMemory:
                    if run:
                        self._issue(file, run_start, run, prio)
                        run, run_start = [], None
                    if not speculative or index == required:
                        raise
                    if not oom:
                        oom = True
                        self.stats._ra_oom_aborts.inc()
                    continue
                cost += add_cost
                new_entries.append(entry)
                if marker is not None and index == marker:
                    entry.ra_marker = True
                if run_start is None:
                    run_start = index
                run.append(entry)
            elif run:
                self._issue(file, run_start, run, prio)
                run, run_start = [], None
        if run:
            self._issue(file, run_start, run, prio)
        return cost, new_entries

    def _issue(self, file: File, run_start: int, entries: list[CacheEntry],
               prio: int = 0, attempt: int = 1) -> None:
        """Read ``entries``, the pages ``[run_start, run_start + len)``
        in order, as one request."""
        issued = self.env.now
        completion = self.filestore.read_pages(file, run_start, len(entries),
                                               prio=prio)
        # A failed read is handled here (pages dropped, waiters told), so
        # the engine must not treat it as an unobserved error.
        completion._defused = True
        completion.callbacks.append(
            lambda ev, file=file, entries=tuple(entries): self._io_done(
                file, run_start, entries, ev, prio, attempt, issued))

    def _io_done(self, file: File, run_start: int,
                 entries: tuple[CacheEntry, ...], completion: Event,
                 prio: int, attempt: int, issued: float = 0.0) -> None:
        self._trace_fill(file, run_start, len(entries), prio, attempt,
                         issued, ok=completion.ok)
        if not completion.ok:
            error = completion.value
            policy = self.retry_policy
            if policy is not None and policy.should_retry(
                    attempt, getattr(error, "transient", False)):
                self.stats._io_retries.inc()
                self.env.process(
                    self._retry(file, run_start, entries, prio, attempt),
                    name=f"pgcache-retry-{file.ino}-{run_start}-{attempt}")
                return
            self._io_failed(entries, error)
            return
        contents = file.contents(run_start, len(entries))
        self._uptodate.add_run(file.ino, run_start, len(entries))
        for entry, content in zip(entries, contents):
            entry.frame.content = content
            entry.uptodate = True
            event = entry.io_event
            entry.io_event = None
            if event is not None:
                event.succeed(entry)

    def _trace_fill(self, file: File, run_start: int, count: int,
                    prio: int, attempt: int, issued: float,
                    ok: bool) -> None:
        """Span per fill read, issue to completion; readahead-class fills
        (prefetch, async RA windows) get their own category so the viewer
        separates demand misses from background I/O."""
        tracer = self.env.tracer
        if tracer is not None and tracer.enabled:
            cat = "readahead" if prio == PRIO_READAHEAD else "cache"
            tracer.complete(
                f"fill {file.name}[{run_start}+{count}]", cat, issued,
                end=self.env.now, track="cache", ino=file.ino,
                start=run_start, count=count, attempt=attempt, ok=ok)

    def _retry(self, file: File, run_start: int,
               entries: tuple[CacheEntry, ...], prio: int, attempt: int):
        """Back off, then re-issue the failed read for the same (still
        locked) entries — concurrent waiters keep waiting on the same
        ``io_event`` and never observe the transient error."""
        yield self.env.timeout(self.retry_policy.backoff(attempt))
        self._issue(file, run_start, list(entries), prio, attempt + 1)

    def _io_failed(self, entries: tuple[CacheEntry, ...],
                   error: BaseException) -> None:
        """Media error: drop the never-uptodate pages so later faults
        retry, and surface EIO (SIGBUS-style) to current waiters."""
        self.stats._io_failures.inc()
        for entry in entries:
            self._remove_entry(entry)
            event = entry.io_event
            entry.io_event = None
            if event is not None:
                # Like a failed readahead in Linux, an error nobody is
                # waiting on is dropped silently; waiters see EIO.
                event._defused = True
                event.fail(error)

    # -- readahead core (what snapbpf_prefetch wraps) ----------------------------
    def page_cache_ra_unbounded(self, file: File, start: int,
                                count: int) -> float:
        """Asynchronously fetch [start, start+count) into the cache.

        This is the routine the paper's kfunc wraps: it inserts absent
        pages and issues their block reads without waiting for them.
        Clips to the file size (callers pass raw offsets from BPF maps).
        """
        start = max(0, start)
        count = min(count, file.size_pages - start)
        if count <= 0:
            return 0.0
        # Readahead-class I/O: demand (fault) reads overtake it in the
        # device queue, exactly so that a sync fault is not stuck behind
        # a long prefetch stream.
        cost, _entries = self.populate(file, start, count,
                                       prio=PRIO_READAHEAD,
                                       speculative=True)
        return cost

    # -- blocking reads (buffered read() path) -----------------------------------
    def read_range(self, file: File, start: int, count: int):
        """Generator: ensure [start, start+count) uptodate; returns CPU cost.

        Models the page-cache side of a buffered ``read()`` — the caller
        separately charges its copy-to-userspace cost.
        """
        cost, _new = self.populate(file, start, count)
        for index in range(start, start + count):
            entry = self._entries.get((file.ino, index))
            if entry is None:
                raise RuntimeError(f"page ({file.ino}, {index}) evicted "
                                   f"while reading")
            if not entry.uptodate:
                yield entry.io_event
        return cost

    # -- reclaim -----------------------------------------------------------------
    def _remove_entry(self, entry: CacheEntry) -> None:
        """Drop one entry from the radix tree, LRU lists, and per-ino
        accounting, and free its frame (no eviction counter — callers
        that reclaim use :meth:`evict_entry`)."""
        key = (entry.ino, entry.index)
        if self._entries.pop(key, None) is None:
            return
        self.reclaim.page_removed(key)
        self._present.discard(entry.ino, entry.index)
        self._uptodate.discard(entry.ino, entry.index)
        self.frames.free(entry.frame)

    def evict_entry(self, entry: CacheEntry) -> None:
        """Reclaim-plane eviction of one clean unmapped page."""
        self._remove_entry(entry)
        self.stats._evictions.inc()

    def drop_caches(self) -> int:
        """Drop every clean unmapped page (echo 1 > drop_caches); returns count."""
        dropped = 0
        for key in list(self._entries):
            entry = self._entries[key]
            if entry.uptodate and entry.frame.mapcount == 0:
                self._remove_entry(entry)
                dropped += 1
        return dropped

    def forget(self, entry: CacheEntry) -> None:
        """Remove one entry (truncate path); must be unmapped and uptodate."""
        if entry.frame.mapcount != 0 or not entry.uptodate:
            raise ValueError("cannot forget a mapped or in-flight page")
        self._remove_entry(entry)
