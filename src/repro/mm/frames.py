"""Physical memory frames and their accounting.

Figure 3c of the paper is a statement about frames: userfaultfd installs
*anonymous* frames that every sandbox owns privately, while page-cache
mappings share one *file* frame across all sandboxes of a function.  The
allocator therefore tracks the two kinds separately, attributes anonymous
frames to owners (VM ids), and keeps a high-water mark that the memory
experiments report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.units import PAGE_SIZE

ANON = "anon"
FILE = "file"

#: ``Frame.mapcount`` of a freed frame, so a second free is caught.
FREED = -1


class OutOfMemory(MemoryError):
    """Frame pool exhausted and reclaim could not free enough."""


@dataclass(slots=True)
class Frame:
    """One physical 4 KiB frame.

    A FILE frame's page identity lives on the page cache's
    ``CacheEntry``, not here."""

    pfn: int
    kind: str
    content: int = 0
    #: Number of PTEs (host or nested) referencing this frame; ``FREED``
    #: once the allocator has taken it back.
    mapcount: int = 0
    #: Owner tag for ANON frames (VM / process id) — memory attribution.
    owner: str | None = None


@dataclass(slots=True)
class MemoryCounters:
    """Point-in-time usage, in frames."""

    anon: int = 0
    file: int = 0

    @property
    def total(self) -> int:
        return self.anon + self.file

    @property
    def total_bytes(self) -> int:
        return self.total * PAGE_SIZE


class FrameAllocator:
    """Fixed-size pool of frames with kind/owner accounting.

    ``peak`` tracks the maximum total frames in use since the last
    :meth:`reset_peak`; the concurrent-invocation experiments reset it
    before spawning sandboxes and read it afterwards.

    ``in_use`` always equals ``counters.total``; it is kept as its own
    int because every allocation reads it.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ValueError("frame pool must be positive")
        self.total_frames = total_frames
        self.counters = MemoryCounters()
        self.in_use = 0
        self.peak_frames = 0
        self._next_pfn = itertools.count()
        self._per_owner: dict[str, int] = {}
        #: Memory-pressure plane (a :class:`repro.mm.reclaim.\
        #: ReclaimController`); when set, every allocation goes through
        #: watermark throttling and may wake kswapd.  ``None`` keeps the
        #: bare fail-on-exhaustion allocator for standalone use.
        self.reclaimer = None

    # -- allocation -----------------------------------------------------------
    @property
    def free_frames(self) -> int:
        return self.total_frames - self.in_use

    def alloc(self, kind: str, content: int = 0,
              owner: str | None = None) -> Frame:
        if kind not in (ANON, FILE):
            raise ValueError(f"unknown frame kind {kind!r}")
        # The reclaim plane acts only with watermarks on, or on a full
        # pool (direct reclaim); otherwise both of its hooks are no-ops.
        reclaimer = self.reclaimer
        watermarks = reclaimer is not None and reclaimer.watermarks is not None
        if watermarks or (reclaimer is not None
                          and self.in_use >= self.total_frames):
            reclaimer.throttle_alloc()
        in_use = self.in_use
        if in_use >= self.total_frames:
            raise OutOfMemory(
                f"no free frames ({self.total_frames} total in use)")
        frame = Frame(next(self._next_pfn), kind, content, 0, owner)
        if kind == ANON:
            self.counters.anon += 1
            if owner is not None:
                self._per_owner[owner] = self._per_owner.get(owner, 0) + 1
        else:
            self.counters.file += 1
        self.in_use = in_use = in_use + 1
        if in_use > self.peak_frames:
            self.peak_frames = in_use
        if watermarks:
            reclaimer.note_allocation()
        return frame

    def free(self, frame: Frame) -> None:
        if frame.mapcount != 0:
            if frame.mapcount == FREED:
                raise ValueError(f"double free of frame pfn={frame.pfn}")
            raise ValueError(
                f"freeing frame pfn={frame.pfn} with mapcount "
                f"{frame.mapcount}")
        frame.mapcount = FREED
        if frame.kind == ANON:
            self.counters.anon -= 1
            if frame.owner is not None:
                remaining = self._per_owner.get(frame.owner, 0) - 1
                if remaining > 0:
                    self._per_owner[frame.owner] = remaining
                else:
                    self._per_owner.pop(frame.owner, None)
        else:
            self.counters.file -= 1
        self.in_use -= 1

    # -- reporting ------------------------------------------------------------
    def owner_frames(self, owner: str) -> int:
        """Anonymous frames currently attributed to ``owner``."""
        return self._per_owner.get(owner, 0)

    def reset_peak(self) -> None:
        self.peak_frames = self.in_use

    @property
    def peak_bytes(self) -> int:
        return self.peak_frames * PAGE_SIZE

    def usage(self) -> MemoryCounters:
        return MemoryCounters(anon=self.counters.anon,
                              file=self.counters.file)
