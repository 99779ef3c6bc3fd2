"""Array-backed page sets keyed by ``(ino, pgoff)``.

The page cache, reclaim hints, and the baseline prefetchers all used to
track per-page state in dicts and sets keyed by ``(ino, index)`` tuples.
On the fault path that means a tuple allocation plus a tuple hash per
page probed — the dominant churn in a profiled ``fig --all`` sweep once
the eBPF tier is compiled.  This module replaces those with per-ino byte
arrays: one byte per page, probed with two small-int dict lookups and a
C-level index, with bulk range queries (``residency_bytes``) for
mincore-style scans.

Invariants the rest of mm relies on:

* Per-ino membership counts are maintained incrementally — the O(1)
  ``cached_pages(ino)`` contract behind ``bpf_cached_pages()`` and the
  snapshot-locality router.
* A map, once created for an ino, is never replaced by another object
  (it only grows in place), so hot loops may hold the bytearray across
  mutations — including evictions triggered mid-loop by direct reclaim.
"""

from __future__ import annotations

__all__ = ["PageSet", "PageValueMap"]

#: Smallest per-ino map; avoids re-extending tiny files page by page.
_MIN_MAP_PAGES = 64


class PageSet:
    """Per-ino presence bitmaps (one byte per page) with O(1) counts."""

    __slots__ = ("_maps", "_counts", "_total")

    def __init__(self) -> None:
        self._maps: dict[int, bytearray] = {}
        self._counts: dict[int, int] = {}
        self._total = 0

    def __len__(self) -> int:
        return self._total

    def ensure(self, ino: int, size: int) -> bytearray:
        """The ino's map, grown in place to at least ``size`` pages.

        Hot loops call this once and index the returned bytearray
        directly; identity is stable for the lifetime of the set.
        """
        pages = self._maps.get(ino)
        if pages is None:
            pages = bytearray(max(size, _MIN_MAP_PAGES))
            self._maps[ino] = pages
            self._counts[ino] = 0
        elif len(pages) < size:
            pages.extend(bytes(size - len(pages)))
        return pages

    def add(self, ino: int, index: int) -> bool:
        """Mark (ino, index) present; returns True if newly added."""
        pages = self._maps.get(ino)
        if pages is None or index >= len(pages):
            pages = self.ensure(ino, index + 1)
        if pages[index]:
            return False
        pages[index] = 1
        self._counts[ino] += 1
        self._total += 1
        return True

    def add_run(self, ino: int, start: int, count: int) -> None:
        """Mark ``[start, start + count)`` present, counting the newly
        added pages in bulk."""
        end = start + count
        pages = self._maps.get(ino)
        if pages is None or end > len(pages):
            pages = self.ensure(ino, end)
        added = pages.count(0, start, end)
        pages[start:end] = b"\x01" * count
        self._counts[ino] += added
        self._total += added

    def discard(self, ino: int, index: int) -> bool:
        """Clear (ino, index); returns True if it was present."""
        pages = self._maps.get(ino)
        if pages is None or index >= len(pages) or not pages[index]:
            return False
        pages[index] = 0
        self._counts[ino] -= 1
        self._total -= 1
        return True

    def test(self, ino: int, index: int) -> bool:
        pages = self._maps.get(ino)
        return (pages is not None and index < len(pages)
                and pages[index] != 0)

    def count(self, ino: int | None = None) -> int:
        if ino is None:
            return self._total
        return self._counts.get(ino, 0)

    def residency_bytes(self, ino: int, start: int, count: int) -> bytearray:
        """Presence of ``[start, start + count)`` as one byte per page —
        the bulk query behind mincore()."""
        pages = self._maps.get(ino)
        if pages is None:
            return bytearray(count)
        segment = pages[start:start + count]
        if len(segment) < count:
            segment.extend(bytes(count - len(segment)))
        return segment


class PageValueMap:
    """Per-ino byte-valued page maps (value 0 means absent).

    Backs the reclaim hint table: HINT_KEEP/HINT_COLD are small nonzero
    bytes, probed per reclaim candidate without tuple churn.
    """

    __slots__ = ("_maps", "_n")

    def __init__(self) -> None:
        self._maps: dict[int, bytearray] = {}
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def set(self, ino: int, index: int, value: int) -> None:
        if not 0 < value < 256:
            raise ValueError(f"value {value} outside 1..255")
        pages = self._maps.get(ino)
        if pages is None:
            pages = bytearray(max(index + 1, _MIN_MAP_PAGES))
            self._maps[ino] = pages
        elif index >= len(pages):
            pages.extend(bytes(index + 1 - len(pages)))
        if not pages[index]:
            self._n += 1
        pages[index] = value

    def discard(self, ino: int, index: int) -> None:
        pages = self._maps.get(ino)
        if pages is not None and index < len(pages) and pages[index]:
            pages[index] = 0
            self._n -= 1

    def get(self, ino: int, index: int, default: int = 0) -> int:
        pages = self._maps.get(ino)
        if pages is None or index >= len(pages):
            return default
        value = pages[index]
        return value if value else default

    def as_dict(self) -> dict[tuple[int, int], int]:
        """Sparse view, for assertions and debugging."""
        return {(ino, index): value
                for ino, pages in self._maps.items()
                for index, value in enumerate(pages) if value}
