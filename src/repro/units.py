"""Shared unit constants and helpers.

All simulated times are in **seconds**, sizes in **bytes**, and memory is
managed in 4 KiB pages, matching the paper's Linux v6.3 setup.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

PAGE_SIZE = 4 * KIB
PAGE_SHIFT = 12

USEC = 1e-6
MSEC = 1e-3

#: Default Linux readahead window: 128 KiB = 32 pages (paper §4 Methodology).
DEFAULT_READAHEAD_PAGES = 32


def pages(nbytes: int) -> int:
    """Number of whole pages covering ``nbytes`` (ceiling division)."""
    return -(-nbytes // PAGE_SIZE)


def page_index(offset: int) -> int:
    """File/page-cache index of the page containing byte ``offset``."""
    return offset >> PAGE_SHIFT


def fmt_bytes(nbytes: float) -> str:
    """Human-readable size, e.g. ``fmt_bytes(3 * MIB) == '3.0 MiB'``."""
    for unit, name in ((GIB, "GiB"), (MIB, "MiB"), (KIB, "KiB")):
        if abs(nbytes) >= unit:
            return f"{nbytes / unit:.1f} {name}"
    return f"{nbytes:.0f} B"
