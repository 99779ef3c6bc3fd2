"""Flat extent-based file store on top of a block device.

Snapshot memory files, the baselines' serialized working-set files, and
SnapBPF's tiny offset-metadata files all live here.  Files are placed as
single contiguous extents (firecracker snapshots are written in one
stream, so this matches reality and gives the serialized-WS baselines
their best case: fully sequential layout).

Page *contents* are modeled as integer tokens rather than bytes: token 0
is a zero page (what FaaSnap's patched guest kernel leaves behind when it
zeroes freed memory and what its snapshot scanner looks for), and any
other token is an opaque content identity used to check copy fidelity in
tests.  Untouched pages default to a deterministic per-(inode, index)
token so content comparisons are meaningful without storing real data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.sim import Environment, Event
from repro.storage.device import READ, WRITE, BlockDevice, IORequest
from repro.units import PAGE_SIZE

ZERO_PAGE = 0


class TornPageError(IOError):
    """A read returned a torn/corrupt snapshot page.

    The block-layer request itself succeeded; integrity checking above
    it (checksums over snapshot pages) rejected the payload.  Treated as
    transient by the retry ladder: a torn *read* (e.g. racing a snapshot
    rewrite) heals on re-read, and the fault plane draws fresh per read.
    """

    transient = True

    def __init__(self, file_name: str, page: int):
        super().__init__(f"torn page {page} in {file_name!r}")
        self.file_name = file_name
        self.page = page


def default_token(ino: int, index: int) -> int:
    """Deterministic nonzero content token for an untouched file page."""
    return (ino << 40) | (index + 1)


@dataclass
class File:
    """A file: one contiguous device extent plus sparse content overrides."""

    ino: int
    name: str
    size_bytes: int
    device_offset: int
    _contents: dict[int, int] = field(default_factory=dict)
    #: Size in pages, rounded up; read on every fault and fill.
    size_pages: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size_pages = -(-self.size_bytes // PAGE_SIZE)

    def content(self, page: int) -> int:
        self._check_page(page)
        return self._contents.get(page, default_token(self.ino, page))

    def contents(self, start: int, count: int) -> list[int]:
        """Tokens of pages ``[start, start + count)``, bounds-checked
        once for the whole run."""
        self._check_page(start)
        self._check_page(start + count - 1)
        get, ino = self._contents.get, self.ino
        return [get(page, default_token(ino, page))
                for page in range(start, start + count)]

    def set_content(self, page: int, token: int) -> None:
        self._check_page(page)
        self._contents[page] = token

    def zero_pages(self) -> list[int]:
        """Indices of pages whose content is the zero token (for scanners)."""
        return sorted(p for p, tok in self._contents.items() if tok == ZERO_PAGE)

    def _check_page(self, page: int) -> None:
        if not 0 <= page < self.size_pages:
            raise IndexError(
                f"page {page} out of range for {self.name!r} "
                f"({self.size_pages} pages)")


class FileStore:
    """Allocates files on a device and mediates page-granular I/O.

    Every read/write is issued as a single contiguous :class:`IORequest`
    covering the page range, which is how the block layer sees a merged
    readahead batch.  Callers that want per-page requests issue per-page
    ranges themselves (that is precisely the I/O-amplification difference
    the paper instruments with eBPF).
    """

    def __init__(self, env: Environment, device: BlockDevice):
        self.env = env
        self.device = device
        self._files: dict[str, File] = {}
        self._by_ino: dict[int, File] = {}
        self._next_ino = itertools.count(1)
        self._next_offset = 0
        #: Fault plane hook (duck-typed; see repro.faults).  When set,
        #: reads consult ``fault_injector.on_read`` and may surface a
        #: :class:`TornPageError` even though the device read succeeded.
        self.fault_injector = None
        #: Tiered snapshot store hook (see repro.snapstore).  When set,
        #: a read of a recorded snapshot file first stages any chunks
        #: not resident in the local tier; reads whose chunks are all
        #: local take the unmodified flat-file path below.
        self.snapstore = None

    # -- namespace ------------------------------------------------------------
    def create(self, name: str, size_bytes: int) -> File:
        if name in self._files:
            raise FileExistsError(name)
        if size_bytes <= 0:
            raise ValueError("file size must be positive")
        aligned = -(-size_bytes // PAGE_SIZE) * PAGE_SIZE
        if self._next_offset + aligned > self.device.capacity_bytes:
            raise OSError(f"device full creating {name!r}")
        file = File(ino=next(self._next_ino), name=name, size_bytes=size_bytes,
                    device_offset=self._next_offset)
        self._next_offset += aligned
        self._files[name] = file
        self._by_ino[file.ino] = file
        return file

    def open(self, name: str) -> File:
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(name) from None

    def by_ino(self, ino: int) -> File:
        try:
            return self._by_ino[ino]
        except KeyError:
            raise FileNotFoundError(f"ino {ino}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def unlink(self, name: str) -> None:
        file = self.open(name)
        del self._files[name]
        del self._by_ino[file.ino]

    # -- I/O --------------------------------------------------------------------
    def read_pages(self, file: File, start_page: int, npages: int,
                   prio: int = 0) -> Event:
        """Issue one contiguous read of ``npages`` pages; completion event."""
        return self._io(file, start_page, npages, READ, prio)

    def write_pages(self, file: File, start_page: int, npages: int,
                    prio: int = 0) -> Event:
        return self._io(file, start_page, npages, WRITE, prio)

    def _io(self, file: File, start_page: int, npages: int, op: str,
            prio: int = 0) -> Event:
        if npages <= 0:
            raise ValueError("page count must be positive")
        if start_page < 0 or start_page + npages > file.size_pages:
            raise IndexError(
                f"pages [{start_page}, {start_page + npages}) out of range "
                f"for {file.name!r} ({file.size_pages} pages)")
        if op == READ and self.snapstore is not None:
            plan = self.snapstore.plan_read(file, start_page, npages)
            if plan:
                return self.env.process(
                    self._staged_read(file, start_page, npages, prio, plan),
                    name=f"staged-read-{file.name}-{start_page}")
        return self._device_io(file, start_page, npages, op, prio)

    def _device_io(self, file: File, start_page: int, npages: int, op: str,
                   prio: int = 0) -> Event:
        offset = file.device_offset + start_page * PAGE_SIZE
        completion = self.device.submit(
            IORequest(offset, npages * PAGE_SIZE, op, prio=prio))
        if self.fault_injector is not None and op == READ:
            error = self.fault_injector.on_read(file, start_page, npages)
            if error is not None:
                return self.env.process(
                    self._torn_read(completion, error),
                    name=f"torn-read-{file.name}-{start_page}")
        return completion

    def _staged_read(self, file: File, start_page: int, npages: int,
                     prio: int, plan):
        # Stage the cold chunks into the local tier (charging the source
        # tier's device/network model), then perform the ordinary local
        # read.  Staging failures propagate to the caller like any other
        # read error, feeding the page cache's retry ladder.
        yield from self.snapstore.stage(plan, prio)
        result = yield self._device_io(file, start_page, npages, READ, prio)
        return result

    def _torn_read(self, completion: Event, error: TornPageError):
        # A device-level failure propagates as-is (yield re-raises it);
        # only a successful read is demoted to the torn-page error.
        yield completion
        raise error
