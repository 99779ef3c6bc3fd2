"""Block-storage substrate: device models and a flat file store.

The paper stores function memory snapshots (and, for the baselines, the
serialized working-set files) on a Micron 5300 SATA SSD.  This package
models that device — and a spindle HDD for the §3.1 "modern SSDs relax
the need for sequential I/O" ablation — behind a common request-queue
interface, plus a minimal extent-based :class:`FileStore` that places
files on a device and tracks per-page content identities.
"""

from repro.storage.device import BlockDevice, BlockIOError, IORequest
from repro.storage.filestore import File, FileStore, TornPageError
from repro.storage.hdd import HDDevice
from repro.storage.remote import RemoteObjectStore
from repro.storage.ssd import SSDevice

__all__ = [
    "BlockDevice",
    "BlockIOError",
    "File",
    "FileStore",
    "HDDevice",
    "IORequest",
    "RemoteObjectStore",
    "SSDevice",
    "TornPageError",
]
