"""The tiered snapshot store: placement, staging, promotion, GC.

One :class:`SnapStore` serves one host.  It overlays the host's flat
snapshot files with per-snapshot :class:`~repro.snapstore.chunks.
Manifest` objects and tracks which chunks are resident in the host's
*local* tier (the kernel's own block device).  A read of a snapshot
range whose chunks are all local takes the exact flat-file path — zero
extra DES events, the identity contract.  A read touching cold chunks
first *stages* them: fetched from the warmest tier holding a copy (the
optional local HDD tier, else the remote object store), charged against
that tier's device model, then marked local.

Tier hierarchy and durability:

* **remote** — the shared object store; durably holds every chunk from
  the moment it is first recorded.  In cluster runs one remote device
  (and one :class:`~repro.snapstore.chunks.ChunkRegistry`) is shared by
  every node, so fetches contend on its queue like real disaggregated
  storage.
* **hdd** (optional) — a per-host spindle tier; chunks demoted from the
  local tier land here (a clean drop — the bytes already streamed down)
  and are re-staged from it instead of the network.
* **local** — the host device the snapshot files live on; bounded by
  ``local_capacity_bytes`` with least-recently-used demotion that spares
  shared (base-image) chunks as long as any single-owner chunk remains.

Concurrency: staging deduplicates in-flight fetches per chunk id (two
sandboxes faulting the same cold chunk issue one fetch), and adjacent
chunks fetched from the same tier coalesce into one device request —
the readahead batch the block layer would have merged anyway.
"""

from __future__ import annotations

import itertools

from repro.faults.retry import RetryPolicy
from repro.metrics.registry import MetricsRegistry
from repro.sim import Environment, Event
from repro.snapstore.chunks import (ChunkRegistry, Manifest,
                                    build_derived_manifest, build_manifest)
from repro.snapstore.spec import SnapStoreSpec
from repro.storage.device import READ, BlockIOError, IORequest
from repro.storage.hdd import HDDevice
from repro.storage.remote import RemoteObjectStore
from repro.units import PAGE_SIZE
from repro.workloads.profile import FunctionProfile


class SnapStore:
    """Tiered, content-addressed snapshot storage for one host."""

    def __init__(self, env: Environment, spec: SnapStoreSpec, *,
                 chunks: ChunkRegistry | None = None,
                 remote: RemoteObjectStore | None = None,
                 metrics: MetricsRegistry | None = None):
        self.env = env
        self.spec = spec
        # NB: `is not None`, not truthiness — a shared registry arrives
        # empty (len 0 == falsy) and must not be silently replaced.
        self.chunks = chunks if chunks is not None else ChunkRegistry()
        #: Remote tier device.  Standalone stores build a private one;
        #: the cluster runner passes one shared instance per fleet.  Its
        #: registry stays private so its ``device_*`` metric names never
        #: collide with the host device's on the kernel registry.
        self.remote = remote if remote is not None else RemoteObjectStore(
            env, rtt=spec.remote_latency, bandwidth=spec.remote_bandwidth)
        self.hdd = (HDDevice(env, name="snap-hdd") if spec.hdd_tier
                    else None)
        self._manifests: dict[int, Manifest] = {}
        #: cid -> nbytes for chunks resident in each tier (insertion
        #: ordered; all bookkeeping is RNG-free for determinism).
        self._local: dict[str, int] = {}
        self._on_hdd: dict[str, int] = {}
        self.local_bytes = 0
        self.hdd_bytes = 0
        #: cid -> access stamp for LRU demotion.
        self._stamp: dict[str, int] = {}
        self._tick = itertools.count(1)
        #: cid -> completion event for fetches currently in flight.
        self._inflight: dict[str, Event] = {}
        #: Fault plane hook (duck-typed; see repro.faults).  When set,
        #: every remote fetch consults ``fault_injector.on_fetch`` and
        #: may stall or fail (feeding the retry ladder below).
        self.fault_injector = None
        self.retry_policy = RetryPolicy()
        self._init_metrics(metrics if metrics is not None
                           else MetricsRegistry())

    def _init_metrics(self, registry: MetricsRegistry) -> None:
        """Publish ``snapstore_*`` on the host registry (a store built
        without one gets a private registry).  Created only when a store
        is installed, so storeless runs keep their exact historical
        metric key sets (identity contract)."""
        self.metrics = registry
        c = registry.counter
        self._m_local_hits = c(
            "snapstore_chunk_hits_local_total",
            "chunk lookups served by the local tier")
        self._m_hdd_hits = c(
            "snapstore_chunk_hits_hdd_total",
            "cold chunks staged from the HDD tier")
        self._m_remote_fetches = c(
            "snapstore_remote_fetches_total",
            "fetch requests issued to the remote object store")
        self._m_remote_bytes = c(
            "snapstore_remote_fetch_bytes_total",
            "bytes fetched from the remote object store")
        self._m_staged = c(
            "snapstore_staged_chunks_total",
            "cold chunks promoted into the local tier")
        self._m_demotions = c(
            "snapstore_demotions_total",
            "chunks demoted from the local tier by capacity pressure")
        self._m_retries = c(
            "snapstore_fetch_retries_total",
            "remote fetches retried after an injected failure")
        self._m_degraded = c(
            "snapstore_degraded_fetches_total",
            "fetches served by a surviving tier after remote errors")
        self._h_remote_latency = registry.histogram(
            "snapstore_remote_fetch_latency_seconds",
            help="per-fetch wall latency against the remote tier")
        registry.register_collector(self._occupancy)

    def _occupancy(self) -> dict[str, float]:
        out = {
            "snapstore_local_bytes": float(self.local_bytes),
            "snapstore_remote_bytes": float(self.chunks.unique_bytes),
            "snapstore_manifests": float(len(self._manifests)),
            "snapstore_unique_chunks": float(len(self.chunks)),
            "snapstore_dedup_factor": float(self.chunks.dedup_factor),
            "snapstore_gc_reclaimed_bytes_total":
                float(self.chunks.gc_reclaimed_bytes),
        }
        if self.hdd is not None:
            out["snapstore_hdd_bytes"] = float(self.hdd_bytes)
        return out

    # -- record / delete ----------------------------------------------------
    def record(self, file, profile: FunctionProfile,
               guest_zeroed: bool = False) -> Manifest:
        """Chunk a freshly written snapshot file into the store.

        Offline like snapshot creation itself: no simulated time is
        charged.  Every chunk is durably present in the remote tier from
        here on; :meth:`apply_placement` decides what else starts local.
        """
        manifest = build_manifest(file.ino, file.name, profile,
                                  self.spec.chunk_pages,
                                  guest_zeroed=guest_zeroed)
        return self._register(manifest)

    def record_derived(self, file) -> Manifest:
        """Record a derived restore artifact (ws file, group metadata):
        tiered like a snapshot, but with nothing to deduplicate."""
        manifest = build_derived_manifest(file.ino, file.name,
                                          file.size_bytes,
                                          self.spec.chunk_pages)
        return self._register(manifest)

    def _register(self, manifest: Manifest) -> Manifest:
        if manifest.ino in self._manifests:
            raise FileExistsError(
                f"snapshot ino {manifest.ino} already recorded")
        for index, cid in enumerate(manifest.cids):
            self.chunks.add_ref(cid, manifest.chunk_nbytes(index),
                                owner=manifest.name)
            # A freshly written object is local by construction — its
            # bytes just landed on this host's device.  The cold-start
            # reset (apply_placement) then re-places per the spec.
            self._place_local(cid, manifest.chunk_nbytes(index))
        self._manifests[manifest.ino] = manifest
        self._evict_to_capacity()
        return manifest

    def manifest(self, ino: int) -> Manifest | None:
        return self._manifests.get(ino)

    def release(self, ino: int) -> int:
        """Delete one snapshot: decref its chunks, GC the unreferenced.

        Returns the number of bytes reclaimed store-wide.  A chunk still
        referenced by any live manifest is never freed; a freed chunk is
        dropped from every tier of *this* store (other stores sharing
        the registry drop theirs on their own release calls).
        """
        manifest = self._manifests.pop(ino, None)
        if manifest is None:
            raise FileNotFoundError(f"no manifest for ino {ino}")
        reclaimed = 0
        for index, cid in enumerate(manifest.cids):
            if self.chunks.release(cid, owner=manifest.name):
                reclaimed += manifest.chunk_nbytes(index)
                self._drop_resident(cid)
        return reclaimed

    def release_all(self) -> int:
        """Delete every snapshot this store recorded (node shutdown)."""
        reclaimed = 0
        for ino in list(self._manifests):
            reclaimed += self.release(ino)
        return reclaimed

    def _drop_resident(self, cid: str) -> None:
        nbytes = self._local.pop(cid, None)
        if nbytes is not None:
            self.local_bytes -= nbytes
        nbytes = self._on_hdd.pop(cid, None)
        if nbytes is not None:
            self.hdd_bytes -= nbytes
        self._stamp.pop(cid, None)

    # -- placement / tier state machine -------------------------------------
    def apply_placement(self) -> None:
        """Reset tier residency to the spec's placement — the snapstore
        half of the cold-start reset (``drop_caches`` for tiers).

        Authoritative and idempotent: whatever staging or record traffic
        came before, afterwards exactly the spec-selected chunks are
        local — all of them (``local``), none (``remote``), or the
        deduplicated base-image chunks (``base-local``) — trimmed to the
        capacity bound.
        """
        placement = self.spec.placement
        self._local.clear()
        self.local_bytes = 0
        if placement != "remote":
            for manifest in self._manifests.values():
                for index, cid in enumerate(manifest.cids):
                    if placement == "base-local" and not self.chunks.get(
                            cid).shared:
                        continue
                    self._place_local(cid, manifest.chunk_nbytes(index))
        self._evict_to_capacity()

    def _place_local(self, cid: str, nbytes: int) -> None:
        """Mark a chunk local without capacity enforcement (bulk paths
        call :meth:`_evict_to_capacity` once at the end)."""
        if cid in self._local:
            return
        self._local[cid] = nbytes
        self.local_bytes += nbytes
        self._stamp.setdefault(cid, next(self._tick))

    def _make_local(self, cid: str, nbytes: int) -> None:
        self._place_local(cid, nbytes)
        self._evict_to_capacity()

    def _evict_to_capacity(self) -> None:
        cap = self.spec.local_capacity_bytes
        if cap is None:
            return
        while self.local_bytes > cap and len(self._local) > 1:
            # LRU among single-owner chunks first; shared base-image
            # chunks (hot everywhere under dedup) are spared until no
            # private chunk remains.
            victim = min(
                self._local,
                key=lambda c: (self.chunks.get(c).shared, self._stamp[c]))
            self._demote(victim)

    def _demote(self, cid: str) -> None:
        nbytes = self._local.pop(cid)
        self.local_bytes -= nbytes
        if self.hdd is not None and cid not in self._on_hdd:
            # A clean drop into the spindle tier: the bytes are already
            # durable remotely, so demotion charges no device time.
            self._on_hdd[cid] = nbytes
            self.hdd_bytes += nbytes
        self._m_demotions.inc()

    def drop_local(self) -> int:
        """Drop the whole local tier (node decommission); returns the
        number of chunks dropped."""
        dropped = len(self._local)
        self._local.clear()
        self.local_bytes = 0
        return dropped

    # -- restore path -------------------------------------------------------
    def plan_read(self, file, start_page: int,
                  npages: int) -> list[tuple[str, int]] | None:
        """Resolve a snapshot-file read to the cold chunks it needs.

        Returns ``None`` when the file has no manifest (not a recorded
        snapshot) or every covered chunk is already local — the caller
        then takes the unmodified flat-file path.  Otherwise a list of
        unique ``(cid, nbytes)`` pairs, in manifest order, to stage.
        """
        manifest = self._manifests.get(file.ino)
        if manifest is None:
            return None
        cold: list[tuple[str, int]] = []
        seen: set[str] = set()
        hits = 0
        for index in manifest.covering_chunks(start_page, npages):
            cid = manifest.cids[index]
            self._stamp[cid] = next(self._tick)
            if cid in self._local:
                hits += 1
            elif cid not in seen:
                seen.add(cid)
                cold.append((cid, manifest.chunk_nbytes(index)))
        if hits:
            self._m_local_hits.inc(hits)
        return cold or None

    def stage(self, plan: list[tuple[str, int]], prio: int = 0):
        """Generator: fetch every cold chunk in ``plan`` into the local
        tier, charging the source tier's device model.

        Chunks already being fetched by another sandbox are awaited, not
        re-fetched; the rest are grouped per source tier, coalesced by
        remote-offset adjacency, and fetched concurrently.  Fetch errors
        propagate to the caller (and every waiter) after the retry and
        degradation ladder below is exhausted.
        """
        waits: list[Event] = []
        fetches: list[tuple[int, int, str, Event]] = []
        for cid, nbytes in plan:
            if cid in self._local:
                continue  # raced: staged since the plan was made
            pending = self._inflight.get(cid)
            if pending is not None:
                waits.append(pending)
                continue
            event = Event(self.env)
            event._defused = True  # waiters may be zero
            self._inflight[cid] = event
            fetches.append((self.chunks.get(cid).remote_offset, nbytes,
                            cid, event))
        pending = list(waits)
        for source, run in self._coalesce(fetches):
            pending.append(self.env.process(
                self._fetch(source, run, prio),
                name=f"snapstore-fetch-{run[0][2][:8]}"))
        if pending:
            yield self.env.all_of(pending)

    def _coalesce(self, fetches):
        """Group fetches by source tier, then merge offset-adjacent
        chunks into single runs (one device request per run)."""
        by_source: dict[str, list] = {"hdd": [], "remote": []}
        for entry in fetches:
            cid = entry[2]
            source = ("hdd" if self.hdd is not None and cid in self._on_hdd
                      else "remote")
            by_source[source].append(entry)
        for source in ("hdd", "remote"):
            entries = sorted(by_source[source])
            run: list = []
            run_end = None
            for entry in entries:
                offset, nbytes = entry[0], entry[1]
                aligned = -(-nbytes // PAGE_SIZE) * PAGE_SIZE
                if run and offset != run_end:
                    yield source, run
                    run = []
                run.append(entry)
                run_end = offset + aligned
            if run:
                yield source, run

    def _fetch(self, source: str, run, prio: int):
        """Generator: one coalesced fetch against one tier, with the
        retry/backoff + surviving-tier degradation ladder."""
        env = self.env
        device = self.hdd if source == "hdd" else self.remote
        offset = run[0][0]
        last_offset, last_nbytes = run[-1][0], run[-1][1]
        nbytes = (last_offset + last_nbytes) - offset
        start = env.now
        attempt = 0
        while True:
            error = None
            decision = None
            if source == "remote" and self.fault_injector is not None:
                decision = self.fault_injector.on_fetch()
                if decision.stall_seconds > 0.0:
                    yield env.timeout(decision.stall_seconds)
            request = IORequest(offset, nbytes, READ, prio=prio)
            try:
                yield device.submit(request)
            except BlockIOError as exc:
                error = exc
            if (error is None and decision is not None
                    and decision.error):
                # The transfer completed but the response was an EIO
                # (object-store 5xx); transient by nature.
                error = BlockIOError(request, transient=True)
            if error is None:
                break
            attempt += 1
            policy = self.retry_policy
            if policy.should_retry(attempt,
                                   getattr(error, "transient", True)):
                self._m_retries.inc()
                yield env.timeout(policy.backoff(attempt))
                continue
            if source == "remote" and self.hdd is not None and all(
                    cid in self._on_hdd for _o, _n, cid, _e in run):
                # Remote unreachable but a surviving local tier holds
                # every chunk: degrade to it instead of failing.
                self._m_degraded.inc(len(run))
                yield from self._fetch("hdd", run, prio)
                return
            for _offset, _nbytes, cid, event in run:
                self._inflight.pop(cid, None)
                event.fail(BlockIOError(request, transient=getattr(
                    error, "transient", True)))
            raise error
        if source == "remote":
            self._m_remote_fetches.inc()
            self._m_remote_bytes.inc(nbytes)
            self._h_remote_latency.observe(env.now - start)
        else:
            self._m_hdd_hits.inc(len(run))
        for _offset, chunk_nbytes, cid, event in run:
            self._inflight.pop(cid, None)
            self._make_local(cid, chunk_nbytes)
            self._m_staged.inc()
            event.succeed()

    # -- reporting ----------------------------------------------------------
    def result_extras(self) -> dict[str, float]:
        """Per-run floats for ``ScenarioResult.extra`` (exact-JSON
        round-trip safe: ints-as-floats and plain ratios only)."""
        extras = {
            "snapstore_dedup_factor": float(self.chunks.dedup_factor),
            "snapstore_logical_bytes": float(self.chunks.logical_bytes),
            "snapstore_unique_bytes": float(self.chunks.unique_bytes),
            "snapstore_local_bytes": float(self.local_bytes),
            "snapstore_remote_bytes": float(self.chunks.unique_bytes),
            "snapstore_gc_reclaimed_bytes":
                float(self.chunks.gc_reclaimed_bytes),
        }
        if self.hdd is not None:
            extras["snapstore_hdd_bytes"] = float(self.hdd_bytes)
        for key in ("snapstore_remote_fetches_total",
                    "snapstore_remote_fetch_bytes_total",
                    "snapstore_staged_chunks_total",
                    "snapstore_demotions_total",
                    "snapstore_fetch_retries_total",
                    "snapstore_degraded_fetches_total"):
            value = self.metrics.get(key).value
            if value:
                extras[key.removesuffix("_total")] = float(value)
        return extras

    def occupancy(self) -> dict[str, float]:
        """Tier-occupancy snapshot (consumed by the serve dashboard)."""
        return {
            "local_bytes": float(self.local_bytes),
            "hdd_bytes": float(self.hdd_bytes),
            "remote_bytes": float(self.chunks.unique_bytes),
            "local_chunks": float(len(self._local)),
            "manifests": float(len(self._manifests)),
            "dedup_factor": float(self.chunks.dedup_factor),
        }


def install_snapstore(kernel, spec: SnapStoreSpec | None, *,
                      chunks: ChunkRegistry | None = None,
                      remote: RemoteObjectStore | None = None
                      ) -> SnapStore | None:
    """Build a store for one host kernel and wire every hook.

    No-op when ``spec`` is None (the flat-file baseline).  The cluster
    runner passes a shared registry + remote device so all nodes see one
    chunk namespace and contend on one network-attached store.
    """
    if spec is None:
        return None
    store = SnapStore(kernel.env, spec, chunks=chunks, remote=remote,
                      metrics=kernel.metrics)
    kernel.snapstore = store
    kernel.filestore.snapstore = store
    faults = getattr(kernel, "faults", None)
    if faults is not None and getattr(faults, "remote", None) is not None:
        store.fault_injector = faults.remote
    return store
