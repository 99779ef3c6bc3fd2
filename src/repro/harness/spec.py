"""`ScenarioSpec` — the canonical, hashable description of one scenario.

One spec names everything that determines a scenario's outcome: the full
:class:`~repro.workloads.profile.FunctionProfile` (not just its name, so
a re-calibrated profile invalidates cached results), the approach
registry name and its constructor parameters, the concurrency level,
the input seed, the identical-vs-varying inputs switch, the device kind,
and the optional :class:`~repro.mm.costs.CostModel` override.  Because
the simulation is a pure function of these fields, a spec is also a
*cache key*: two equal specs always produce byte-identical
:class:`ScenarioResult`\\ s, whatever process or job count ran them.

``stable_hash()`` content-addresses the spec: a SHA-256 over the
canonical JSON form plus :data:`SCHEMA_VERSION`.  Bumping the schema
version (any change to spec or result serialization) therefore orphans
every old on-disk entry instead of deserializing it wrongly.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import asdict, dataclass

from repro.cluster.spec import ClusterSpec
from repro.faults.schedule import ChaosSpec
from repro.mm.costs import CostModel
from repro.snapstore.spec import SnapStoreSpec
from repro.workloads.profile import FunctionProfile, profile_by_name

#: Version tag baked into every spec hash and on-disk store entry.  Bump
#: whenever the spec fields, result serialization, or simulation
#: semantics change in a way that invalidates cached results.
#: v2: memory-pressure plane (ram_bytes/evict_policy spec fields,
#: end_anon/end_file result fields).
#: v3: cluster plane (nested ClusterSpec field).
#: v4: traffic plane (ClusterSpec keep-alive policy fields and nested
#: TrafficSpec workload).
#: v5: snapstore plane (nested SnapStoreSpec field; snapshot tiering).
#: The nested ChaosSpec and the approach_params fields came later without
#: a bump: each is emitted only when set, so every earlier spec keeps its
#: hash.
SCHEMA_VERSION = 5

_DEVICE_KINDS = ("ssd", "hdd")


def stable_hash(payload) -> str:
    """SHA-256 hex digest of a JSON-serializable payload, with sorted
    keys and compact separators so the digest is canonical."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _approach_params(approach: str, params) -> tuple:
    """``params`` (a dict or ``(name, value)`` pairs) checked against
    the approach class's constructor keywords, as sorted pairs without
    the defaults."""
    if not params:
        return ()
    from repro.baselines.base import approach_registry
    cls = approach_registry().get(approach)
    if cls is None:
        raise ValueError(f"unknown approach {approach!r}")
    defaults = {name: p.default for name, p in
                list(inspect.signature(cls).parameters.items())[1:]
                if p.default is not p.empty}
    kept = {}
    for name, value in dict(params).items():
        if name not in defaults:
            raise ValueError(f"{approach} takes no parameter {name!r}; "
                             f"choose from {sorted(defaults)}")
        if type(value) is not type(defaults[name]):
            raise TypeError(f"{approach} parameter {name!r} takes a "
                            f"{type(defaults[name]).__name__}, got "
                            f"{value!r}")
        if value != defaults[name]:
            kept[name] = value
    return tuple(sorted(kept.items()))


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that determines one scenario run (and its cache key)."""

    function: FunctionProfile
    approach: str
    n_instances: int = 1
    input_seed: int = 0
    vary_inputs: bool = False
    device_kind: str = "ssd"
    costs: CostModel | None = None
    #: Host RAM for the run.  ``None`` keeps the default 256 GiB pool
    #: with the pressure plane off; setting it sizes the frame pool AND
    #: enables watermarks + kswapd (a memory-pressure scenario).
    ram_bytes: int | None = None
    #: Named eviction-policy BPF program (repro.core.policies) attached
    #: to the reclaim hook before the timed invocations; ``None`` = LRU.
    evict_policy: str | None = None
    #: Fleet-level scenario (repro.cluster): when set, the run composes
    #: ``cluster.n_nodes`` hosts behind a gateway instead of one kernel;
    #: ``function`` becomes the base profile the cluster's function mix
    #: is cloned from, and per-node knobs (device_kind, costs, ram_bytes,
    #: evict_policy) apply to every node.
    cluster: ClusterSpec | None = None
    #: Tiered snapshot store (repro.snapstore): when set, snapshots are
    #: recorded as content-addressed chunks and restores resolve through
    #: the manifest, staging cold chunks from the configured tiers.
    #: ``None`` keeps the flat-file baseline.  In cluster scenarios every
    #: node gets a local store sharing one remote tier.
    snapstore: SnapStoreSpec | None = None
    #: Chaos cell (repro.faults.ChaosSpec): when set, the run serves a
    #: fixed-interval request train on one node under a seeded fault
    #: schedule instead of the concurrent cold-start measurement.  Only
    #: the function, approach, input seed, device kind, costs and
    #: ram_bytes apply; ``canonical()`` emits the field only when set,
    #: so specs without it keep their hashes.
    chaos: ChaosSpec | None = None
    #: Constructor keywords for the approach's registry class: the
    #: readahead window (``ra_pages``), FaaSnap's coalescing gap
    #: (``gap_threshold``), the KVM CoW patch (``patched_cow``).  Given
    #: as a dict, kept as sorted ``(name, value)`` pairs without the
    #: values equal to the constructor's defaults, so a default setting
    #: is the plain spec.  Page-level scenarios only; ``canonical()``
    #: emits the field only when non-empty.
    approach_params: tuple = ()

    def __post_init__(self) -> None:
        if isinstance(self.function, str):
            object.__setattr__(self, "function",
                               profile_by_name(self.function))
        if not isinstance(self.function, FunctionProfile):
            raise TypeError(f"function must be a FunctionProfile or name, "
                            f"got {type(self.function).__name__}")
        if not isinstance(self.approach, str):
            raise TypeError("approach must be a registry name (str); "
                            "factories cannot be hashed or serialized")
        if self.device_kind not in _DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.device_kind!r}")
        if self.n_instances < 1:
            raise ValueError(f"n_instances must be >= 1, "
                             f"got {self.n_instances}")
        if self.costs is not None and not isinstance(self.costs, CostModel):
            raise TypeError("costs must be a CostModel or None")
        if self.ram_bytes is not None:
            if not isinstance(self.ram_bytes, int) or self.ram_bytes <= 0:
                raise ValueError(f"ram_bytes must be a positive int or "
                                 f"None, got {self.ram_bytes!r}")
        if self.evict_policy is not None:
            from repro.core.policies import POLICIES
            if self.evict_policy not in POLICIES:
                raise ValueError(
                    f"unknown eviction policy {self.evict_policy!r}; "
                    f"choose from {', '.join(sorted(POLICIES))}")
        if isinstance(self.cluster, dict):
            object.__setattr__(self, "cluster",
                               ClusterSpec.from_dict(self.cluster))
        if self.cluster is not None:
            if not isinstance(self.cluster, ClusterSpec):
                raise TypeError(f"cluster must be a ClusterSpec or None, "
                                f"got {type(self.cluster).__name__}")
            if self.n_instances != 1:
                raise ValueError(
                    "cluster scenarios drive concurrency through the "
                    "arrival stream; n_instances must stay 1")
        if isinstance(self.snapstore, dict):
            object.__setattr__(self, "snapstore",
                               SnapStoreSpec.from_dict(self.snapstore))
        if self.snapstore is not None and not isinstance(
                self.snapstore, SnapStoreSpec):
            raise TypeError(f"snapstore must be a SnapStoreSpec or None, "
                            f"got {type(self.snapstore).__name__}")
        if self.chaos is not None:
            if not isinstance(self.chaos, ChaosSpec):
                raise TypeError(f"chaos must be a ChaosSpec or None, "
                                f"got {type(self.chaos).__name__}")
            unsupported = [name for name, is_set in (
                ("cluster", self.cluster is not None),
                ("snapstore", self.snapstore is not None),
                ("evict_policy", self.evict_policy is not None),
                ("vary_inputs", self.vary_inputs),
                ("n_instances > 1", self.n_instances > 1)) if is_set]
            if unsupported:
                raise ValueError(f"chaos scenarios serve one request at a "
                                 f"time on one node; unsupported: "
                                 f"{', '.join(unsupported)}")
        object.__setattr__(self, "approach_params", _approach_params(
            self.approach, self.approach_params))
        if self.approach_params and (self.cluster is not None
                                     or self.chaos is not None):
            raise ValueError("approach_params apply to page-level "
                             "scenarios; cluster and chaos runs build "
                             "their approaches by name")

    # -- identity ------------------------------------------------------------
    @property
    def function_name(self) -> str:
        return self.function.name

    def canonical(self) -> dict:
        """JSON-serializable dict with every outcome-determining field."""
        data = {
            "function": asdict(self.function),
            "approach": self.approach,
            "n_instances": self.n_instances,
            "input_seed": self.input_seed,
            "vary_inputs": self.vary_inputs,
            "device_kind": self.device_kind,
            "costs": asdict(self.costs) if self.costs is not None else None,
            "ram_bytes": self.ram_bytes,
            "evict_policy": self.evict_policy,
            "cluster": (self.cluster.canonical()
                        if self.cluster is not None else None),
            "snapstore": (self.snapstore.canonical()
                          if self.snapstore is not None else None),
        }
        if self.chaos is not None:
            data["chaos"] = self.chaos.canonical()
        if self.approach_params:
            data["approach_params"] = dict(self.approach_params)
        return data

    def stable_hash(self) -> str:
        """Content address: stable across processes and sessions."""
        return stable_hash({"schema": SCHEMA_VERSION,
                            "spec": self.canonical()})

    def seed_material(self) -> int:
        """Deterministic per-spec seed for worker-process RNG hygiene."""
        return int(self.stable_hash()[:16], 16)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        costs = data.get("costs")
        return cls(
            function=FunctionProfile(**data["function"]),
            approach=data["approach"],
            n_instances=data["n_instances"],
            input_seed=data["input_seed"],
            vary_inputs=data["vary_inputs"],
            device_kind=data["device_kind"],
            costs=CostModel(**costs) if costs is not None else None,
            ram_bytes=data.get("ram_bytes"),
            evict_policy=data.get("evict_policy"),
            cluster=(ClusterSpec.from_dict(data["cluster"])
                     if data.get("cluster") is not None else None),
            snapstore=(SnapStoreSpec.from_dict(data["snapstore"])
                       if data.get("snapstore") is not None else None),
            chaos=(ChaosSpec.from_dict(data["chaos"])
                   if data.get("chaos") is not None else None),
            approach_params=data.get("approach_params", ()),
        )

    def __str__(self) -> str:  # pragma: no cover - display helper
        extras = []
        if self.vary_inputs:
            extras.append("vary-inputs")
        if self.costs is not None:
            extras.append("custom-costs")
        if self.ram_bytes is not None:
            extras.append(f"ram={self.ram_bytes // (1 << 20)}MiB")
        if self.evict_policy is not None:
            extras.append(f"policy={self.evict_policy}")
        if self.cluster is not None:
            extras.append(f"cluster={self.cluster.policy}"
                          f"x{self.cluster.n_nodes}")
        if self.snapstore is not None:
            extras.append(f"snapstore={self.snapstore.placement}")
        if self.chaos is not None:
            extras.append(f"chaos-seed={self.chaos.fault_seed}")
        extras += [f"{name}={value}" for name, value in self.approach_params]
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (f"{self.function_name}/{self.approach} "
                f"x{self.n_instances} [{self.device_kind}]{suffix}")
