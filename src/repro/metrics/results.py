"""Scenario-level measurement results.

One :class:`ScenarioResult` corresponds to one bar (or bar group) of a
paper figure: a (function, approach, concurrency) triple run on a fresh
simulated host, reporting per-sandbox end-to-end latencies, system-wide
peak memory, and the device/cache counters used by the I/O-amplification
analyses.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import asdict, dataclass, field, fields

from repro.metrics.registry import nearest_rank
from repro.units import GIB

from repro.vmm.microvm import InvocationStats


@dataclass
class ScenarioResult:
    function: str
    approach: str
    n_instances: int
    invocations: list[InvocationStats] = field(default_factory=list)
    #: System-wide peak memory during the concurrent invocations.
    peak_memory_bytes: int = 0
    #: Memory still resident when all invocations completed.
    end_memory_bytes: int = 0
    #: End-of-run residency split by frame kind: private anonymous
    #: (pinned per VM under pressure) vs shared file-backed (reclaimable)
    #: — the decomposition behind the paper's Fig. 3c elasticity claim.
    end_anon_bytes: int = 0
    end_file_bytes: int = 0
    #: Block-device counters over the invocation phase.
    device_requests: int = 0
    device_bytes_read: int = 0
    device_bytes_written: int = 0
    #: Page-cache counters over the invocation phase.
    cache_adds: int = 0
    bpf_hook_seconds: float = 0.0
    #: Offline record-phase duration (not part of E2E).
    prepare_seconds: float = 0.0
    #: Approach-specific extras (WS sizes, inflation ratios, ...).
    extra: dict[str, float] = field(default_factory=dict)
    #: Full registry snapshot of the host at scenario end (device, cache,
    #: fault, and approach counters under one namespace).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Device request-latency percentiles over the invocation phase.
    device_p50_latency: float = 0.0
    device_p95_latency: float = 0.0
    device_p99_latency: float = 0.0

    # -- summaries ----------------------------------------------------------------
    @property
    def e2e_latencies(self) -> list[float]:
        return [inv.e2e_seconds for inv in self.invocations]

    @property
    def mean_e2e(self) -> float:
        """Mean E2E latency; 0.0 for a (failed/empty) run with no
        invocations rather than a crash — harness code tabulates results
        before checking success."""
        latencies = self.e2e_latencies
        return statistics.fmean(latencies) if latencies else 0.0

    @property
    def max_e2e(self) -> float:
        return max(self.e2e_latencies, default=0.0)

    def percentile_e2e(self, p: float) -> float:
        """Nearest-rank p-th percentile of the E2E latencies (0.0 when
        there are no invocations)."""
        values = sorted(self.e2e_latencies)
        if not values:
            return 0.0
        return values[nearest_rank(len(values), p)]

    @property
    def p50_e2e(self) -> float:
        return self.percentile_e2e(50)

    @property
    def p95_e2e(self) -> float:
        return self.percentile_e2e(95)

    @property
    def p99_e2e(self) -> float:
        return self.percentile_e2e(99)

    @property
    def peak_memory_gib(self) -> float:
        return self.peak_memory_bytes / GIB

    # -- serialization ------------------------------------------------------
    # The on-disk sweep store (repro.harness.sweep) depends on this
    # round-trip being *exact*: JSON preserves finite floats via repr, so
    # ``from_json(to_json(r)) == r`` field-for-field, and warm-cache
    # figure tables are byte-identical to cold ones.
    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["invocations"] = [asdict(inv) for inv in self.invocations]
        out["extra"] = dict(self.extra)
        out["metrics"] = dict(self.metrics)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioResult":
        data = dict(data)
        data["invocations"] = [InvocationStats(**inv)
                               for inv in data["invocations"]]
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioResult":
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"{self.function}/{self.approach} x{self.n_instances}: "
                f"mean E2E {self.mean_e2e * 1e3:.1f} ms, "
                f"peak mem {self.peak_memory_gib:.2f} GiB, "
                f"{self.device_requests} I/O reqs")
