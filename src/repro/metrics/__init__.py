"""Result types and the unified metrics registry.

The registry is imported eagerly (low-level layers depend on it); the
result types are lazy because :mod:`repro.metrics.results` pulls in the
VMM stack, which itself sits above the layers that import the registry.
"""

from repro.metrics.registry import (
    TEXT_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    escape_help,
    escape_label_value,
    nearest_rank,
)

__all__ = [
    "TEXT_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "ScenarioResult",
    "escape_help",
    "escape_label_value",
    "nearest_rank",
]


def __getattr__(name):
    if name == "ScenarioResult":
        from repro.metrics.results import ScenarioResult
        return ScenarioResult
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
