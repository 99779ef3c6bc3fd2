"""Cluster plane: a fleet of FaaS nodes behind a routing gateway.

Eager exports stay dependency-light (spec + routing only) because
``repro.harness.spec`` imports :class:`ClusterSpec` at module load; the
gateway/autoscaler/runner — which pull in the platform and metrics
stacks — load lazily on first attribute access.
"""

from repro.cluster.routing import (
    ROUTING_POLICIES,
    RoutingError,
    RoutingPolicy,
    make_routing_policy,
)
from repro.cluster.spec import ClusterSpec

__all__ = [
    "ClusterAutoscaler",
    "ClusterReport",
    "ClusterSpec",
    "Gateway",
    "ROUTING_POLICIES",
    "RoutingError",
    "RoutingPolicy",
    "cluster_profiles",
    "make_routing_policy",
    "run_cluster",
    "run_cluster_scenario",
]

_LAZY = {
    "ClusterAutoscaler": "repro.cluster.autoscaler",
    "ClusterReport": "repro.cluster.runner",
    "Gateway": "repro.cluster.gateway",
    "cluster_profiles": "repro.cluster.runner",
    "run_cluster": "repro.cluster.runner",
    "run_cluster_scenario": "repro.cluster.runner",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
