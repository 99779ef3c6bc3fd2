"""FaaS platform layer: a multi-function serverless node.

The paper evaluates one function at a time; a provider host runs many.
This package composes the reproduction into a node-level simulation:
per-function snapshots and prefetching state, Poisson request arrivals
across a function mix, and optional warm-sandbox pooling (cold starts
only happen when the pool is empty — the industry keep-alive policy).
It exists to answer the adoption question the paper motivates: what do
SnapBPF's latency and dedup wins do to *tail* cold-start latency and
node memory (its peak) under realistic traffic?
"""

from repro.platform.node import FaaSNode, RequestResult
from repro.platform.workload import Arrival, poisson_arrivals

__all__ = [
    "Arrival",
    "FaaSNode",
    "RequestResult",
    "poisson_arrivals",
]
