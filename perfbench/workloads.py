"""The benchmark's workloads, built only from repro's public spec API.

Each builder takes the workload seed and returns ``[(label, spec)]`` in
run order.  The seed is every input the simulator samples:
``ScenarioSpec.input_seed`` (the function's access trace and the
cluster arrival stream) and ``TrafficSpec.seed`` (function catalogue,
popularity, tenants and bursts).  Why each workload exists, and which
layers it loads, is in README.md.
"""

from __future__ import annotations

from dataclasses import replace

from repro import ScenarioSpec, profile_by_name
from repro.harness.figures import (STORAGE_TIERS, pressure_ram_bytes,
                                   storage_cell_spec, storage_cluster_kwargs,
                                   traffic_cell_spec)
from repro.workloads.traffic import TrafficSpec

#: The seed runs use unless told otherwise; the committed figures
#: (results/*.txt) were produced with it.
DEFAULT_SEED = 0


def restore_sweep(seed: int) -> list[tuple[str, ScenarioSpec]]:
    """Fig. 3a/4 single-instance cells plus Fig. 3b/3c ten-instance
    cells on json: the page-level restore data path."""
    cells = [(f"{function}/{approach} x1",
              ScenarioSpec(function, approach, input_seed=seed))
             for function in ("json", "html", "matmul")
             for approach in ("linux-ra", "pv-ptes", "reap", "faasnap",
                              "snapbpf")]
    cells += [(f"json/{approach} x10",
               ScenarioSpec("json", approach, n_instances=10,
                            input_seed=seed))
              for approach in ("linux-nora", "linux-ra", "reap", "snapbpf")]
    return cells


def pressure_remote(seed: int) -> list[tuple[str, ScenarioSpec]]:
    """Reclaim under a squeezed frame pool, and chunk staging from the
    remote and HDD tiers of the snapshot store.

    The pressure cells keep the default seed: ``pressure_ram_bytes``
    sizes the pool for the profile, and the default trace is the one
    the memory figure uses.  Other traces overflow that pool (seed 13
    dies of OutOfMemory) or thrash in reclaim (seed 11 runs three times
    longer), so their digests are pinned for every seed instead."""
    json_ = profile_by_name("json")
    approaches = ("linux-ra", "reap", "snapbpf")
    cells = [(f"json/{approach} x10 pressure",
              ScenarioSpec(json_, approach, n_instances=10,
                           ram_bytes=pressure_ram_bytes(json_, approach, 10,
                                                        0.25)))
             for approach in approaches]
    cells += [(f"json/{approach} x4 remote",
               ScenarioSpec(json_, approach, n_instances=4, input_seed=seed,
                            snapstore=STORAGE_TIERS["remote"]))
              for approach in approaches]
    cells.append(("json/snapbpf x4 tiered",
                  ScenarioSpec(json_, "snapbpf", n_instances=4,
                               input_seed=seed,
                               snapstore=STORAGE_TIERS["tiered"])))
    return cells


def fleet_traffic(seed: int) -> list[tuple[str, ScenarioSpec]]:
    """Production-shaped load through gateway, routing, keep-alive and
    autoscaler, plus one page-level cluster cell.

    The page-level cell keeps the default seed: it serves about six
    Poisson arrivals, so a new seed changes its work up to sixfold and
    would swamp the host-time signal.  Its digest is pinned for every
    seed as a result."""
    json_ = profile_by_name("json")
    traffic = TrafficSpec(n_functions=2000, n_tenants=8, total_rps=1000.0,
                          duration=30.0, diurnal_period=20.0, n_bursts=4,
                          burst_multiplier=3.0, burst_duration=3.0,
                          seed=seed)
    fleet = dict(policy="snapshot-locality", n_nodes=8, autoscale=True,
                 min_nodes=4, max_nodes=24)
    cells = [(f"traffic {approach}+{keepalive}",
              replace(traffic_cell_spec(json_, approach, keepalive,
                                        traffic=traffic, **fleet),
                      input_seed=seed))
             for approach, keepalive in (("snapbpf", "histogram"),
                                         ("reap", "fixed"))]
    cells.append(("storage linux-ra remote random",
                  storage_cell_spec(json_, "linux-ra", "remote", "random",
                                    **storage_cluster_kwargs(True))))
    return cells


WORKLOADS = {
    "restore-sweep": restore_sweep,
    "pressure-remote": pressure_remote,
    "fleet-traffic": fleet_traffic,
}
