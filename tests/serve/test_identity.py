"""The serve plane is observation-only: attaching a hub changes nothing.

Same contract the tracer is held to — results, fingerprints, and store
bytes are byte-identical with telemetry on and off, and the publication
hooks actually publish when a hub is attached.
"""

import json

from repro.cluster import ClusterSpec
from repro.cluster.runner import run_cluster
from repro.cluster.traffic import run_traffic
from repro.faults import ChaosSpec
from repro.harness.experiment import ResultCache
from repro.harness.spec import ScenarioSpec
from repro.harness.sweep import SweepRunner
from repro.serve import TelemetryHub
from repro.snapstore.spec import SnapStoreSpec
from repro.units import MIB
from repro.workloads.profile import FunctionProfile, profile_by_name
from repro.workloads.traffic import TrafficSpec


def tiny_profile(name="tiny", seed=31):
    return FunctionProfile(name=name, mem_bytes=48 * MIB, ws_bytes=4 * MIB,
                           alloc_bytes=2 * MIB, compute_seconds=0.02,
                           run_len_mean=8.0, seed=seed)


def scenario_spec(approach="snapbpf"):
    return ScenarioSpec(function=tiny_profile(), approach=approach,
                        n_instances=2)


def cluster_spec(snapstore=None):
    return ScenarioSpec(
        function=tiny_profile(), approach="snapbpf", snapstore=snapstore,
        cluster=ClusterSpec(n_nodes=2, n_functions=2,
                            rate_per_function=2.0, duration=2.0,
                            warm_pool_ttl=1.0))


def traffic_spec():
    return ScenarioSpec(
        function=profile_by_name("json"), approach="snapbpf",
        cluster=ClusterSpec(
            n_nodes=2, keepalive="histogram",
            traffic=TrafficSpec(n_functions=20, n_tenants=2,
                                total_rps=10.0, duration=4.0, n_bursts=1,
                                shapes=("json",), seed=5)))


def result_bytes(result) -> bytes:
    return json.dumps(result.to_dict(), sort_keys=True).encode()


class TestIdentity:
    def test_sweep_results_identical_with_and_without_hub(self):
        spec = scenario_spec()
        plain = SweepRunner(ResultCache()).run([spec])[spec]
        hub = TelemetryHub(wall_interval=0.0)
        observed = SweepRunner(ResultCache(),
                               telemetry=hub).run([spec])[spec]
        assert result_bytes(plain) == result_bytes(observed)
        assert hub.version > 0  # ...and the hub really was publishing

    def test_cluster_fingerprint_identical_with_and_without_hub(self):
        # The cluster path wires the hub into the DES engine's per-event
        # hook — the strongest identity surface.
        plain = run_cluster(cluster_spec())
        hub = TelemetryHub(sim_interval=0.05, wall_interval=0.0)
        observed = run_cluster(cluster_spec(), telemetry=hub)
        assert plain.fingerprint() == observed.fingerprint()
        assert hub.version > 0
        assert hub.state()["fleet"]["nodes"]  # topology was published

    def test_traffic_fingerprint_identical_with_and_without_hub(self):
        plain = run_traffic(traffic_spec())
        hub = TelemetryHub(sim_interval=0.05, wall_interval=0.0)
        observed = run_traffic(traffic_spec(), telemetry=hub)
        assert plain.fingerprint() == observed.fingerprint()
        state = hub.state()
        assert len(state["fleet"]["nodes"]) == 2
        assert state["throughput"]["tenants"] == {"0": 13.0, "1": 86.0}

    def test_snapstore_cluster_fingerprint_identical_with_and_without_hub(
            self):
        spec = cluster_spec(snapstore=SnapStoreSpec(placement="base-local"))
        plain = run_cluster(spec)
        hub = TelemetryHub(sim_interval=0.05, wall_interval=0.0)
        observed = run_cluster(spec, telemetry=hub)
        assert plain.fingerprint() == observed.fingerprint()
        snapstore = hub.state()["snapstore"]
        assert len(snapstore["nodes"]) == 2  # one entry per node
        assert round(snapstore["dedup_factor"], 2) == 3.62

    def test_chaos_fingerprints_identical_with_and_without_hub(self):
        specs = [ScenarioSpec(function=tiny_profile(), approach=approach,
                              chaos=ChaosSpec())
                 for approach in ("reap", "snapbpf")]
        plain = SweepRunner(ResultCache()).run(specs)
        hub = TelemetryHub(wall_interval=0.0)
        observed = SweepRunner(ResultCache(), telemetry=hub).run(specs)
        assert ([result_bytes(plain[s]) for s in specs]
                == [result_bytes(observed[s]) for s in specs])
        assert hub.state()["sweep"]["done"] is True

    def test_store_bytes_identical_with_and_without_hub(self, tmp_path):
        from repro.harness.sweep import ResultStore
        spec = scenario_spec()
        plain_store = ResultStore(tmp_path / "plain")
        SweepRunner(ResultCache(store=plain_store)).run([spec])
        hub_store = ResultStore(tmp_path / "hub")
        SweepRunner(ResultCache(store=hub_store),
                    telemetry=TelemetryHub(wall_interval=0.0)).run([spec])
        key = spec.stable_hash()
        assert (plain_store.path(key).read_bytes()
                == hub_store.path(key).read_bytes())


class TestSweepPublication:
    def test_runner_publishes_progress_and_completion(self):
        hub = TelemetryHub(wall_interval=0.0)
        cache = ResultCache()
        hub.attach_registry(cache.metrics)
        specs = [scenario_spec("reap"), scenario_spec("snapbpf")]
        versions = []
        runner = SweepRunner(cache, telemetry=hub)
        runner.run(specs, on_result=lambda s, r:
                   versions.append(hub.version))
        sweep = hub.state()["sweep"]
        assert sweep["unique"] == 2
        assert sweep["executed"] == 2
        assert sweep["remaining"] == 0
        assert sweep["done"] is True
        assert sweep["quarantined"] == 0
        # Versions advanced strictly during the run (live SSE feed).
        assert versions == sorted(versions) and len(set(versions)) == 2
        # The cache registry rode along into the snapshot.
        assert hub.state()["metrics"]["sweep_runs_total"] == 1

    def test_warm_rerun_reports_hits_not_execution(self):
        hub = TelemetryHub(wall_interval=0.0)
        cache = ResultCache()
        runner = SweepRunner(cache, telemetry=hub)
        spec = scenario_spec()
        runner.run([spec])
        runner.run([spec])  # warm: memory hit
        sweep = hub.state()["sweep"]
        assert sweep["memory_hits"] == 1
        assert sweep["executed"] == 0
        assert sweep["done"] is True
