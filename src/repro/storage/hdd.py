"""Spindle hard-disk model for the sequential-I/O ablation (§3.1).

SnapBPF's key insight is that modern SSDs "relax the need for sequential
I/O"; this 7200 rpm HDD model exists to show the counterfactual — with a
mechanical actuator, prefetching a scattered working set directly from
the snapshot file costs a seek per discontiguity, and the baselines'
serialized (contiguous) working-set files win decisively.  The ablation
figure ``fig device`` (A1) runs both.
"""

from __future__ import annotations

from repro.sim import Environment
from repro.storage.device import BlockDevice, IORequest
from repro.units import GIB, MIB, MSEC, USEC


class HDDevice(BlockDevice):
    """7200 rpm SATA HDD: seek + rotational latency on non-sequential I/O.

    The actuator is a single mechanical resource, so the media stage must
    not overlap: ``queue_depth`` is forced to 1 (NCQ reordering is beyond
    the fidelity this ablation needs — it would soften but not remove the
    random-I/O penalty).
    """

    def __init__(self, env: Environment,
                 capacity_bytes: int = 1000 * GIB,
                 transfer_bandwidth: float = 160 * MIB,
                 avg_seek_time: float = 8 * MSEC,
                 rpm: int = 7200,
                 command_overhead: float = 20 * USEC,
                 name: str = "hdd0",
                 registry=None):
        super().__init__(env, capacity_bytes, queue_depth=1, name=name,
                         registry=registry)
        self.transfer_bandwidth = transfer_bandwidth
        self.avg_seek_time = avg_seek_time
        # Average rotational latency = half a revolution.
        self.avg_rotational_latency = 0.5 * 60.0 / rpm
        self.command_overhead = command_overhead

    def controller_time(self, request: IORequest) -> float:
        return self.command_overhead

    def media_time(self, request: IORequest, sequential: bool) -> float:
        transfer = request.nbytes / self.transfer_bandwidth
        if sequential:
            return transfer
        return self.avg_seek_time + self.avg_rotational_latency + transfer
