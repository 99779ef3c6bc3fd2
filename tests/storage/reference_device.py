"""The process-served block device, kept as a test-only reference.

Block requests used to be served by a generator run as one DES
:class:`~repro.sim.Process` per request.  :class:`BlockDevice` now
serves them with stage callbacks and no process; this module keeps the
generator so ``test_service_equivalence.py`` can drive both with the
same inputs and require the same simulation, event for event.
"""

from repro.storage.device import READ, BlockIOError, IORequest
from repro.storage.hdd import HDDevice
from repro.storage.remote import RemoteObjectStore
from repro.storage.ssd import SSDevice


class ProcessServed:
    """Mixin for a :class:`BlockDevice` subclass: serve each request in
    its own DES process, as the device did before stage callbacks."""

    def _serve(self, request: IORequest):
        return self.env.process(self._serve_process(request),
                                name=f"{self.name}-io")

    def _serve_process(self, request: IORequest):
        env = self.env
        start = env.now
        decision = (self.fault_injector.on_request(request)
                    if self.fault_injector is not None else None)
        multiplier = decision.multiplier if decision is not None else 1.0
        slot = self._slots.request(priority=request.prio)
        yield slot
        try:
            ctrl = self._controller.request(priority=request.prio)
            yield ctrl
            try:
                sequential = self._last_end == request.offset
                self._last_end = request.end
                yield env.timeout(self.controller_time(request) * multiplier)
            finally:
                self._controller.release(ctrl)
            yield env.timeout(
                self.media_time(request, sequential) * multiplier)
        finally:
            self._slots.release(slot)
        request.complete_time = env.now
        duration = request.complete_time - start
        failed = decision is not None and decision.error is not None
        self._trace_request(request, start, sequential, failed)
        self._m_busy_time.inc(duration)
        self._m_latency.observe(duration)
        if failed:
            transient = decision.error != "persistent"
            self._m_errors.inc()
            (self._m_transient_errors if transient
             else self._m_persistent_errors).inc()
            raise BlockIOError(request, transient=transient)
        self._m_requests.inc()
        if sequential:
            self._m_sequential.inc()
        if request.op == READ:
            self._m_read_requests.inc()
            self._m_bytes_read.inc(request.nbytes)
        else:
            self._m_write_requests.inc()
            self._m_bytes_written.inc(request.nbytes)
        return request


class ReferenceSSDevice(ProcessServed, SSDevice):
    pass


class ReferenceHDDevice(ProcessServed, HDDevice):
    pass


class ReferenceRemoteObjectStore(ProcessServed, RemoteObjectStore):
    pass


#: Each device class the simulator ships, mapped to its reference twin.
REFERENCE = {
    SSDevice: ReferenceSSDevice,
    HDDevice: ReferenceHDDevice,
    RemoteObjectStore: ReferenceRemoteObjectStore,
}
