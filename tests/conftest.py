"""Shared fixtures: a fresh DES environment, a host kernel, small
function profiles sized so full scenarios run in milliseconds."""

from __future__ import annotations

import contextlib
import gc
from collections import Counter

import pytest

from repro.harness.experiment import make_kernel
from repro.mm.kernel import Kernel
from repro.sim import Environment
from repro.units import MIB
from repro.workloads.profile import FunctionProfile

# Importing repro registers every approach.
import repro  # noqa: F401


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def kernel() -> Kernel:
    return make_kernel("ssd")


@pytest.fixture
def tiny_profile() -> FunctionProfile:
    """A small function: 64 MiB VM, 6 MiB WS, 3 MiB ephemeral allocs."""
    return FunctionProfile(
        name="tiny", mem_bytes=64 * MIB, ws_bytes=6 * MIB,
        alloc_bytes=3 * MIB, compute_seconds=0.02, write_frac=0.15,
        run_len_mean=8.0, seed=42)


@pytest.fixture
def alloc_heavy_profile() -> FunctionProfile:
    """Allocation-dominated function (an 'image'-like shape)."""
    return FunctionProfile(
        name="tiny-alloc", mem_bytes=96 * MIB, ws_bytes=4 * MIB,
        alloc_bytes=24 * MIB, compute_seconds=0.02, write_frac=0.1,
        run_len_mean=8.0, free_span_pages=12.0, seed=43)


def drive(env: Environment, generator, name: str = "test"):
    """Run a kernel-path generator to completion; returns its value."""
    process = env.process(generator, name=name)
    env.run(process)
    return process.value


@contextlib.contextmanager
def collector_paused():
    """Run the block from a collected heap with the cyclic collector
    paused, as a sweep cell runs; restore the collector afterwards."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage() -> Counter:
    """Collect, and count by type what only the collector could free."""
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.garbage.clear()
        gc.set_debug(debug)
        gc.collect()  # free what was saved
