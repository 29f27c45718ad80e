"""``serving``: offered load vs achieved throughput and latency.

For each replica backend (``ideal-digital`` and ``analog-photonic``) and
each serving mode (``batch1`` = serial batch-size-1 baseline, ``dynamic`` =
micro-batching up to 64), a seeded Poisson arrival trace is replayed
open-loop at 0.5x, 2x and 8x the backend's measured single-request
capacity.  The 8x point saturates the replica: achieved throughput there
is the serving capacity, and ``saturated_speedup_dynamic_vs_batch1`` is
the dynamic-batching win.
"""

import asyncio
import time

import numpy as np

from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    make_column_workload,
    poisson_arrival_times,
    run_open_loop,
)
from repro.utils.rng import ensure_rng

SHAPE = (16, 16)
MAX_BATCH = 64
RATE_MULTIPLIERS = (0.5, 2.0, 8.0)
POINT_KEYS = (
    "offered_hz", "achieved_hz", "p50_ms", "p99_ms", "rejected",
    "max_queue_depth", "mean_queue_depth", "mean_batch",
)


def collect(quick: bool = False) -> dict:
    """The offered-load sweep for both backends and both serving modes."""
    n_requests = 96 if quick else 240
    weights = ensure_rng(0).normal(size=SHAPE)

    def make_engine(backend_name):
        kwargs = {"rng": 0} if backend_name == "analog-photonic" else {}
        return GemmEngine(backend=backend_name, weights=weights, **kwargs)

    async def measure(backend_name, mode, offered_hz):
        engine = make_engine(backend_name)
        engine.compile(None)  # program the mesh outside the timed window
        # greedy coalescing (max_wait_s=0): a batch is whatever has queued
        # behind the in-flight one, so light load stays at serial latency
        # while saturation serves in full fused batches
        replica = Replica(
            "r0",
            engine,
            max_batch=1 if mode == "batch1" else MAX_BATCH,
            max_wait_s=0.0,
            max_queue_depth=4 * MAX_BATCH,
        )
        async with InferenceServer([replica]) as server:
            trace = poisson_arrival_times(offered_hz, n_requests, rng=1)
            workload = make_column_workload(SHAPE[1], n_requests, rng=2)
            report = await run_open_loop(
                server, trace, workload, offered_rate_hz=offered_hz
            )
        assert report.completed == n_requests, f"{backend_name}/{mode} dropped work"
        telemetry = report.telemetry
        return {
            "offered_hz": offered_hz,
            "achieved_hz": report.achieved_hz,
            "p50_ms": telemetry["latency"]["p50_ms"],
            "p99_ms": telemetry["latency"]["p99_ms"],
            "rejected": report.rejected,
            "max_queue_depth": telemetry["queue_depth"]["max"],
            "mean_queue_depth": telemetry["queue_depth"]["mean"],
            "mean_batch": telemetry["replicas"]["r0"]["mean_batch"],
        }

    def serial_capacity_hz(backend_name):
        engine = make_engine(backend_name)
        column = np.zeros((SHAPE[1], 1))
        engine.run_batch(None, column)  # compile outside the timed window
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(10):
                engine.run_batch(None, column)
            best = min(best, (time.perf_counter() - started) / 10)
        return 1.0 / best

    section = {}
    for backend_name in ("ideal-digital", "analog-photonic"):
        capacity = serial_capacity_hz(backend_name)
        modes = {}
        for mode in ("batch1", "dynamic"):
            points = [
                asyncio.run(measure(backend_name, mode, multiplier * capacity))
                for multiplier in RATE_MULTIPLIERS
            ]
            modes[mode] = {key: [point[key] for point in points] for key in POINT_KEYS}
        batch1 = modes["batch1"]["achieved_hz"][-1]
        section[backend_name] = {
            "shape": list(SHAPE),
            "n_requests": n_requests,
            "serial_capacity_hz": capacity,
            "modes": modes,
            "saturated_speedup_dynamic_vs_batch1": (
                modes["dynamic"]["achieved_hz"][-1] / batch1 if batch1 > 0 else None
            ),
        }
    return section


def check(result: dict) -> None:
    """At saturation the analog replica fuses requests and serves faster."""
    analog = result["analog-photonic"]
    modes = analog["modes"]
    # serial serving really did one engine call per request
    assert modes["batch1"]["mean_batch"][-1] == 1.0
    # saturation forces fusion: at most a third as many engine calls as requests
    assert modes["dynamic"]["mean_batch"][-1] >= 3.0, "saturated batches stayed small"
    assert (analog["saturated_speedup_dynamic_vs_batch1"] or 0.0) > 1.5, (
        f"dynamic batching achieved {analog['saturated_speedup_dynamic_vs_batch1']}x "
        "serial at saturation (required > 1.5x)"
    )
