"""``serving_fabric``: multi-process gateway vs single-process serving.

The same compute-heavy engine (exact digital GeMM plus a blocking
per-column service time, the modulator-occupancy analogue) is served two
ways at a saturating open-loop offered load:

* ``single_process`` — one asyncio :class:`InferenceServer` with
  ``n_workers`` replicas in one interpreter; engine calls execute inline
  on the event loop, so service times serialize.
* ``fabric`` — a :class:`FabricGateway` over ``n_workers`` spawned worker
  processes; service times overlap across processes.

Before the timed runs, a request-by-request pass proves the fabric's
answers are bitwise-identical to the in-process server's.  The fabric
must then beat single-process throughput by the floor for its worker
count with no worse p99, serving every request on every worker.
"""

import asyncio

import numpy as np

from benchmarks.sections import retry
from repro.serving import (
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    make_column_workload,
    make_worker_specs,
    poisson_arrival_times,
    run_open_loop,
)
from repro.serving.fabric.engines import ComputeHeavyBackend
from repro.utils.rng import ensure_rng

SHAPE = (16, 16)
MAX_BATCH = 8
#: required fabric-vs-single-process throughput ratio (strictly above), by
#: worker count
SPEEDUP_FLOORS = {2: 1.3, 4: 2.0}


def collect(quick: bool = False) -> dict:
    """Equivalence pass, then one saturated run per serving path."""
    n_workers = 2 if quick else 4
    service_s = 0.003 if quick else 0.004
    n_requests = 60 if quick else 240
    n_pinned = 12 if quick else 16
    spin_iters = 0 if quick else 50
    queue_depth = 4 * n_requests
    # single-process capacity is one engine's service rate (calls execute
    # inline on the event loop regardless of replica count); offer several
    # times that so both servers run at saturation
    offered_hz = (4.0 if quick else 6.0) / service_s
    weights = ensure_rng(0).normal(size=SHAPE)
    engine_kwargs = {
        "weights": weights,
        "service_s_per_column": service_s,
        "spin_iters": spin_iters,
    }

    def make_replicas():
        return [
            Replica(
                f"w{index}",
                GemmEngine(
                    backend=ComputeHeavyBackend(
                        spin_iters=spin_iters, service_s_per_column=service_s
                    ),
                    weights=weights,
                    name=f"w{index}",
                ),
                max_batch=MAX_BATCH,
                max_queue_depth=queue_depth,
            )
            for index in range(n_workers)
        ]

    def make_gateway():
        specs = make_worker_specs(
            n_workers,
            "repro.serving.fabric.engines:make_compute_heavy_engine",
            engine_kwargs=engine_kwargs,
            max_batch=MAX_BATCH,
            max_queue_depth=queue_depth,
        )
        return FabricGateway(specs, max_pending=queue_depth)

    def make_server():
        return InferenceServer(make_replicas())

    async def pinned_outputs(make):
        workload = make_column_workload(SHAPE[1], n_pinned, rng=3)
        async with make() as server:
            return [
                await server.submit(workload(index), replica=f"w{index % n_workers}")
                for index in range(n_pinned)
            ]

    async def saturate(make):
        async with make() as server:
            trace = poisson_arrival_times(offered_hz, n_requests, rng=1)
            workload = make_column_workload(SHAPE[1], n_requests, rng=2)
            report = await run_open_loop(
                server, trace, workload, offered_rate_hz=offered_hz
            )
        telemetry = report.telemetry
        return {
            "offered_hz": report.offered_rate_hz,
            "achieved_hz": report.achieved_hz,
            "completed": report.completed,
            "rejected": report.rejected,
            "p50_ms": telemetry["latency"]["p50_ms"],
            "p99_ms": telemetry["latency"]["p99_ms"],
            "per_worker_completed": {
                name: stats["completed"] for name, stats in telemetry["replicas"].items()
            },
        }

    expected = asyncio.run(pinned_outputs(make_server))
    actual = asyncio.run(pinned_outputs(make_gateway))
    config = {
        "shape": list(SHAPE),
        "n_workers": n_workers,
        "n_requests": n_requests,
        "service_s_per_column": service_s,
        "max_batch": MAX_BATCH,
        "offered_hz": offered_hz,
        "bitwise_identical": all(
            np.array_equal(got, want) for got, want in zip(actual, expected)
        ),
    }

    def measure():
        single = asyncio.run(saturate(make_server))
        fabric = asyncio.run(saturate(make_gateway))
        return {
            **config,
            "single_process": single,
            "fabric": fabric,
            "saturated_speedup_fabric_vs_single_process": (
                fabric["achieved_hz"] / single["achieved_hz"]
                if single["achieved_hz"] > 0
                else 0.0
            ),
        }

    return retry(measure, check_beats_single_process, attempts=2)


def check_bitwise_equivalence(result: dict) -> None:
    assert result["bitwise_identical"], "fabric results diverged from in-process serving"


def check_beats_single_process(result: dict) -> None:
    single, fabric = result["single_process"], result["fabric"]
    # a throughput win bought with dropped work would be meaningless
    for label, side in (("single-process", single), ("fabric", fabric)):
        assert side["completed"] == result["n_requests"], f"{label} run dropped work"
        assert side["rejected"] == 0, f"{label} run rejected work"
    # every worker really served across the process boundary
    assert len(fabric["per_worker_completed"]) == result["n_workers"]
    assert all(count > 0 for count in fabric["per_worker_completed"].values())
    speedup = result["saturated_speedup_fabric_vs_single_process"]
    floor = SPEEDUP_FLOORS[result["n_workers"]]
    assert speedup > floor, (
        f"fabric achieved {speedup:.2f}x single-process at saturation "
        f"(required > {floor}x)"
    )
    assert fabric["p99_ms"] <= single["p99_ms"], (
        f"fabric p99 {fabric['p99_ms']:.1f} ms regressed past single-process "
        f"{single['p99_ms']:.1f} ms"
    )


def check(result: dict) -> None:
    """Bitwise parity, then a real multi-process win at saturation."""
    check_bitwise_equivalence(result)
    check_beats_single_process(result)
