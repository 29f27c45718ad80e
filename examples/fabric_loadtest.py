"""Scaling the serving layer across worker processes (the serving fabric).

Serves the same compute-heavy engine two ways — one single-process asyncio
server, then a :class:`FabricGateway` multiplexing the identical trace over
spawned worker processes — and prints the operator's view of what the
process boundary buys at saturation: achieved throughput, p50/p99 latency
and per-worker completion counts.  Each worker's engine and batcher
counters, merged into the gateway's telemetry registry when the worker
shut down, must account for every request the gateway saw finish.  Then
it demonstrates the fabric's
queueing controls (request priorities preempting queued work, per-tenant
admission quotas) and persists the telemetry trajectory through
:class:`TelemetryLog` snapshots.

Run with:  python examples/fabric_loadtest.py
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro.eval import format_table
from repro.serving import (
    BackpressureError,
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    TelemetryLog,
    make_column_workload,
    make_worker_specs,
    poisson_arrival_times,
    run_open_loop,
)
from repro.serving.fabric.engines import ComputeHeavyBackend

SHAPE = (16, 16)
N_WORKERS = 2
SERVICE_S = 0.003  # blocking per-column service time (accelerator occupancy)
N_REQUESTS = 60
OFFERED_HZ = 4.0 / SERVICE_S  # several times one engine's service rate
WEIGHTS = np.random.default_rng(0).normal(size=SHAPE)


def make_single_process_server():
    """One asyncio server, N replicas, one interpreter: calls serialize."""
    replicas = [
        Replica(
            f"w{index}",
            GemmEngine(
                backend=ComputeHeavyBackend(service_s_per_column=SERVICE_S),
                weights=WEIGHTS,
                name=f"w{index}",
            ),
            max_batch=8,
            max_queue_depth=4 * N_REQUESTS,
        )
        for index in range(N_WORKERS)
    ]
    return InferenceServer(replicas)


def make_gateway(**kwargs):
    """The same engines, one per spawned worker process: calls overlap."""
    specs = make_worker_specs(
        N_WORKERS,
        "repro.serving.fabric.engines:make_compute_heavy_engine",
        engine_kwargs={"weights": WEIGHTS, "service_s_per_column": SERVICE_S},
        max_batch=8,
        max_queue_depth=4 * N_REQUESTS,
    )
    return FabricGateway(specs, max_pending=4 * N_REQUESTS, **kwargs)


async def serve_trace(server):
    """Replay the seeded saturating trace; returns (LoadReport, stats)."""
    async with server:
        trace = poisson_arrival_times(OFFERED_HZ, N_REQUESTS, rng=1)
        workload = make_column_workload(SHAPE[1], N_REQUESTS, rng=2)
        report = await run_open_loop(
            server, trace, workload, offered_rate_hz=OFFERED_HZ
        )
    return report, server.stats()


async def priority_demo():
    """A late high-priority request overtakes earlier queued work."""
    order = []
    async with make_gateway(max_inflight=1) as gateway:
        first = gateway.submit_nowait(np.ones(SHAPE[1]), replica="w0")
        first.add_done_callback(lambda _f: order.append("in-flight"))
        batch = gateway.submit_nowait(np.ones(SHAPE[1]), replica="w0", priority=0)
        batch.add_done_callback(lambda _f: order.append("batch (prio 0)"))
        urgent = gateway.submit_nowait(np.ones(SHAPE[1]), replica="w0", priority=5)
        urgent.add_done_callback(lambda _f: order.append("urgent (prio 5)"))
        await asyncio.gather(first, batch, urgent)
    return order


async def quota_demo():
    """One tenant at its quota is rejected while another keeps flowing."""
    events = []
    async with make_gateway(tenant_quotas={"batch-team": 2}) as gateway:
        admitted = [
            gateway.submit_nowait(np.ones(SHAPE[1]), tenant="batch-team")
            for _ in range(2)
        ]
        try:
            gateway.submit_nowait(np.ones(SHAPE[1]), tenant="batch-team")
        except BackpressureError as error:
            events.append(f"batch-team request 3 rejected: {error}")
        interactive = gateway.submit_nowait(np.ones(SHAPE[1]), tenant="interactive")
        events.append("interactive request admitted alongside")
        await asyncio.gather(*admitted, interactive)
        await gateway.submit(np.ones(SHAPE[1]), tenant="batch-team")
        events.append("batch-team flows again once its work completed")
    return events


def main() -> None:
    # --- single process vs fabric at the same saturating offered load ----
    single_report, single_stats = asyncio.run(serve_trace(make_single_process_server()))
    gateway = make_gateway()
    fabric_report, fabric_stats = asyncio.run(serve_trace(gateway))
    rows = []
    for label, report, stats in (
        ("single-process", single_report, single_stats),
        (f"fabric ({N_WORKERS} workers)", fabric_report, fabric_stats),
    ):
        rows.append(
            [
                label,
                report.completed,
                round(report.achieved_hz, 0),
                round(stats["latency"]["p50_ms"], 1),
                round(stats["latency"]["p99_ms"], 1),
                " ".join(
                    f"{name}:{entry['completed']}"
                    for name, entry in sorted(stats["replicas"].items())
                ),
            ]
        )
    print(f"offered load {OFFERED_HZ:.0f} req/s, {N_REQUESTS} requests:")
    print(format_table(
        ["serving", "done", "achieved/s", "p50 ms", "p99 ms", "per-worker"], rows
    ))
    speedup = fabric_report.achieved_hz / single_report.achieved_hz
    print(f"fabric speedup at saturation: {speedup:.2f}x\n")

    # --- worker counters, merged into the gateway's registry at shutdown --
    metrics = gateway.telemetry.metrics
    rows, worker_outcomes = [], 0
    for name in sorted(fabric_stats["replicas"]):

        def counter(path, name=name):
            return int(metrics.counter(f"worker.{name}.{path}").value)

        outcomes = [
            counter(f"batcher.{outcome}")
            for outcome in ("requests", "expired", "cancelled", "failed")
        ]
        worker_outcomes += sum(outcomes)
        rows.append([name, *outcomes, counter("batcher.batches"),
                     counter("engine.columns")])
    print("worker counters (merged at the gateway):")
    print(format_table(
        ["worker", "served", "expired", "cancelled", "failed", "batches", "columns"],
        rows,
    ))
    gateway_outcomes = fabric_stats["completed"] + fabric_stats["expired"] + sum(
        entry["failed"] for entry in fabric_stats["replicas"].values()
    )
    # every request the gateway saw finish was counted by exactly one worker
    assert worker_outcomes == gateway_outcomes == N_REQUESTS, (
        worker_outcomes, gateway_outcomes,
    )
    print()

    # --- request priorities preempt queued (never in-flight) work ---------
    order = asyncio.run(priority_demo())
    print("priority demo completion order:", " -> ".join(order))

    # --- per-tenant admission quotas --------------------------------------
    for line in asyncio.run(quota_demo()):
        print(f"quota demo: {line}")

    # --- telemetry snapshots persist as a queryable trajectory ------------
    with tempfile.TemporaryDirectory() as tmp:
        log = TelemetryLog(Path(tmp) / "fabric_telemetry.jsonl")
        log.append({**fabric_stats, "label": "fabric"})
        log.append({**single_stats, "label": "single-process"})
        snapshots = log.read()
        print(f"\ntelemetry log: {len(snapshots)} snapshots round-tripped")
        for snapshot in snapshots:
            print(
                f"  {snapshot['label']}: completed={snapshot['completed']} "
                f"p99={snapshot['latency']['p99_ms']:.1f} ms"
            )


if __name__ == "__main__":
    main()
