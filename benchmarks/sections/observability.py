"""``observability``: tracing overhead, bitwise parity, drift detection.

* Overhead — the same compute-heavy engine (service-time dominated, so
  the μs-scale cost of span bookkeeping is measured against a realistic
  request cost) is driven closed-loop untraced and then with a live
  :class:`~repro.obs.trace.Tracer` on the server (its telemetry registry
  counts in both runs); tracing must cost at most 5% of throughput.
* Parity — a seeded SoC-engine run serves bitwise-identical outputs and
  identical cycle accounting with tracing on or off, and the traced run
  exports a valid Chrome trace holding the full span hierarchy
  (request -> batch -> engine -> soc:offload -> pipeline phases).
* Drift — a cost model calibrated on a 2-PE cluster predicts a 2-PE
  engine without a flag, and its one prediction for a serial 1-PE
  cluster is flagged as an underestimate.
"""

import asyncio

import numpy as np

from benchmarks.sections import cluster, retry
from repro.compiler import SoCCostModel
from repro.obs import (
    DriftMonitor,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)
from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    SoCGemmEngine,
    run_closed_loop,
)
from repro.serving.fabric import ComputeHeavyBackend
from repro.utils.rng import ensure_rng

SHAPE = (12, 12)
SERVICE_S = 0.002
N_CLIENTS = 4
MAX_OVERHEAD = 0.05
SPAN_HIERARCHY = {"request", "batch", "engine", "soc:offload", "soc:compute"}


def measure_throughput(tracer, requests_per_client) -> float:
    """Closed-loop saturation throughput of one compute-heavy replica."""
    weights = ensure_rng(0).normal(size=SHAPE)
    workload = ensure_rng(1).normal(size=(64, SHAPE[1]))

    async def drive():
        engine = GemmEngine(
            backend=ComputeHeavyBackend(service_s_per_column=SERVICE_S), weights=weights
        )
        engine.compile(None)
        server = InferenceServer(
            [Replica("r0", engine, max_batch=8, max_queue_depth=64)],
            tracer=tracer,
        )
        async with server:
            report = await run_closed_loop(
                server, N_CLIENTS, requests_per_client,
                lambda index: workload[index % len(workload)],
            )
        return report.achieved_hz

    return asyncio.run(drive())


def serve_soc(tracer):
    """Serve a fixed workload through a SoC engine; outputs + cycles back."""

    async def drive():
        engine = SoCGemmEngine(cluster(1), weights=ensure_rng(2).integers(-5, 6, size=(8, 6)))
        columns = ensure_rng(3).integers(-5, 6, size=(12, 6)).astype(float)
        async with InferenceServer([Replica("r0", engine)], tracer=tracer) as server:
            outputs = await asyncio.gather(*(server.submit(column) for column in columns))
        return np.stack(outputs), engine.offload_cycles

    return asyncio.run(drive())


def drift_flags(n_pes: int, model: SoCCostModel) -> list:
    """Flags raised by one offload on ``n_pes`` PEs scored against ``model``."""
    monitor = DriftMonitor(threshold=0.10, min_samples=1)
    engine = SoCGemmEngine(
        cluster(n_pes),
        weights=ensure_rng(2).integers(-5, 6, size=(8, 6)),
        cost_model=model,
        drift_monitor=monitor,
    )
    engine.run_batch(None, ensure_rng(3).integers(-5, 6, size=(6, 4)).astype(float))
    return monitor.flags()


def collect(quick: bool = False) -> dict:
    """Traced vs untraced throughput, parity, trace export and drift flags."""
    requests_per_client = 10 if quick else 40
    tracers = []

    def overhead():
        tracers.append(Tracer(process="server"))
        untraced_hz = measure_throughput(None, requests_per_client)
        traced_hz = measure_throughput(tracers[-1], requests_per_client)
        return {
            "untraced_hz": untraced_hz,
            "traced_hz": traced_hz,
            "overhead_frac": 1.0 - traced_hz / untraced_hz if untraced_hz > 0 else 0.0,
        }

    throughput = retry(overhead, check_overhead, attempts=3)

    baseline_outputs, baseline_cycles = serve_soc(None)
    parity_tracer = Tracer(process="server")
    traced_outputs, traced_cycles = serve_soc(parity_tracer)
    spans = parity_tracer.finished
    assert SPAN_HIERARCHY <= {span.name for span in spans}, "trace hierarchy incomplete"
    # spans + metadata records
    assert validate_chrome_trace(chrome_trace(spans)) > len(spans)

    model = SoCCostModel.calibrate(cluster(2))
    assert drift_flags(2, model) == [], "a well-calibrated model was flagged"
    flags = drift_flags(1, model)
    assert all(flag.measured_mean > flag.predicted_mean for flag in flags)

    return {
        "shape": list(SHAPE),
        "n_requests": N_CLIENTS * requests_per_client,
        **throughput,
        "bitwise_parity": bool(
            np.array_equal(baseline_outputs, traced_outputs)
            and baseline_cycles == traced_cycles
        ),
        "trace_events": validate_chrome_trace(chrome_trace(tracers[-1].finished + spans)),
        "drift_flags": len(flags),
    }


def check_overhead(result: dict) -> None:
    assert result["traced_hz"] >= (1.0 - MAX_OVERHEAD) * result["untraced_hz"], (
        f"tracing overhead exceeded {MAX_OVERHEAD:.0%}: traced "
        f"{result['traced_hz']:.1f} req/s vs untraced {result['untraced_hz']:.1f} req/s"
    )


def check_parity(result: dict) -> None:
    assert result["bitwise_parity"], "tracing perturbed served outputs or cycle accounting"


def check_drift(result: dict) -> None:
    assert result["drift_flags"] == 1, (
        f"expected one drift flag for the miscalibrated model, got {result['drift_flags']}"
    )


def check(result: dict) -> None:
    """Overhead within 5%, bitwise parity, exactly one drift flag."""
    check_overhead(result)
    check_parity(result)
    check_drift(result)
