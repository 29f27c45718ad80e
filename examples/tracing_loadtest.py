"""End-to-end tracing and metrics across the serving stack.

Serves a cycle-accurate SoC replica under closed-loop traffic with the
observability plane switched on: every request gets a span at the front
door, the micro-batcher's fused batches link the request spans they
coalesced, engine execution and the SoC offload's pipeline phases
(DMA/compute, on simulated cycles) hang underneath, and the server's
telemetry registry counts outcomes and buckets latencies alongside.  The finished
spans export to a Chrome ``trace_event`` file loadable in
``chrome://tracing`` / Perfetto (validated here with the same gate
``tools/trace_view.py`` uses), and a drift monitor compares the cost
model's predicted offload cycles against what the SoC actually measured —
flagging the deliberately miscalibrated model at the end.

Run with:  python examples/tracing_loadtest.py
"""

import asyncio
import tempfile
from pathlib import Path

import numpy as np

from repro.compiler import SoCCostModel
from repro.eval import format_table
from repro.obs import (
    DriftMonitor,
    Tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.serving import InferenceServer, Replica, SoCGemmEngine, run_closed_loop
from repro.system import PhotonicSoC

SHAPE = (8, 6)
N_CLIENTS = 3
REQUESTS_PER_CLIENT = 8


def make_soc(n_pes: int) -> PhotonicSoC:
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def main() -> None:
    rng = np.random.default_rng(0)
    weights = rng.integers(-5, 6, size=SHAPE)
    workload = rng.integers(-5, 6, size=(64, SHAPE[1])).astype(float)

    # the model is calibrated on a 2-PE cluster but served on 1 PE, so the
    # drift monitor has something real to flag at the end
    tracer = Tracer(process="server")
    monitor = DriftMonitor(threshold=0.10, min_samples=1)
    engine = SoCGemmEngine(
        make_soc(1),
        weights=weights,
        cost_model=SoCCostModel.calibrate(make_soc(2)),
        drift_monitor=monitor,
    )

    server = InferenceServer([Replica("soc", engine, max_batch=8)], tracer=tracer)

    async def drive():
        async with server:
            return await run_closed_loop(
                server,
                N_CLIENTS,
                REQUESTS_PER_CLIENT,
                lambda index: workload[index % len(workload)],
            )

    report = asyncio.run(drive())
    metrics = server.telemetry.metrics

    # --- the span tree, as the operator sees it --------------------------
    print("span tree (one request's path):")
    by_name = {name: tracer.spans_named(name) for name in
               ("request", "batch", "engine", "soc:offload", "soc:dma", "soc:compute")}
    rows = [
        [name, len(spans),
         "cycles" if spans and spans[0].start_cycle is not None else "wall"]
        for name, spans in by_name.items()
    ]
    print(format_table(["span", "count", "clock"], rows))

    batch = by_name["batch"][0]
    print(
        f"\nfirst fused batch: {batch.attrs['batch_size']} requests "
        f"linked ({len(batch.links)} links), trace {batch.trace_id}"
    )
    offload = by_name["soc:offload"][0]
    print(
        f"first offload: {offload.attrs['cycles']} cycles, "
        f"dma {offload.attrs.get('pipeline.dma_cycles', 0)} / "
        f"compute {offload.attrs.get('pipeline.compute_cycles', 0)}"
    )

    # --- metrics ---------------------------------------------------------
    print("\nmetrics snapshot:")
    snapshot = metrics.snapshot()
    rows = []
    for name in metrics.names():
        state = snapshot[name]
        value = state.get("value", state.get("count"))
        rows.append([name, state["type"], value])
    print(format_table(["metric", "type", "value/count"], rows))
    print(f"closed-loop: {report.completed} done @ {report.achieved_hz:.0f} req/s")

    # --- chrome trace export ---------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.json"
        obj = write_chrome_trace(path, tracer.finished, metrics_snapshot=snapshot)
        print(
            f"\nwrote {path.name}: {validate_chrome_trace(obj)} events "
            f"({path.stat().st_size} bytes) — load in chrome://tracing"
        )

    # --- prediction drift ------------------------------------------------
    print("\ndrift monitor (cost model calibrated on 2 PEs, serving on 1):")
    rows = [
        ["|".join(map(str, flag.key)), flag.samples,
         f"{flag.predicted_mean:.0f}", f"{flag.measured_mean:.0f}",
         f"{flag.rel_error * 100:+.0f}%"]
        for flag in monitor.flags()
    ]
    print(format_table(
        ["key", "samples", "predicted", "measured", "drift"], rows
    ))
    assert monitor.flags(), "the miscalibrated model should have been flagged"


if __name__ == "__main__":
    main()
