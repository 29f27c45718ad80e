"""Per-layer metrics of a traced run, named after the modules they cover.

Every traced run reports every metric in :data:`LAYER_METRICS`; a layer a
workload does not exercise reads 0.  Host times are speed-corrected with
the mean correction factor of the traced blocks and expressed per op (per
request for the serving workloads).  ``perfbench/NOTES.md`` maps each
metric to the end-to-end metric it should move.
"""

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("core.energy_model.builds_per_op", "count"),
    ("core.energy_model.ms_per_op", "ms"),
    ("materials.pcm.effective_index_calls_per_op", "count"),
    ("system.event.events_per_op", "count"),
    ("system.event.ms_per_op", "ms"),
    ("system.memory.dump_ms_per_op", "ms"),
    ("system.tiled_gemm.calls_per_op", "count"),
    ("system.tiled_gemm.self_ms_per_op", "ms"),
    ("system.sim_cycles_per_host_s", "cycles/s"),
    ("system.sim_cycles_per_op", "cycles"),
    ("system.sim_energy_nj_per_op", "nJ"),
    ("compiler.offloads_per_op", "count"),
    ("compiler.steps_rows", "count"),
    ("compiler.steps_k", "count"),
    ("compiler.steps_fused", "count"),
    ("system.dma.words_per_op", "words"),
    ("system.pipeline.overlap_cycles_per_op", "cycles"),
    ("system.pipeline.staging_words_per_op", "words"),
    ("system.cpu.instructions_per_op", "count"),
    ("system.cpu.host_us_per_instr", "us"),
    ("system.cpu.cpi", "cycles/instr"),
    ("system.assembler.ms_per_op", "ms"),
    ("serving.weight_hash.us_per_req", "us"),
    ("core.mvm.us_per_col", "us"),
    ("serving.telemetry.us_per_req", "us"),
    ("serving.engine.cols_per_call", "count"),
    ("serving.engine.busy_us_per_req", "us"),
    ("serving.loop_self_us_per_req", "us"),
    ("serving.queue_depth_mean", "count"),
    ("fabric.pipe.msgs_per_req", "count"),
    ("fabric.pipe.bytes_per_req", "bytes"),
    ("fabric.worker.cols_per_call", "count"),
    ("fabric.worker.busy_us_per_req", "us"),
    ("fabric.transit_us_per_req", "us"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)

TELEMETRY_SPANS = (
    "serving.telemetry.on_admit",
    "serving.telemetry.on_batch",
    "serving.telemetry.on_result",
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, tracer, run) -> dict:
    """Every per-layer metric of one traced run as ``{name: {value, unit}}``."""
    factor = _ratio(sum(run.traced_factors), len(run.traced_factors))
    n = run.traced_completed
    counters = run.counters
    values = {name: 0.0 for name, _ in LAYER_METRICS}

    def host(span, field="duration"):
        """Corrected host seconds spent in one span name."""
        return tracer.total(span, field) * factor

    untraced_ops_per_s = _ratio(run.completed, run.busy_s)
    traced_ops_per_s = _ratio(n, run.traced_busy_s)
    values["trace.traced_ops_per_s"] = traced_ops_per_s
    values["trace.untraced_ops_per_s"] = untraced_ops_per_s
    values["trace.overhead_pct"] = 100.0 * (1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s))

    if workload.kind == "sequential":
        instructions = counters.get("instructions", 0)
        values.update({
            "core.energy_model.builds_per_op": _ratio(tracer.calls("core.energy_model"), n),
            "core.energy_model.ms_per_op": _ratio(host("core.energy_model"), n) * 1e3,
            "materials.pcm.effective_index_calls_per_op": _ratio(
                tracer.calls("materials.pcm.effective_index"), n
            ),
            "system.event.events_per_op": _ratio(counters.get("events", 0), n),
            "system.event.ms_per_op": _ratio(host("system.event"), n) * 1e3,
            "system.memory.dump_ms_per_op": _ratio(host("system.memory.dump"), n) * 1e3,
            "system.tiled_gemm.calls_per_op": _ratio(tracer.calls("system.tiled_gemm"), n),
            "system.tiled_gemm.self_ms_per_op": _ratio(
                host("system.tiled_gemm", "self_time"), n
            ) * 1e3,
            "system.sim_cycles_per_host_s": _ratio(
                workload.sim_cycles_per_op * run.completed, run.busy_s
            ),
            "system.sim_cycles_per_op": workload.sim_cycles_per_op,
            "system.sim_energy_nj_per_op": workload.sim_energy_nj_per_op,
            "compiler.offloads_per_op": _ratio(counters.get("offloads", 0), n),
            "system.dma.words_per_op": _ratio(counters.get("dma_words", 0), n),
            "system.pipeline.overlap_cycles_per_op": _ratio(
                counters.get("overlap_cycles", 0), n
            ),
            "system.pipeline.staging_words_per_op": _ratio(counters.get("staging_words", 0), n),
            "system.cpu.instructions_per_op": _ratio(instructions, n),
            "system.cpu.host_us_per_instr": _ratio(host("system.event"), instructions) * 1e6,
            "system.cpu.cpi": _ratio(counters.get("cpu_cycles", 0), instructions),
            "system.assembler.ms_per_op": _ratio(host("system.assembler"), n) * 1e3,
        })
        steps = getattr(workload, "steps", {})
        values["compiler.steps_rows"] = steps.get("rows", 0)
        values["compiler.steps_k"] = steps.get("k", 0)
        values["compiler.steps_fused"] = steps.get("fused", 0)
    else:
        telemetry_s = sum(host(span) for span in TELEMETRY_SPANS)
        loop_self_s = (run.traced_raw_busy_s - tracer.top_level_s) * factor
        values.update({
            "serving.weight_hash.us_per_req": _ratio(host("serving.weight_hash"), n) * 1e6,
            "core.mvm.us_per_col": _ratio(
                host("core.mvm"), tracer.total("core.mvm", "work")
            ) * 1e6,
            "serving.telemetry.us_per_req": _ratio(telemetry_s, n) * 1e6,
            "serving.engine.cols_per_call": _ratio(
                tracer.total("serving.engine", "work"), tracer.calls("serving.engine")
            ),
            "serving.engine.busy_us_per_req": _ratio(host("serving.engine"), n) * 1e6,
            "serving.loop_self_us_per_req": _ratio(loop_self_s, n) * 1e6,
            "serving.queue_depth_mean": _ratio(
                tracer.total("serving.telemetry.on_admit", "work"),
                tracer.calls("serving.telemetry.on_admit"),
            ),
        })
        if workload.name == "serve_fabric":
            worker = workload.worker_spans(run.windows)
            worker_s = counters.get("worker_s", 0.0)
            values.update({
                "fabric.pipe.msgs_per_req": _ratio(
                    counters.get("sent", 0) + counters.get("received", 0), n
                ),
                "fabric.pipe.bytes_per_req": _ratio(counters.get("bytes", 0), n),
                "fabric.worker.cols_per_call": _ratio(worker["columns"], worker["calls"]),
                "fabric.worker.busy_us_per_req": _ratio(worker["busy_s"] * factor, n) * 1e6,
                "fabric.transit_us_per_req": _ratio(
                    (run.traced_raw_latency_s - worker_s) * factor, n
                ) * 1e6,
            })
    units = dict(LAYER_METRICS)
    return {name: {"value": float(value), "unit": units[name]} for name, value in values.items()}
