"""Tests for the observability plane (repro.obs) and its serving integration."""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    NULL_TRACER,
    DriftMonitor,
    MetricsRegistry,
    Span,
    TraceContext,
    Tracer,
    chrome_trace,
    metrics_events,
    scheduler_events,
    span_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import CYCLE_PROCESS
from repro.obs.metrics import RELATIVE_ACCURACY
from repro.serving import (
    FabricClient,
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    SoCGemmEngine,
    TelemetryLog,
    make_worker_specs,
)
from repro.serving.fabric import wire
from repro.system import PhotonicSoC
from repro.utils.rng import ensure_rng

REPO_ROOT = Path(__file__).resolve().parent.parent
SOC_FACTORY = "repro.serving.fabric.engines:make_soc_gemm_engine"


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_soc(n_pes=1):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def soc_weights():
    return ensure_rng(2).integers(-5, 6, size=(8, 6))


# --------------------------------------------------------------------- #
# tracer core
# --------------------------------------------------------------------- #
class TestTracer:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer(prefix="w0")
        assert tracer.new_trace() == "w0-t000000"
        assert tracer.new_trace() == "w0-t000001"
        first = tracer.start_span("a")
        second = tracer.start_span("b")
        assert first.span_id == "w0-s000000"
        assert second.span_id == "w0-s000001"
        # a fresh tracer replays the identical id stream: no RNG anywhere
        replay = Tracer(prefix="w0")
        assert replay.new_trace() == "w0-t000000"
        assert replay.start_span("a").span_id == "w0-s000000"

    def test_parentage_and_links(self):
        tracer = Tracer()
        root = tracer.start_span("request")
        child = tracer.start_span("batch", parent=root, links=("x", "y"))
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.links == ("x", "y")
        # TraceContext parents work the same as Span parents
        remote = tracer.start_span("worker", parent=root.context)
        assert remote.parent_id == root.span_id

    def test_end_span_none_is_noop_and_orders_finished(self):
        tracer = Tracer(clock=lambda: 1.0)
        tracer.end_span(None)  # rejected-request path with tracing off
        span = tracer.start_span("a", wall=0.5)
        tracer.end_span(span, attrs={"outcome": "ok"})
        assert tracer.finished == [span]
        assert span.end_wall == 1.0
        assert span.duration_s == 0.5
        assert span.attrs["outcome"] == "ok"

    def test_span_context_manager_tracks_current(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner", parent=outer) as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None
        assert [span.name for span in tracer.finished] == ["inner", "outer"]

    def test_drain_ingest_round_trip(self):
        source = Tracer(prefix="w0", process="worker:w0")
        span = source.start_span("worker:request", track="request", cycle=3)
        source.end_span(span, cycle=9, attrs={"request_id": 1})
        shipped = source.drain()
        assert source.finished == []
        assert all(isinstance(payload, dict) for payload in shipped)
        # dictionaries survive json (the socket wire) unchanged
        shipped = json.loads(json.dumps(shipped))

        sink = Tracer(prefix="gw", process="gateway")
        sink.ingest(shipped)
        sink.ingest(None)  # untraced worker ships nothing
        rebuilt = sink.spans_named("worker:request")[0]
        assert rebuilt.span_id == span.span_id
        assert rebuilt.process == "worker:w0"
        assert rebuilt.start_cycle == 3 and rebuilt.end_cycle == 9
        assert rebuilt.attrs == {"request_id": 1}

    def test_null_tracer_is_falsy_and_inert(self):
        assert not NULL_TRACER
        assert NULL_TRACER.start_span("x") is None
        assert NULL_TRACER.current is None
        assert NULL_TRACER.drain() == []
        NULL_TRACER.end_span(None)
        NULL_TRACER.ingest([{"name": "x"}])

    def test_span_dict_round_trip(self):
        span = Span(
            name="batch", trace_id="t0", span_id="s1", parent_id="s0",
            links=("a",), process="gateway", track="batcher",
            start_wall=1.0, end_wall=2.0, start_cycle=10, end_cycle=20,
            attrs={"batch_size": 3},
        )
        rebuilt = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert rebuilt == span
        assert rebuilt.context == TraceContext("t0", "s1")


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(2.5)
        assert registry.counter("requests") is counter
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_histogram_buckets_are_deterministic(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for value in (0.0, 0.005, 0.005, 5.0):
            histogram.observe(value)
        # bucket k = ceil(log(v) / log γ) at α = 0.01, a pure function of v
        assert histogram.zero == 1
        assert histogram.buckets == {-264: 2, 81: 1}
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.01)
        for bad in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="cannot observe"):
                histogram.observe(bad)
        assert histogram.count == 4  # a refused value is not counted
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            histogram.quantile(1.5)

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_merge_protocol(self):
        worker_a, worker_b = MetricsRegistry(), MetricsRegistry()
        for worker, n in ((worker_a, 3), (worker_b, 5)):
            worker.counter("done").inc(n)
            worker.gauge("depth").set(n)
            histogram = worker.histogram("lat")
            histogram.observe(0.5)
            histogram.observe(1.5)

        gateway = MetricsRegistry()
        for worker in (worker_a, worker_b):
            gateway.merge(worker.snapshot())
        assert gateway.counter("done").value == 8
        assert gateway.gauge("depth").value == 5  # last writer wins
        merged = gateway.histogram("lat")
        assert merged.buckets == {-34: 2, 21: 2}
        assert merged.count == 4
        assert merged.quantile(1.0) == pytest.approx(1.5, rel=RELATIVE_ACCURACY)

    def test_merge_rejects_mismatched_bounds_and_unknown_kind(self):
        gateway = MetricsRegistry()
        gateway.histogram("lat")
        foreign = MetricsRegistry()
        foreign.histogram("lat").observe(0.5)
        snapshot = foreign.snapshot()
        snapshot["lat"]["relative_accuracy"] = 0.02  # other bucket edges
        with pytest.raises(ValueError, match="relative accuracy differs"):
            gateway.merge(snapshot)
        fixed_buckets = {"type": "histogram", "bounds": [1.0], "counts": [1, 0]}
        with pytest.raises(ValueError, match="relative accuracy differs"):
            gateway.merge({"lat": fixed_buckets})
        assert gateway.histogram("lat").count == 0  # nothing half-merged
        with pytest.raises(ValueError, match="unknown instrument"):
            gateway.merge({"x": {"type": "mystery", "value": 1}})


# --------------------------------------------------------------------- #
# chrome trace export (and S1: EventScheduler dispatch logs)
# --------------------------------------------------------------------- #
class TestExport:
    def test_wall_and_cycle_spans_land_on_their_tracks(self):
        spans = [
            Span("request", "t0", "s0", process="server", track="request",
                 start_wall=10.0, end_wall=10.5),
            Span("soc:dma", "t0", "s1", parent_id="s0", track="soc:dma",
                 start_cycle=100, end_cycle=300),
        ]
        events = span_events(spans, clock_hz=1e9)
        wall, cycle = events
        assert wall["pid"] == "server" and wall["ts"] == 0.0
        assert wall["dur"] == pytest.approx(0.5e6)
        assert cycle["pid"] == CYCLE_PROCESS
        assert cycle["ts"] == pytest.approx(100 * 1e6 / 1e9)
        assert cycle["dur"] == pytest.approx(200 * 1e6 / 1e9)
        assert cycle["args"]["parent_id"] == "s0"
        # spans missing both clocks are dropped, not exported half-formed
        assert span_events([Span("ghost", "t0", "s2")]) == []

    def test_chrome_trace_maps_labels_to_integer_ids(self):
        spans = [
            Span("a", "t0", "s0", process="gateway", track="request",
                 start_wall=0.0, end_wall=1.0),
            Span("b", "t0", "s1", process="worker:w0", track="engine",
                 start_wall=0.5, end_wall=1.5),
        ]
        obj = chrome_trace(spans)
        validate_chrome_trace(obj)
        names = {
            event["args"]["name"]
            for event in obj["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names == {"gateway", "worker:w0"}
        assert all(
            isinstance(event["pid"], int) and isinstance(event["tid"], int)
            for event in obj["traceEvents"]
        )

    def test_scheduler_dispatch_log_exports_as_instants(self):
        # S1: a real SoC offload's event dispatches ride the same trace
        soc = make_soc(1)
        trace = soc.scheduler.enable_trace()
        engine = SoCGemmEngine(soc, weights=soc_weights())
        engine.run_batch(None, np.ones((6, 2)))
        assert trace  # the offload dispatched events

        events = scheduler_events(trace, clock_hz=1e9)
        assert len(events) == len(trace)
        assert all(event["ph"] == "i" for event in events)
        obj = chrome_trace(scheduler_trace=trace)
        assert validate_chrome_trace(obj) > len(trace)  # + metadata

    def test_metrics_counter_events(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(4)
        registry.histogram("lat").observe(0.5)
        events = metrics_events(registry.snapshot())
        by_name = {event["name"]: event for event in events}
        assert by_name["requests"]["args"] == {"requests": 4}
        assert by_name["lat"]["args"] == {"lat.count": 1, "lat.sum": 0.5}

    def test_validate_rejects_malformed_traces(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="numeric 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "a", "ph": "X", "pid": 0, "tid": 0}]}
            )
        with pytest.raises(ValueError, match="non-negative 'dur'"):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 0, "dur": -1}
                ]}
            )

    def test_write_chrome_trace_and_viewer_cli(self, tmp_path):
        span = Span("request", "t0", "s0", process="server",
                    start_wall=0.0, end_wall=1.0)
        path = tmp_path / "trace.json"
        write_chrome_trace(path, [span])
        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_view.py"), str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        assert "OK" in completed.stdout

        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        completed = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "trace_view.py"), str(bad)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 1
        assert "INVALID" in completed.stdout


# --------------------------------------------------------------------- #
# S2: telemetry log durability
# --------------------------------------------------------------------- #
class TestTelemetryLog:
    def test_append_then_read_all_round_trip(self, tmp_path):
        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        log.append({"submitted": 1})
        log.append({"submitted": 2})
        assert log.read_all() == [{"submitted": 1}, {"submitted": 2}]

    def test_read_all_skips_and_reports_torn_tail(self, tmp_path):
        log = TelemetryLog(tmp_path / "telemetry.jsonl")
        log.append({"submitted": 1})
        # a killed process leaves a torn trailing line
        with log.path.open("a", encoding="utf-8") as stream:
            stream.write('{"submitted": 2, "comp')
        snapshots, errors = log.read_all(return_errors=True)
        assert snapshots == [{"submitted": 1}]
        assert len(errors) == 1
        assert errors[0][0] == 2  # 1-based line number
        # the strict reader still raises, by contract
        with pytest.raises(json.JSONDecodeError):
            log.read()


# --------------------------------------------------------------------- #
# in-process serving integration
# --------------------------------------------------------------------- #
class TestInProcessTracing:
    def test_request_batch_engine_soc_hierarchy(self):
        tracer = Tracer(process="server")

        async def drive():
            engine = SoCGemmEngine(make_soc(1), weights=soc_weights())
            server = InferenceServer([Replica("r0", engine)], tracer=tracer)
            columns = ensure_rng(3).integers(-5, 6, size=(3, 6)).astype(float)
            async with server:
                await asyncio.gather(*(server.submit(column) for column in columns))
            return server.telemetry.metrics

        metrics = run_async(drive())

        requests = tracer.spans_named("request")
        batches = tracer.spans_named("batch")
        engines = tracer.spans_named("engine")
        offloads = tracer.spans_named("soc:offload")
        assert len(requests) == 3
        assert batches and engines and offloads

        # every span of the tree shares the first fused request's trace
        request_ids = {span.span_id for span in requests}
        for batch in batches:
            assert batch.trace_id in {span.trace_id for span in requests}
            assert set(batch.links) <= request_ids  # multi-parent fuse links
        for engine_span in engines:
            assert engine_span.parent_id in {span.span_id for span in batches}
        engine_ids = {span.span_id for span in engines}
        for offload in offloads:
            assert offload.parent_id in engine_ids
            assert offload.end_cycle is not None
            assert offload.attrs["cycles"] > 0
        # pipeline phases hang off the offload with cycle timestamps
        compute = tracer.spans_named("soc:compute")
        assert compute and all(
            span.parent_id in {o.span_id for o in offloads} for span in compute
        )

        # the telemetry registry rode along: outcome, latency and batch instruments
        assert metrics.counter("serving.r0.completed").value == 3
        assert metrics.histogram("serving.r0.latency_s").count == 3
        assert metrics.counter("serving.r0.batches").value >= 1

        # the whole tree exports to a valid Chrome trace
        assert validate_chrome_trace(chrome_trace(tracer.finished)) > 0

    def test_rejected_requests_close_their_spans(self):
        from repro.serving import BackpressureError

        tracer = Tracer(process="server")

        async def drive():
            engine = GemmEngine(backend="ideal-digital", weights=np.eye(4))
            replica = Replica("r0", engine, max_queue_depth=1)
            server = InferenceServer([replica], tracer=tracer)
            async with server:
                # fill the only queue slot without yielding to the batcher,
                # so the second admit is rejected at the front door
                first = server.submit_nowait(np.ones(4))
                with pytest.raises(BackpressureError):
                    server.submit_nowait(np.ones(4))
                await first

        run_async(drive())
        spans = tracer.spans_named("request")
        outcomes = [span.attrs.get("outcome") for span in spans]
        assert outcomes.count("rejected") == 1

    def test_tracing_is_bitwise_invisible(self):
        # the seeded analog noise stream must not see the tracer
        def serve(tracer):
            async def drive():
                engine = GemmEngine(
                    backend="analog-photonic",
                    weights=ensure_rng(4).normal(size=(4, 4)),
                    rng=7,
                )
                server = InferenceServer([Replica("r0", engine)], tracer=tracer)
                columns = ensure_rng(5).normal(size=(6, 4))
                async with server:
                    outputs = await asyncio.gather(
                        *(server.submit(column) for column in columns)
                    )
                return np.stack(outputs)

            return run_async(drive())

        baseline = serve(None)
        traced = serve(Tracer(process="server"))
        assert np.array_equal(baseline, traced)


# --------------------------------------------------------------------- #
# fabric: cross-process stitching through the socket front door
# --------------------------------------------------------------------- #
class TestFabricTracing:
    def test_wire_trace_round_trip(self):
        context = TraceContext("gw-t000000", "gw-s000003")
        payload = wire.pack_trace(context)
        assert payload == {"trace_id": "gw-t000000", "span_id": "gw-s000003"}
        assert wire.unpack_trace(payload) == context
        assert wire.pack_trace(None) is None
        assert wire.unpack_trace(None) is None
        # a live Span packs through its context
        span = Span("request", "t0", "s0")
        assert wire.pack_trace(span) == {"trace_id": "t0", "span_id": "s0"}
        # and the dict survives a JSON wire frame
        async def frame_round_trip():
            reader = asyncio.StreamReader()
            reader.feed_data(wire.pack_frame({"kind": "submit", "trace": payload}))
            reader.feed_eof()
            header, _ = await wire.read_frame(reader)
            return header["trace"]

        assert wire.unpack_trace(run_async(frame_round_trip())) == context

    def test_stitched_trace_through_socket_front_door(self, tmp_path):
        tracer = Tracer(prefix="gw", process="gateway")
        weights = soc_weights()

        async def drive():
            specs = make_worker_specs(
                1, SOC_FACTORY, engine_kwargs={"weights": weights}
            )
            async with FabricGateway(specs, tracer=tracer) as gateway:
                host, port = await gateway.start_server()
                async with await FabricClient.connect(host, port) as client:
                    # empty-window guard: percentile stats before traffic
                    stats = await client.stats()
                    assert stats["latency"]["p99_ms"] == 0.0
                    assert stats["completed"] == 0

                    columns = ensure_rng(3).integers(-5, 6, size=(2, 6))
                    outputs = [
                        await client.submit(column.astype(float))
                        for column in columns
                    ]
                    for column, output in zip(columns, outputs):
                        assert np.array_equal(output, weights @ column)

                    stats = await client.stats()
                    assert stats["completed"] == 2
                    assert stats["latency"]["p99_ms"] > 0.0

        run_async(drive())

        requests = tracer.spans_named("request")
        worker_requests = tracer.spans_named("worker:request")
        assert len(requests) == 2 and len(worker_requests) == 2
        gateway_ids = {span.span_id for span in requests}
        for worker_span in worker_requests:
            # worker spans joined the gateway's trace across the pipe
            assert worker_span.parent_id in gateway_ids
            assert worker_span.process == "worker:w0"
            assert worker_span.trace_id in {span.trace_id for span in requests}
            assert worker_span.attrs["outcome"] == "ok"
        batches = tracer.spans_named("batch")
        assert batches
        worker_ids = {span.span_id for span in worker_requests}
        assert any(set(span.links) & worker_ids for span in batches)
        assert tracer.spans_named("soc:offload")

        # the stitched trace validates and renders all three processes
        path = tmp_path / "fabric_trace.json"
        obj = write_chrome_trace(path, tracer.finished)
        labels = {
            event["args"]["name"]
            for event in obj["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert {"gateway", "worker:w0", CYCLE_PROCESS} <= labels

    def test_client_side_trace_context_parents_the_gateway_span(self):
        tracer = Tracer(prefix="gw", process="gateway")
        caller = Tracer(prefix="cli", process="client")

        async def drive():
            specs = make_worker_specs(
                1, SOC_FACTORY, engine_kwargs={"weights": soc_weights()}
            )
            async with FabricGateway(specs, tracer=tracer) as gateway:
                host, port = await gateway.start_server()
                async with await FabricClient.connect(host, port) as client:
                    root = caller.start_span("client:call")
                    await client.submit(np.ones(6), trace=root)
                    caller.end_span(root)
                    return root

        root = run_async(drive())
        request = tracer.spans_named("request")[0]
        assert request.parent_id == root.span_id
        assert request.trace_id == root.trace_id


# --------------------------------------------------------------------- #
# drift monitor
# --------------------------------------------------------------------- #
class TestDrift:
    def test_record_and_flag_thresholds(self):
        monitor = DriftMonitor(threshold=0.10, min_samples=2)
        monitor.record((8, 6, 4), "soc", predicted=100, measured=150)
        assert monitor.flags() == []  # below min_samples
        monitor.record((8, 6, 4), "soc", predicted=100, measured=150)
        (flag,) = monitor.flags()
        assert flag.key == ((8, 6, 4), "soc")
        assert flag.rel_error == pytest.approx(0.5)
        assert flag.samples == 2
        # a well-predicted key on the same monitor stays quiet
        monitor.record((2, 2, 2), "soc", predicted=100, measured=104)
        assert len(monitor.flags()) == 1
        assert len(monitor) == 2
        summary = monitor.summary()
        assert summary["n_flagged"] == 1
        assert summary["keys"]["(8, 6, 4)|soc"]["rel_error"] == pytest.approx(0.5)
        assert json.dumps(monitor.snapshot())  # JSONL-safe

    def test_zero_prediction_guard(self):
        monitor = DriftMonitor()
        monitor.record((1,), "b", predicted=0, measured=10)
        assert monitor.flags()[0].rel_error == float("inf")
        with pytest.raises(ValueError, match="threshold"):
            DriftMonitor(threshold=0.0)
        with pytest.raises(ValueError, match="min_samples"):
            DriftMonitor(min_samples=0)

    def test_served_offloads_flag_a_miscalibrated_model(self):
        from repro.compiler import SoCCostModel

        model = SoCCostModel.calibrate(make_soc(2))
        monitor = DriftMonitor(threshold=0.10, min_samples=1)

        async def drive():
            engine = SoCGemmEngine(
                make_soc(1),  # one PE: serial tiles, slower than predicted
                weights=soc_weights(),
                cost_model=model,
                drift_monitor=monitor,
            )
            server = InferenceServer([Replica("r0", engine)])
            columns = ensure_rng(3).integers(-5, 6, size=(4, 6)).astype(float)
            async with server:
                await asyncio.gather(*(server.submit(column) for column in columns))

        run_async(drive())
        flags = monitor.flags()
        assert len(flags) == 1
        assert flags[0].measured_mean > flags[0].predicted_mean
        ((shape, backend),) = [flag.key for flag in flags]
        assert shape[0] == 8 and shape[1] == 6
        assert backend == "soc"

        # replaying the identical serve produces the identical drift record
        replay = DriftMonitor(threshold=0.10, min_samples=1)
        monitor2 = replay

        async def replay_drive():
            engine = SoCGemmEngine(
                make_soc(1), weights=soc_weights(),
                cost_model=SoCCostModel.calibrate(make_soc(2)),
                drift_monitor=monitor2,
            )
            server = InferenceServer([Replica("r0", engine)])
            columns = ensure_rng(3).integers(-5, 6, size=(4, 6)).astype(float)
            async with server:
                await asyncio.gather(*(server.submit(column) for column in columns))

        run_async(replay_drive())
        assert replay.summary() == monitor.summary()
