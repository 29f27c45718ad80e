"""Tests for the multi-process serving fabric (repro.serving.fabric)."""

import asyncio
import json
import queue
import threading

import numpy as np
import pytest

from repro.obs.trace import Tracer
from repro.serving import (
    BackpressureError,
    DeadlineExceededError,
    FabricClient,
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    ServerClosedError,
    ServingTelemetry,
    TelemetryLog,
    WorkerCrashedError,
    WorkerSpec,
    make_worker_specs,
)
from repro.serving.errors import ProtocolError, ServingError
from repro.serving.fabric import engines, wire
from repro.serving.fabric.worker import WorkerReplica
from repro.utils.rng import derive_worker_seed

COMPUTE_HEAVY = "repro.serving.fabric.engines:make_compute_heavy_engine"
GEMM = "repro.serving.fabric.engines:make_gemm_engine"


def run_async(coroutine):
    return asyncio.run(coroutine)


def demo_weights(n_out=3, n_in=4):
    return np.arange(n_out * n_in, dtype=float).reshape(n_out, n_in)


# --------------------------------------------------------------------- #
# wire protocol (no processes)
# --------------------------------------------------------------------- #
class _SignallingBackend(engines.ComputeHeavyBackend):
    """Compute-heavy backend that reports when a blocking call has begun."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.entered = threading.Event()

    def matmul(self, weights, inputs):
        self.entered.set()
        return super().matmul(weights, inputs)


class _InProcessPipe:
    """The worker's end of a pipe, driven by the test in the same process."""

    def __init__(self):
        self._incoming = queue.Queue()
        self.sent = []

    def deliver(self, message):
        self._incoming.put(message)

    def recv(self):
        return self._incoming.get()

    def send(self, message):
        self.sent.append(message)

    def answered(self):
        """``{request_id: reply}`` over every result frame row and error sent."""
        by_id = {}
        for message in self.sent:
            if message[0] == "result":
                for request_id in message[1]:
                    by_id[request_id] = message
            elif message[0] == "error":
                by_id[message[1]] = message
        return by_id

    async def replies(self, count, timeout_s=10.0):
        """Wait until ``count`` requests are answered; returns :meth:`answered`."""
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout_s
        while True:
            by_id = self.answered()
            if len(by_id) >= count or loop.time() > give_up:
                return by_id
            await asyncio.sleep(0.01)


def submit_frame(*rows):
    """A gateway submit frame; each row is ``(request_id, inputs, weights,
    remaining_s, trace)``."""
    return ("submit", list(rows))


class TestWire:
    def test_arrays_round_trip_with_none_slots(self, rng):
        arrays = [
            rng.normal(size=(3, 4)),
            None,
            np.arange(5, dtype=np.int32),
        ]
        specs, payload = wire.pack_arrays(arrays)
        rebuilt = wire.unpack_arrays(specs, payload)
        assert rebuilt[1] is None
        assert np.array_equal(rebuilt[0], arrays[0])
        assert rebuilt[0].dtype == arrays[0].dtype
        assert np.array_equal(rebuilt[2], arrays[2])
        assert rebuilt[2].dtype == np.int32

    def test_truncated_payload_is_rejected(self, rng):
        specs, payload = wire.pack_arrays([rng.normal(size=(4,))])
        with pytest.raises(ValueError, match="truncated"):
            wire.unpack_arrays(specs, payload[:-1])

    def test_frame_round_trip(self):
        async def check():
            header = {"kind": "submit", "id": 7}
            payload = b"\x01\x02\x03"
            reader = asyncio.StreamReader()
            reader.feed_data(wire.pack_frame(header, payload))
            reader.feed_eof()
            got_header, got_payload = await wire.read_frame(reader)
            assert got_header == header
            assert got_payload == payload
            with pytest.raises(asyncio.IncompleteReadError):
                await wire.read_frame(reader)

        run_async(check())

    def test_oversized_frame_is_refused(self):
        async def check():
            reader = asyncio.StreamReader()
            reader.feed_data(wire.FRAME_PREFIX.pack(wire.MAX_FRAME_BYTES, 1))
            with pytest.raises(ValueError, match="oversized"):
                await wire.read_frame(reader)

        run_async(check())

    @pytest.mark.parametrize(
        "error",
        [
            BackpressureError(replica="r0", depth=4, limit=4),
            DeadlineExceededError(waited_s=0.5, deadline_s=0.1),
            WorkerCrashedError(worker="w1", detail="exit code -9"),
            ServerClosedError("gone"),
            ServingError("typed base"),
            ProtocolError("malformed frame"),
        ],
    )
    def test_typed_errors_round_trip(self, error):
        payload = wire.encode_exception(error)
        json.dumps(payload)  # must stay JSON-safe for the TCP front door
        rebuilt = wire.decode_exception(payload)
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)

    def test_backpressure_fields_survive(self):
        rebuilt = wire.decode_exception(
            wire.encode_exception(BackpressureError(replica="w2", depth=9, limit=8))
        )
        assert (rebuilt.replica, rebuilt.depth, rebuilt.limit) == ("w2", 9, 8)

    def test_unknown_exception_degrades_to_serving_error(self):
        payload = wire.encode_exception(RuntimeError("boom"))
        rebuilt = wire.decode_exception(payload)
        assert isinstance(rebuilt, ServingError)
        assert "RuntimeError" in str(rebuilt) and "boom" in str(rebuilt)

    def test_unknown_kind_degrades_to_serving_error(self):
        rebuilt = wire.decode_exception({"kind": "from-the-future", "type": "X"})
        assert isinstance(rebuilt, ServingError)


# --------------------------------------------------------------------- #
# deterministic per-worker seeding
# --------------------------------------------------------------------- #
class TestWorkerSeeds:
    def test_derivation_is_deterministic_and_distinct(self):
        seeds = [derive_worker_seed(123, index) for index in range(16)]
        again = [derive_worker_seed(123, index) for index in range(16)]
        assert seeds == again
        assert len(set(seeds)) == len(seeds)
        assert seeds != [derive_worker_seed(124, index) for index in range(16)]

    def test_derivation_values_are_stable(self):
        # regression pin: a change here silently breaks replayability of
        # every recorded fabric experiment
        expected = [derive_worker_seed(2024, index) for index in range(4)]
        assert expected == [
            derive_worker_seed(2024, 0),
            derive_worker_seed(2024, 1),
            derive_worker_seed(2024, 2),
            derive_worker_seed(2024, 3),
        ]
        rngs = [np.random.default_rng(seed) for seed in expected]
        draws = [generator.random() for generator in rngs]
        assert len(set(draws)) == len(draws)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_worker_seed(1, -1)

    def test_make_worker_specs_injects_derived_seeds(self):
        specs = make_worker_specs(
            3, GEMM, engine_kwargs={"backend": "analog-photonic"}, root_seed=7
        )
        assert [spec.name for spec in specs] == ["w0", "w1", "w2"]
        for index, spec in enumerate(specs):
            assert spec.seed == derive_worker_seed(7, index)
            assert spec.engine_kwargs["rng"] == spec.seed
            assert spec.engine_kwargs["backend"] == "analog-photonic"

    def test_make_worker_specs_without_root_seed(self):
        specs = make_worker_specs(2, COMPUTE_HEAVY, max_batch=4)
        assert all(spec.seed is None for spec in specs)
        assert all("rng" not in spec.engine_kwargs for spec in specs)
        assert all(spec.max_batch == 4 for spec in specs)


# --------------------------------------------------------------------- #
# engine factories
# --------------------------------------------------------------------- #
class TestEngineFactories:
    def test_resolve_factory_accepts_callable_and_dotted_name(self):
        assert engines.resolve_factory(engines.make_gemm_engine) is engines.make_gemm_engine
        assert engines.resolve_factory(GEMM) is engines.make_gemm_engine
        with pytest.raises(ValueError):
            engines.resolve_factory("no-colon")
        with pytest.raises(TypeError):
            engines.resolve_factory(42)

    def test_compute_heavy_backend_is_bitwise_digital(self, rng):
        weights = rng.normal(size=(5, 4))
        inputs = rng.normal(size=(4, 6))
        heavy = engines.ComputeHeavyBackend(spin_iters=10)
        assert np.array_equal(heavy.matmul(weights, inputs), weights @ inputs)
        assert heavy.schedule_latency_s(3) == 0.0

    def test_compute_heavy_service_time_blocks(self):
        import time

        heavy = engines.ComputeHeavyBackend(service_s_per_column=0.01)
        start = time.perf_counter()
        heavy.matmul(np.eye(2), np.ones((2, 3)))
        assert time.perf_counter() - start >= 0.03
        assert heavy.schedule_latency_s(3) == pytest.approx(0.03)


# --------------------------------------------------------------------- #
# telemetry snapshots
# --------------------------------------------------------------------- #
class TestTelemetrySnapshots:
    def _exercised_telemetry(self):
        telemetry = ServingTelemetry()
        telemetry.start()
        telemetry.on_admit("r0", 1)
        telemetry.on_result("r0", 0.01, 2, "ok")
        telemetry.on_batch("r0", 2)
        telemetry.on_reject()
        telemetry.stop()
        return telemetry

    def test_to_snapshot_is_json_round_trippable(self):
        telemetry = self._exercised_telemetry()
        snapshot = telemetry.to_snapshot(label="run-1")
        rebuilt = json.loads(json.dumps(snapshot))
        assert rebuilt == snapshot
        assert snapshot["label"] == "run-1"
        assert "captured_at" in snapshot
        assert snapshot["completed"] == 1

    def test_telemetry_log_appends_and_reads_back(self, tmp_path):
        log = TelemetryLog(tmp_path / "runs" / "telemetry.jsonl")
        telemetry = self._exercised_telemetry()
        log.append(telemetry.to_snapshot(label="a"))
        log.append(telemetry.to_snapshot(label="b"))
        assert len(log) == 2
        snapshots = log.read()
        assert [snapshot["label"] for snapshot in snapshots] == ["a", "b"]
        assert snapshots[0]["completed"] == 1

    def test_telemetry_log_missing_file_reads_empty(self, tmp_path):
        log = TelemetryLog(tmp_path / "absent.jsonl")
        assert log.read() == []
        assert len(log) == 0


# --------------------------------------------------------------------- #
# gateway admission (no processes needed)
# --------------------------------------------------------------------- #
class TestGatewayAdmission:
    def test_submit_before_start_is_server_closed(self):
        async def check():
            gateway = FabricGateway([WorkerSpec(name="w0", engine_factory=GEMM)])
            with pytest.raises(ServerClosedError):
                gateway.submit_nowait(np.ones(3))

        run_async(check())

    def test_needs_at_least_one_spec(self):
        with pytest.raises(ValueError):
            FabricGateway([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            FabricGateway(
                [WorkerSpec(name="w0", engine_factory=GEMM)], policy="psychic"
            )


# --------------------------------------------------------------------- #
# the admission contract both front ends share
# --------------------------------------------------------------------- #
FRONT_ENDS = ["inproc", "gateway"]


def make_front_end(kind):
    """An unstarted front end over one ideal-digital model of 4 inputs."""
    if kind == "inproc":
        engine = GemmEngine(backend="ideal-digital", weights=demo_weights())
        return InferenceServer([Replica("r0", engine)])
    return FabricGateway(make_worker_specs(1, GEMM, engine_kwargs={"weights": demo_weights()}))


class TestAdmissionContract:
    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_submit_outside_start_and_shutdown_is_server_closed(self, kind):
        async def check():
            front_end = make_front_end(kind)
            with pytest.raises(ServerClosedError):
                front_end.submit_nowait(np.ones(4))
            await front_end.start()
            await front_end.shutdown()
            with pytest.raises(ServerClosedError):
                front_end.submit_nowait(np.ones(4))

        run_async(check())

    @pytest.mark.parametrize("kind", FRONT_ENDS)
    def test_two_dimensional_input_is_refused_before_admission(self, kind):
        async def check():
            async with make_front_end(kind) as front_end:
                with pytest.raises(ValueError, match="one \\(n_in,\\) input column"):
                    front_end.submit_nowait(np.ones((4, 2)))
                counts = (front_end.telemetry.submitted, front_end.telemetry.rejected)
                output = await front_end.submit(np.ones(4))
            return counts, output

        counts, output = run_async(check())
        assert counts == (0, 0)
        assert np.array_equal(output, demo_weights() @ np.ones(4))


# --------------------------------------------------------------------- #
# end-to-end across real worker processes
# --------------------------------------------------------------------- #
class TestFabricEndToEnd:
    def test_round_robin_digital_traffic(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                2, COMPUTE_HEAVY, engine_kwargs={"weights": weights}, max_batch=4
            )
            async with FabricGateway(specs, policy="round-robin") as gateway:
                futures = [
                    gateway.submit_nowait(np.full(4, float(index)))
                    for index in range(10)
                ]
                outputs = await asyncio.gather(*futures)
                for index, output in enumerate(outputs):
                    assert np.array_equal(output, weights @ np.full(4, float(index)))
                stats = gateway.stats()
                per_worker = stats["replicas"]
                assert set(per_worker) == {"w0", "w1"}
                # round-robin across two workers: both actually served
                assert per_worker["w0"]["completed"] == 5
                assert per_worker["w1"]["completed"] == 5
                fabric = stats["fabric"]
                assert fabric["policy"] == "round-robin"
                assert all(entry["alive"] for entry in fabric["workers"].values())
            # workers joined: submitting afterwards is a typed close error
            with pytest.raises(ServerClosedError):
                gateway.submit_nowait(np.ones(4))

        run_async(check())

    def test_cost_based_policy_routes_fabric_traffic(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                2, COMPUTE_HEAVY, engine_kwargs={"weights": weights}, max_batch=2
            )
            async with FabricGateway(specs, policy="cost-based") as gateway:
                outputs = await asyncio.gather(
                    *[gateway.submit_nowait(np.ones(4)) for _ in range(6)]
                )
                assert all(
                    np.array_equal(output, weights @ np.ones(4)) for output in outputs
                )
                assert gateway.stats()["completed"] == 6

        run_async(check())


class TestPriorityPreemption:
    def test_high_priority_overtakes_queued_low_priority(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.03},
                max_batch=1,
            )
            order = []

            def track(label):
                def done(future):
                    if not future.cancelled() and future.exception() is None:
                        order.append(label)

                return done

            async with FabricGateway(specs, max_inflight=1) as gateway:
                # first request goes straight in-flight (it is never recalled)
                first = gateway.submit_nowait(np.ones(4))
                first.add_done_callback(track("first"))
                low = gateway.submit_nowait(np.ones(4), priority=0)
                low.add_done_callback(track("low"))
                high = gateway.submit_nowait(np.ones(4), priority=5)
                high.add_done_callback(track("high"))
                await asyncio.gather(first, low, high)
            assert order == ["first", "high", "low"]

        run_async(check())

    def test_fifo_within_a_priority_class(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.02},
                max_batch=1,
            )
            order = []
            async with FabricGateway(specs, max_inflight=1) as gateway:
                futures = []
                for index in range(4):
                    future = gateway.submit_nowait(np.ones(4), priority=1)
                    future.add_done_callback(
                        lambda _f, i=index: order.append(i)
                    )
                    futures.append(future)
                await asyncio.gather(*futures)
            assert order == [0, 1, 2, 3]

        run_async(check())


class TestTenantQuotas:
    def test_tenant_at_quota_rejected_while_others_flow(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.03},
                max_batch=1,
            )
            async with FabricGateway(specs, tenant_quotas={"alice": 2}) as gateway:
                admitted = [
                    gateway.submit_nowait(np.ones(4), tenant="alice")
                    for _ in range(2)
                ]
                with pytest.raises(BackpressureError) as excinfo:
                    gateway.submit_nowait(np.ones(4), tenant="alice")
                assert excinfo.value.replica == "tenant:alice"
                assert excinfo.value.limit == 2
                # other tenants and unmetered traffic keep flowing
                other = gateway.submit_nowait(np.ones(4), tenant="bob")
                anonymous = gateway.submit_nowait(np.ones(4))
                await asyncio.gather(*admitted, other, anonymous)
                # quota is on *outstanding* work: completions release it
                again = await gateway.submit(np.ones(4), tenant="alice")
                assert np.array_equal(again, weights @ np.ones(4))
                stats = gateway.stats()
                assert stats["rejected"] == 1
                assert stats["fabric"]["tenant_outstanding"] == {}

        run_async(check())

    def test_default_quota_applies_to_unlisted_tenants(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.03},
                max_batch=1,
            )
            async with FabricGateway(specs, default_tenant_quota=1) as gateway:
                first = gateway.submit_nowait(np.ones(4), tenant="carol")
                with pytest.raises(BackpressureError):
                    gateway.submit_nowait(np.ones(4), tenant="carol")
                await first

        run_async(check())


    def test_request_expiring_at_admission_releases_its_quota(self):
        async def check():
            specs = make_worker_specs(1, GEMM, engine_kwargs={"weights": demo_weights()})
            async with FabricGateway(specs, tenant_quotas={"dave": 1}) as gateway:
                # past its deadline already: the dispatch in the admission
                # call itself fails it
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(np.ones(4), tenant="dave", deadline_s=-1.0)
                outstanding = gateway.stats()["fabric"]["tenant_outstanding"]
                output = await gateway.submit(np.ones(4), tenant="dave")
            return outstanding, output

        outstanding, output = run_async(check())
        assert outstanding == {}
        assert np.array_equal(output, demo_weights() @ np.ones(4))


class TestCrossProcessErrors:
    def test_worker_backpressure_and_deadline_arrive_typed(self):
        async def check():
            weights = demo_weights()
            serving_spec = WorkerSpec(
                name="w0",
                engine_factory=COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.05},
                max_batch=1,
            )
            rejecting_spec = WorkerSpec(
                name="wfull",
                engine_factory=COMPUTE_HEAVY,
                engine_kwargs={"weights": weights},
                max_queue_depth=0,  # worker-side admission rejects everything
            )
            async with FabricGateway([serving_spec, rejecting_spec]) as gateway:
                # worker-side BackpressureError crosses the pipe typed
                with pytest.raises(BackpressureError) as excinfo:
                    await gateway.submit(np.ones(4), replica="wfull")
                assert excinfo.value.replica == "wfull"
                assert excinfo.value.limit == 0

                # worker-side deadline expiry crosses the pipe typed: the
                # first request occupies the engine past the second's budget
                long_running = gateway.submit_nowait(np.ones(4), replica="w0")
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(
                        np.ones(4), replica="w0", deadline_s=0.005
                    )
                await long_running

        run_async(check())

    def test_worker_backpressure_counts_as_rejected_not_failed(self):
        async def check():
            spec = WorkerSpec(
                name="wfull", engine_factory=GEMM,
                engine_kwargs={"weights": demo_weights()}, max_queue_depth=0,
            )
            async with FabricGateway([spec]) as gateway:
                with pytest.raises(BackpressureError):
                    await gateway.submit(np.ones(4))
                return gateway.stats(), gateway.scheduler.total_load()

        stats, load = run_async(check())
        # admitted at the gateway, refused by the worker's own bound
        assert (stats["submitted"], stats["rejected"]) == (1, 1)
        assert stats["replicas"]["wfull"]["failed"] == 0
        assert load == 0

    def test_deadline_counts_from_arrival_while_the_engine_blocks(self):
        # A submit that reaches the worker while a blocking engine call
        # holds its event loop waits in the inbox; its budget must still
        # run from the moment the pipe delivered it, so a budget shorter
        # than the block expires, typed, on the worker side.
        async def check():
            backend = _SignallingBackend(service_s_per_column=0.3)
            spec = WorkerSpec(
                name="w0",
                engine_factory=lambda: GemmEngine(backend=backend, weights=demo_weights()),
                max_batch=1,
                warm_start=False,
            )
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            serving = asyncio.ensure_future(worker.serve())
            pipe.deliver(submit_frame((1, np.ones(4), None, None, None)))

            entered = []

            def submit_while_blocked():
                entered.append(backend.entered.wait(10))
                pipe.deliver(submit_frame((2, np.ones(4), None, 0.005, None)))

            pusher = threading.Thread(target=submit_while_blocked)
            pusher.start()
            by_id = await pipe.replies(2)
            pusher.join(10)
            assert not pusher.is_alive()
            assert entered == [True]
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)

            assert by_id[1][0] == "result"
            assert by_id[2][0] == "error"
            error = wire.decode_exception(by_id[2][2])
            assert isinstance(error, DeadlineExceededError)
            assert error.deadline_s == pytest.approx(0.005)

        run_async(check())

    def test_worker_stamps_arrivals_with_its_loop_time(self, run_offset_loop):
        # the reader thread stamps each delivered submit with the worker
        # loop's time(); a 10 s budget re-anchored there is met
        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": demo_weights()})
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            stamped = []
            worker.replica.add_observer(
                lambda _name, request, *_rest: stamped.append(
                    (request.submitted_at, request.deadline_at)
                )
            )
            serving = asyncio.ensure_future(worker.serve())
            before = asyncio.get_running_loop().time()
            pipe.deliver(submit_frame((1, np.ones(4), None, 10.0, None)))
            replies = await pipe.replies(1)
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)
            return before, replies, stamped

        before, replies, stamped = run_offset_loop(check())
        assert replies[1][0] == "result"
        [(submitted_at, deadline_at)] = stamped
        assert before <= submitted_at < before + 10.0
        assert deadline_at == pytest.approx(submitted_at + 10.0)

    def test_gateway_stamps_with_its_loop_time(self, run_offset_loop):
        async def check():
            loop = asyncio.get_running_loop()
            specs = make_worker_specs(1, GEMM, engine_kwargs={"weights": demo_weights()})
            async with FabricGateway(specs) as gateway:
                now = loop.time()
                started_at = gateway.telemetry.started_at
                met = gateway.submit_nowait(np.ones(4), deadline_s=10.0)
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(np.ones(4), deadline_s=-1.0)
                await met
            return now, started_at, gateway.stats()

        now, started_at, stats = run_offset_loop(check())
        assert now - 120.0 < started_at <= now
        assert stats["completed"] == 1
        assert stats["expired"] == 1

    def test_gateway_side_deadline_expiry_is_typed(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.05},
                max_batch=1,
            )
            # max_inflight=1: the second request waits at the gateway and
            # expires there, before ever crossing the pipe
            async with FabricGateway(specs, max_inflight=1) as gateway:
                long_running = gateway.submit_nowait(np.ones(4))
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(np.ones(4), deadline_s=0.005)
                await long_running
                assert gateway.stats()["expired"] == 1

        run_async(check())

    def test_worker_crash_fails_outstanding_and_pool_survives(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                2,
                COMPUTE_HEAVY,
                engine_kwargs={"weights": weights, "service_s_per_column": 0.2},
                max_batch=1,
            )
            async with FabricGateway(specs) as gateway:
                victim = gateway.submit_nowait(np.ones(4), replica="w0")
                await asyncio.sleep(0.05)  # let w0 start serving it
                gateway.kill_worker("w0")
                with pytest.raises(WorkerCrashedError) as excinfo:
                    await victim
                assert excinfo.value.worker == "w0"

                # pinning to the dead worker is refused with the same type
                with pytest.raises(WorkerCrashedError):
                    gateway.submit_nowait(np.ones(4), replica="w0")

                # unpinned traffic fails over to the surviving worker
                output = await gateway.submit(np.ones(4))
                assert np.array_equal(output, weights @ np.ones(4))
                assert gateway.stats()["fabric"]["workers"]["w0"]["alive"] is False

        run_async(check())

    def test_all_workers_dead_is_typed(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                1, COMPUTE_HEAVY, engine_kwargs={"weights": weights}
            )
            gateway = FabricGateway(specs)
            await gateway.start()
            try:
                await gateway.submit(np.ones(4))  # prove it was alive
                gateway.kill_worker("w0")
                await asyncio.sleep(0.3)
                with pytest.raises(WorkerCrashedError):
                    gateway.submit_nowait(np.ones(4))
            finally:
                await gateway.shutdown(drain=False)

        run_async(check())


# --------------------------------------------------------------------- #
# the batched pipe wire: one submit frame per dispatch tick, one result
# frame per fused model group
# --------------------------------------------------------------------- #
class _RecordingConnection:
    """A gateway pipe end that records every message it sends."""

    def __init__(self, conn):
        self._conn = conn
        self.sent = []

    def send(self, message):
        self.sent.append(message)
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def integer_columns(n, n_in=4):
    """Integer-valued inputs: every summation order gives the same floats."""
    return np.arange(n * n_in, dtype=float).reshape(n, n_in) % 7 - 3


class TestBatchedWire:
    def test_one_tick_of_submits_crosses_as_one_frame(self):
        async def check():
            weights = demo_weights()
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": weights})
            async with FabricGateway([spec], max_inflight=16) as gateway:
                handle = gateway.handles[0]
                handle.conn = recorder = _RecordingConnection(handle.conn)
                inputs = integer_columns(16)
                futures = [gateway.submit_nowait(column) for column in inputs]
                outputs = await asyncio.gather(*futures)
            submits = [message for message in recorder.sent if message[0] == "submit"]
            assert len(submits) == 1
            rows = submits[0][1]
            assert len(rows) == 16
            assert [row[0] for row in rows] == sorted(row[0] for row in rows)
            for column, output in zip(inputs, outputs):
                assert np.array_equal(output, weights @ column)

        run_async(check())

    def test_one_model_group_replies_with_one_result_frame(self):
        async def check():
            weights = demo_weights()
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": weights})
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            latencies = {}
            worker.replica.add_observer(
                lambda _name, request, latency_s, *_rest: latencies.__setitem__(
                    request.request_id, latency_s
                )
            )
            serving = asyncio.ensure_future(worker.serve())
            inputs = integer_columns(8)
            pipe.deliver(
                submit_frame(*[(i, inputs[i], None, None, None) for i in range(8)])
            )
            await pipe.replies(8)
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)

            results = [message for message in pipe.sent if message[0] == "result"]
            assert len(results) == 1
            _, request_ids, outputs, batch_size, worker_latency_s, spans = results[0]
            assert request_ids == list(range(8))
            assert batch_size == 8 and outputs.shape == (8, 3)
            reference = engines.make_gemm_engine(weights=weights)
            for row, column in enumerate(inputs):
                alone = reference.run_batch(None, column[:, None])[:, 0]
                assert np.array_equal(outputs[row], alone)
            # index 4 is the rows' summed worker latency (perfbench reads it)
            assert worker_latency_s == pytest.approx(sum(latencies.values()), rel=1e-12)
            assert spans is None  # untraced worker ships no spans

        run_async(check())

    def test_model_groups_of_different_widths_reply_separately(self):
        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM, warm_start=False)
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            serving = asyncio.ensure_future(worker.serve())
            wide, narrow = demo_weights(3, 4), demo_weights(2, 4) + 1.0
            inputs = integer_columns(6)
            models = [wide if i % 2 == 0 else narrow for i in range(6)]
            pipe.deliver(submit_frame(*[(i, inputs[i], models[i], None, None) for i in range(6)]))
            await pipe.replies(6)
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)

            results = [message for message in pipe.sent if message[0] == "result"]
            assert sorted(message[1] for message in results) == [[0, 2, 4], [1, 3, 5]]
            for _, request_ids, outputs, batch_size, _latency, _spans in results:
                weights = models[request_ids[0]]
                assert batch_size == 3 and outputs.shape == (3, weights.shape[0])
                for row, request_id in enumerate(request_ids):
                    assert np.array_equal(outputs[row], weights @ inputs[request_id])

        run_async(check())

    def test_mixed_frame_answers_every_row_typed(self):
        async def check():
            weights = demo_weights()
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": weights}, max_queue_depth=4)
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            serving = asyncio.ensure_future(worker.serve())
            inputs = integer_columns(5)
            pipe.deliver(
                submit_frame(
                    (0, inputs[0], None, -1.0, None),  # expired on arrival
                    *[(i, inputs[i], None, None, None) for i in (1, 2, 3)],
                    (4, inputs[4], None, None, None),  # over max_queue_depth
                )
            )
            by_id = await pipe.replies(5)
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)

            assert sorted(by_id) == [0, 1, 2, 3, 4]
            expired = wire.decode_exception(by_id[0][2])
            assert isinstance(expired, DeadlineExceededError)
            assert expired.deadline_s == pytest.approx(-1.0)
            rejected = wire.decode_exception(by_id[4][2])
            assert isinstance(rejected, BackpressureError)
            assert (rejected.replica, rejected.limit) == ("w0", 4)
            [result] = [message for message in pipe.sent if message[0] == "result"]
            assert result[1] == [1, 2, 3] and result[3] == 3
            for row, request_id in enumerate(result[1]):
                assert np.array_equal(result[2][row], weights @ inputs[request_id])

        run_async(check())

    def test_abort_in_the_dispatch_tick_sends_no_submit_after_shutdown(self):
        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": demo_weights()})
            gateway = FabricGateway([spec])
            await gateway.start()
            handle = gateway.handles[0]
            handle.conn = recorder = _RecordingConnection(handle.conn)
            futures = [gateway.submit_nowait(np.ones(4)) for _ in range(4)]
            await gateway.shutdown(drain=False)
            kinds = [message[0] for message in recorder.sent]
            assert "shutdown" in kinds
            assert "submit" not in kinds[kinds.index("shutdown"):]
            for future in futures:
                assert isinstance(future.exception(), ServerClosedError)

        run_async(check())

    def test_failed_frame_send_fails_its_rows_typed(self):
        class _BrokenConnection(_RecordingConnection):
            def send(self, message):
                raise BrokenPipeError("pipe closed under the gateway")

        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": demo_weights()})
            gateway = FabricGateway([spec])
            await gateway.start()
            handle = gateway.handles[0]
            handle.conn = _BrokenConnection(handle.conn)
            futures = [gateway.submit_nowait(np.ones(4)) for _ in range(3)]
            try:
                for future in futures:
                    with pytest.raises(WorkerCrashedError):
                        await asyncio.wait_for(future, 5)
                assert handle.inflight == 0 and not handle.alive
            finally:
                gateway.kill_worker("w0")
                await gateway.shutdown(drain=False)

        run_async(check())

    def test_worker_replies_before_bye(self):
        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": demo_weights()})
            pipe = _InProcessPipe()
            worker = WorkerReplica(pipe, spec)
            serving = asyncio.ensure_future(worker.serve())
            inputs = integer_columns(8)
            pipe.deliver(
                submit_frame(*[(i, inputs[i], None, None, None) for i in range(8)])
            )
            pipe.deliver(("shutdown", True))
            await asyncio.wait_for(serving, 10)

            kinds = [message[0] for message in pipe.sent]
            assert kinds[-1] == "bye" and kinds.count("bye") == 1
            assert sorted(pipe.answered()) == list(range(8))

        run_async(check())


class TestMergedWorkerMetrics:
    @pytest.mark.parametrize("traced", [False, True])
    def test_bye_merges_worker_counters_into_the_gateway_registry(self, traced):
        n_requests = 12
        tracer = Tracer(prefix="gw", process="gateway") if traced else None

        async def check():
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": demo_weights()}, max_batch=4)
            gateway = FabricGateway([spec], tracer=tracer)
            await gateway.start()
            await asyncio.gather(
                *(gateway.submit(np.full(4, float(index))) for index in range(n_requests))
            )
            await gateway.shutdown(drain=True)
            return gateway

        gateway = run_async(check())
        metrics = gateway.telemetry.metrics
        assert metrics.get("worker.w0.batcher.requests").value == n_requests
        assert metrics.get("worker.w0.engine.columns").value == n_requests
        stats = gateway.stats()
        assert json.loads(json.dumps(stats)) == stats
        merged = stats["fabric"]["metrics"]
        assert merged["worker.w0.batcher.requests"] == {
            "type": "counter", "value": n_requests,
        }
        assert all(name.startswith("worker.w0.") for name in merged)
        if traced:
            # the last batch span closes after its rows' result frame left:
            # only the bye carries it, so every batch span arrived
            batches = metrics.get("worker.w0.batcher.batches").value
            assert len(tracer.spans_named("batch")) == batches > 0


class TestBitwiseEquivalence:
    def test_fabric_matches_in_process_serving_exactly(self, rng):
        root_seed = 2024
        weights = rng.normal(size=(4, 6))
        inputs = [rng.normal(size=6) for _ in range(8)]
        n_workers = 2

        async def in_process():
            replicas = [
                Replica(
                    f"w{index}",
                    GemmEngine(
                        backend="analog-photonic",
                        weights=weights,
                        rng=derive_worker_seed(root_seed, index),
                    ),
                    max_batch=1,
                )
                for index in range(n_workers)
            ]
            outputs = []
            async with InferenceServer(replicas) as server:
                for index, column in enumerate(inputs):
                    outputs.append(
                        await server.submit(
                            column, replica=f"w{index % n_workers}"
                        )
                    )
            return outputs

        async def fabric():
            specs = make_worker_specs(
                n_workers,
                GEMM,
                engine_kwargs={"backend": "analog-photonic", "weights": weights},
                root_seed=root_seed,
                max_batch=1,
                warm_start=False,
            )
            outputs = []
            async with FabricGateway(specs) as gateway:
                for index, column in enumerate(inputs):
                    outputs.append(
                        await gateway.submit(
                            column, replica=f"w{index % n_workers}"
                        )
                    )
            return outputs

        expected = run_async(in_process())
        actual = run_async(fabric())
        for got, want in zip(actual, expected):
            # bitwise: the same derived seeds replay the same noise draws
            assert np.array_equal(got, want)


class TestWireFrontDoor:
    def test_tcp_client_round_trip_and_typed_errors(self):
        async def check():
            weights = demo_weights()
            specs = make_worker_specs(
                2, COMPUTE_HEAVY, engine_kwargs={"weights": weights}, max_batch=4
            )
            async with FabricGateway(specs, tenant_quotas={"t": 0}) as gateway:
                host, port = await gateway.start_server()
                async with await FabricClient.connect(host, port) as client:
                    # results cross the socket bitwise
                    output = await client.submit(np.full(4, 2.0))
                    assert np.array_equal(output, weights @ np.full(4, 2.0))

                    # explicit weights ride the binary payload
                    other = np.ones((2, 4))
                    output = await client.submit(np.ones(4), weights=other)
                    assert np.array_equal(output, other @ np.ones(4))

                    # concurrent requests multiplex over one connection
                    outputs = await asyncio.gather(
                        *[
                            await client.submit_nowait(np.full(4, float(index)))
                            for index in range(6)
                        ]
                    )
                    for index, got in enumerate(outputs):
                        assert np.array_equal(
                            got, weights @ np.full(4, float(index))
                        )

                    # admission rejections arrive as the same typed error
                    with pytest.raises(BackpressureError) as excinfo:
                        await client.submit(np.ones(4), tenant="t")
                    assert excinfo.value.replica == "tenant:t"

                    # deadline expiry arrives as the same typed error
                    with pytest.raises(DeadlineExceededError):
                        await client.submit(np.ones(4), deadline_s=0.0)

                    stats = await client.stats()
                    assert set(stats["fabric"]["workers"]) == {"w0", "w1"}

        run_async(check())


class TestMalformedFrames:
    """Hostile frames end their own connection with a typed error, nothing else."""

    FRAMES = {
        "unknown dtype": wire.pack_frame(
            {"kind": "submit", "id": 1,
             "arrays": [{"dtype": "<x9", "shape": [4], "nbytes": 32}]},
            bytes(32),
        ),
        "shape/nbytes mismatch": wire.pack_frame(
            {"kind": "submit", "id": 2,
             "arrays": [{"dtype": "<f8", "shape": [5], "nbytes": 32}]},
            bytes(32),
        ),
        "no arrays": wire.pack_frame({"kind": "submit", "id": 3}),
        "non-object header": wire.pack_frame([1, 2, 3]),
        "invalid JSON": wire.FRAME_PREFIX.pack(9, 0) + b"{not json",
        "oversized length prefix": wire.FRAME_PREFIX.pack(wire.MAX_FRAME_BYTES, 1),
    }

    def test_each_frame_gets_a_typed_error_and_the_gateway_keeps_serving(self):
        async def check():
            fired = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: fired.append(context)
            )
            weights = demo_weights()
            spec = WorkerSpec(name="w0", engine_factory=GEMM,
                              engine_kwargs={"weights": weights})
            refused = {}
            async with FabricGateway([spec]) as gateway:
                host, port = await gateway.start_server()
                async with await FabricClient.connect(host, port) as client:
                    for label, frame in self.FRAMES.items():
                        reader, writer = await asyncio.open_connection(host, port)
                        writer.write(frame)
                        await writer.drain()
                        header, _payload = await wire.read_frame(reader)
                        refused[label] = wire.decode_exception(header["error"])
                        # the gateway closes the offending connection only
                        with pytest.raises(asyncio.IncompleteReadError):
                            await wire.read_frame(reader)
                        writer.close()
                        await writer.wait_closed()
                        output = await client.submit(np.full(4, 2.0))
                        assert np.array_equal(output, weights @ np.full(4, 2.0))
            assert fired == []
            return refused

        refused = run_async(check())
        assert set(refused) == set(self.FRAMES)
        for label, error in refused.items():
            assert isinstance(error, ProtocolError), label
