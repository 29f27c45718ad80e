"""Tests for the inference serving runtime (repro.serving)."""

import asyncio

import numpy as np
import pytest

from repro.core.backends import AnalogPhotonicBackend
from repro.core.nn import MLP
from repro.obs.metrics import RELATIVE_ACCURACY, Histogram
from repro.serving import (
    BackpressureError,
    DeadlineExceededError,
    GemmEngine,
    InferenceEngine,
    InferenceRequest,
    InferenceServer,
    MicroBatcher,
    MLPEngine,
    Replica,
    ReplicaScheduler,
    ServerClosedError,
    ServingTelemetry,
    SoCGemmEngine,
    bursty_arrival_times,
    make_column_workload,
    poisson_arrival_times,
    run_closed_loop,
    run_open_loop,
    weight_hash,
)
from repro.serving.batching import SHUTDOWN
from repro.serving.engine import DEFAULT_MODEL_KEY
from repro.serving.errors import ServingError
from repro.system import PhotonicSoC


def run_async(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------- #
# engines and the compiled-weights cache
# --------------------------------------------------------------------- #
class TestEngines:
    def test_gemm_engine_matches_backend(self, rng):
        weights = rng.normal(size=(6, 4))
        inputs = rng.normal(size=(4, 5))
        engine = GemmEngine(backend="ideal-digital")
        assert np.allclose(engine.run_batch(weights, inputs), weights @ inputs)

    def test_weight_hash_distinguishes_content_and_shape(self, rng):
        weights = rng.normal(size=(4, 4))
        assert weight_hash(weights) == weight_hash(weights.copy())
        assert weight_hash(weights) != weight_hash(weights + 1e-9)
        assert weight_hash(weights) != weight_hash(weights.reshape(2, 8))

    def test_compiled_cache_hits_skip_mesh_reprogramming(self, rng):
        weights = rng.normal(size=(5, 5))
        engine = GemmEngine(backend="analog-photonic", rng=0)
        first = engine.compile(weights)
        second = engine.compile(weights.copy())
        assert first is second
        assert engine.stats.compiles == 1
        assert engine.stats.cache_hits == 1
        # the compiled runner reuses the programmed PhotonicMVM; only the
        # first compile programs a mesh
        backend = engine.backend
        assert isinstance(backend, AnalogPhotonicBackend)
        assert len(backend._engines) == 1

    def test_compiled_cache_is_bounded_lru(self, rng):
        engine = GemmEngine(backend="ideal-digital", max_models=2)
        matrices = [rng.normal(size=(3, 3)) for _ in range(3)]
        for weights in matrices:
            engine.compile(weights)
        assert engine.cached_models == 2
        # the first model was evicted: compiling it again is a miss
        engine.compile(matrices[0])
        assert engine.stats.compiles == 4

    def test_default_model_binding(self, rng):
        weights = rng.normal(size=(4, 4))
        engine = GemmEngine(backend="ideal-digital", weights=weights)
        inputs = rng.normal(size=(4, 2))
        assert np.allclose(engine.run_batch(None, inputs), weights @ inputs)
        unbound = GemmEngine(backend="ideal-digital")
        with pytest.raises(ServingError):
            unbound.run_batch(None, inputs)

    def test_engine_rejects_wrong_column_length(self, rng):
        engine = GemmEngine(backend="ideal-digital", weights=rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            engine.run_batch(None, rng.normal(size=(3, 2)))

    def test_mlp_engine_matches_float_reference(self, rng):
        model = MLP.random_init([6, 8, 3], rng=0)
        engine = MLPEngine(model, photonic=False)
        columns = rng.normal(size=(6, 4))
        expected = model.forward(columns.T).T
        assert np.allclose(engine.run_batch(None, columns), expected)
        with pytest.raises(ServingError):
            engine.run_batch(rng.normal(size=(3, 3)), columns)

    def test_mlp_engine_photonic_path_close_to_reference(self, rng):
        model = MLP.random_init([5, 6, 3], rng=0)
        engine = MLPEngine(model, photonic=True, add_noise=False, rng=0)
        columns = rng.normal(size=(5, 3))
        expected = model.forward(columns.T).T
        produced = engine.run_batch(None, columns)
        assert np.linalg.norm(produced - expected) / np.linalg.norm(expected) < 0.1

    def test_soc_engine_serves_tiled_offloads(self, rng):
        soc = PhotonicSoC()
        soc.add_photonic_accelerator()
        weights = rng.integers(-5, 6, size=(8, 4))
        engine = SoCGemmEngine(soc, weights=weights)
        columns = rng.integers(-5, 6, size=(4, 3)).astype(float)
        produced = engine.run_batch(None, columns)
        assert np.array_equal(produced, weights @ columns.astype(np.int64))
        assert engine.offload_cycles > 0
        assert engine.last_report.pipeline["n_tiles"] >= 1

    def test_analog_latency_hint_scales_with_batch(self, rng):
        engine = GemmEngine(backend="analog-photonic", rng=0)
        engine.compile(rng.normal(size=(4, 4)))
        assert engine.latency_hint_s(10) == pytest.approx(2 * engine.latency_hint_s(5))


# --------------------------------------------------------------------- #
# micro-batching
# --------------------------------------------------------------------- #
class TestBatching:
    def test_queued_requests_fuse_into_one_engine_call(self, rng):
        weights = rng.normal(size=(4, 4))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=16, max_wait_s=0.0)
            server = InferenceServer([replica])
            columns = [rng.normal(size=4) for _ in range(8)]
            # enqueue everything before the batcher task first runs
            futures = []
            server._started = True  # queue before starting the loop task
            futures = [server.submit_nowait(column) for column in columns]
            await server.start()
            outputs = await asyncio.gather(*futures)
            await server.shutdown()
            return engine, columns, outputs

        engine, columns, outputs = run_async(scenario())
        assert engine.stats.batches == 1
        assert engine.stats.columns == 8
        for column, output in zip(columns, outputs):
            assert np.allclose(output, weights @ column)

    def test_max_batch_one_is_the_serial_baseline(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=1, max_wait_s=0.0)
            async with InferenceServer([replica]) as server:
                results = await asyncio.gather(
                    *(server.submit(rng.normal(size=3)) for _ in range(5))
                )
            return engine, results

        engine, results = run_async(scenario())
        assert engine.stats.batches == 5
        assert all(result.shape == (3,) for result in results)

    def test_mixed_models_split_into_per_model_calls(self, rng):
        w1 = rng.normal(size=(3, 3))
        w2 = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital")
            replica = Replica("r0", engine, max_batch=16, max_wait_s=0.0)
            server = InferenceServer([replica])
            server._started = True
            x1, x2 = rng.normal(size=3), rng.normal(size=3)
            f1 = server.submit_nowait(x1, weights=w1)
            f2 = server.submit_nowait(x2, weights=w2)
            f3 = server.submit_nowait(x1, weights=w1)
            await server.start()
            r1, r2, r3 = await asyncio.gather(f1, f2, f3)
            await server.shutdown()
            return engine, (x1, x2), (r1, r2, r3)

        engine, (x1, x2), (r1, r2, r3) = run_async(scenario())
        # one fused call for the two w1 requests, one for the w2 request
        assert engine.stats.batches == 2
        assert np.allclose(r1, w1 @ x1)
        assert np.allclose(r2, w2 @ x2)
        assert np.allclose(r3, w1 @ x1)

    def test_wait_window_fuses_a_straggler(self, rng):
        """max_wait_s holds the batch open so a late request joins it."""
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            # generous window: the batch closes as soon as it is full, so
            # the test never actually waits the full second
            replica = Replica("r0", engine, max_batch=2, max_wait_s=1.0)
            async with InferenceServer([replica]) as server:
                first = server.submit_nowait(rng.normal(size=3))
                await asyncio.sleep(0.02)  # straggler arrives inside the window
                second = server.submit_nowait(rng.normal(size=3))
                await asyncio.gather(first, second)
            return engine

        engine = run_async(scenario())
        assert engine.stats.batches == 1
        assert engine.stats.columns == 2

    def test_wait_window_closes_on_timeout(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8, max_wait_s=0.02)
            async with InferenceServer([replica]) as server:
                result = await server.submit(rng.normal(size=3))
            return engine, result

        engine, result = run_async(scenario())
        # no straggler ever arrived: the window expired and served a single
        assert engine.stats.batches == 1
        assert engine.stats.columns == 1
        assert result.shape == (3,)

    def test_shutdown_cuts_an_open_wait_window_short(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8, max_wait_s=30.0)
            server = InferenceServer([replica])
            await server.start()
            future = server.submit_nowait(rng.normal(size=3))
            await asyncio.sleep(0.01)  # batcher is now inside the window
            started = asyncio.get_running_loop().time()
            await server.shutdown(drain=True)  # sentinel interrupts the wait
            elapsed = asyncio.get_running_loop().time() - started
            return await future, elapsed

        result, elapsed = run_async(scenario())
        assert result.shape == (3,)
        assert elapsed < 5.0  # nowhere near the 30 s window

    def test_abort_resolves_request_held_in_open_window(self, rng):
        """Aborting mid-window must fail the pulled request, never hang it."""
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8, max_wait_s=30.0)
            server = InferenceServer([replica])
            await server.start()
            future = server.submit_nowait(rng.normal(size=3))
            await asyncio.sleep(0.01)  # request is now held in the window
            await server.shutdown(drain=False)
            with pytest.raises(ServerClosedError):
                await future
            return replica

        replica = run_async(scenario())
        assert replica.inflight == 0

    def test_restart_resets_telemetry_window(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            server = InferenceServer([Replica("r0", engine, max_batch=4)])
            await server.start()
            await server.submit(rng.normal(size=3))
            await server.shutdown()
            frozen = server.telemetry.elapsed_s()
            await asyncio.sleep(0.02)
            await server.start()  # restart must unfreeze the lifetime window
            await server.submit(rng.normal(size=3))
            running = server.telemetry.elapsed_s()
            await server.shutdown()
            return frozen, running

        frozen, running = run_async(scenario())
        assert running > frozen

    def test_abort_fails_queued_requests(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=2)
            server = InferenceServer([replica])
            server._started = True  # queue without a consumer
            futures = [server.submit_nowait(rng.normal(size=3)) for _ in range(4)]
            await server.start()
            await server.shutdown(drain=False)
            return await asyncio.gather(*futures, return_exceptions=True)

        results = run_async(scenario())
        # whatever was not served by the time of the abort failed typed
        assert any(isinstance(result, ServerClosedError) for result in results) or all(
            not isinstance(result, Exception) for result in results
        )
        assert all(
            not isinstance(result, Exception) or isinstance(result, ServerClosedError)
            for result in results
        )

    def test_mismatched_length_request_fails_its_batch_not_the_server(self, rng):
        """A bad column length must error that batch, never kill the batcher."""
        weights = rng.normal(size=(4, 4))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8)
            server = InferenceServer([replica])
            server._started = True
            good_a = server.submit_nowait(rng.normal(size=4))
            bad = server.submit_nowait(rng.normal(size=3))  # fused with good_a
            await server.start()
            results = await asyncio.gather(good_a, bad, return_exceptions=True)
            # the batcher task survives and keeps serving
            follow_up = await server.submit(rng.normal(size=4))
            await server.shutdown()
            return results, follow_up

        results, follow_up = run_async(scenario())
        assert all(isinstance(result, Exception) for result in results)
        assert follow_up.shape == (4,)

    def test_precomputed_key_skips_rehashing(self, rng):
        weights = rng.normal(size=(4, 4))
        engine = GemmEngine(backend="ideal-digital")
        key = weight_hash(weights)
        engine.compile(weights, key=key)
        # a poisoned model_key proves the key path never re-hashes
        engine.model_key = lambda w: (_ for _ in ()).throw(AssertionError("re-hash"))
        compiled = engine.compile(weights, key=key)
        assert compiled.key == key
        assert engine.stats.cache_hits == 1

    def test_mlp_engine_rejects_explicit_weights_via_key_path(self, rng):
        model = MLP.random_init([4, 3], rng=0)
        engine = MLPEngine(model, photonic=False)
        with pytest.raises(ServingError):
            engine.run_batch(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), key="k")

    def test_engine_failure_propagates_to_callers(self, rng):
        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=rng.normal(size=(3, 3)))
            replica = Replica("r0", engine, max_batch=4)
            async with InferenceServer([replica]) as server:
                with pytest.raises(ValueError):
                    await server.submit(rng.normal(size=7))  # wrong column length
                # the server keeps serving after a failed batch
                good = await server.submit(rng.normal(size=3))
            return good

        assert run_async(scenario()).shape == (3,)

    def test_expected_columns_reports_observed_then_configured_width(self, rng):
        weights = rng.normal(size=(4, 4))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=16, max_wait_s=0.0)
            # before any traffic: the configured fusing bound
            assert replica.expected_columns() == 16
            server = InferenceServer([replica])
            server._started = True  # queue before starting the loop task
            futures = [
                server.submit_nowait(rng.normal(size=4)) for _ in range(8)
            ]
            await server.start()
            await asyncio.gather(*futures)
            await server.shutdown()
            return replica

        replica = run_async(scenario())
        # after traffic: the observed mean fused batch (8 requests, 1 batch)
        assert replica.batcher.expected_columns() == 8
        assert replica.expected_columns() == 8


# --------------------------------------------------------------------- #
# per-model micro-batches, driven at the MicroBatcher level
# --------------------------------------------------------------------- #
MODEL_WEIGHTS = [float(model + 1) * np.eye(3) for model in range(4)]
MODEL_KEYS = [weight_hash(weights) for weights in MODEL_WEIGHTS]


class RecordingEngine(GemmEngine):
    """Ideal-digital engine recording every call as ``(model, request ids)``.

    A request's id rides in its input column, so the record shows which
    requests each call fused and in what order.  ``on_call`` runs at the
    start of every call.
    """

    def __init__(self, on_call=None):
        super().__init__(backend="ideal-digital")
        self.calls = []
        self.on_call = on_call

    def run_batch(self, weights, inputs, key=None):
        self.calls.append((MODEL_KEYS.index(key), [int(value) for value in inputs[0]]))
        if self.on_call is not None:
            self.on_call()
        return super().run_batch(weights, inputs, key=key)


def make_request(request_id, model=0, weights=None):
    """An unkeyed request with id ``request_id`` against ``MODEL_WEIGHTS[model]``.

    ``weights`` overrides the model's array (e.g. an equal copy of it).
    """
    loop = asyncio.get_running_loop()
    return InferenceRequest(
        inputs=np.full(3, float(request_id)),
        future=loop.create_future(),
        submitted_at=loop.time(),
        weights=MODEL_WEIGHTS[model] if weights is None else weights,
        request_id=request_id,
    )


async def serve_prefilled(batcher, queue, requests):
    """Queue ``requests`` and the shutdown sentinel, then serve them all."""
    for request in requests:
        queue.put_nowait(request)
    queue.put_nowait(SHUTDOWN)
    await asyncio.wait_for(batcher.serve(queue), timeout=10.0)


class TestPerModelMicroBatches:
    def test_interleaved_models_fill_each_call_to_max_batch(self):
        async def scenario():
            engine = RecordingEngine()
            requests = [make_request(index, index % 4) for index in range(32)]
            await serve_prefilled(MicroBatcher(engine, max_batch=8), asyncio.Queue(), requests)
            return engine, requests

        engine, requests = run_async(scenario())
        # one call of 8 per model; a bound on the whole pull gave 16 calls of 2
        assert [(model, len(ids)) for model, ids in engine.calls] == [
            (model, 8) for model in range(4)
        ]
        for request in requests:
            model = MODEL_KEYS.index(request.model_key)
            assert np.array_equal(
                request.future.result(), np.full(3, (model + 1.0) * request.request_id)
            )

    def test_per_model_arrival_order_is_kept_across_held_over_pulls(self):
        models = np.random.default_rng(4).integers(0, 4, size=40)

        async def scenario():
            engine = RecordingEngine()
            requests = [make_request(index, int(model)) for index, model in enumerate(models)]
            await serve_prefilled(MicroBatcher(engine, max_batch=4), asyncio.Queue(), requests)
            return engine

        engine = run_async(scenario())
        assert all(len(ids) <= 4 for _, ids in engine.calls)
        for model in range(4):
            served = [index for called, ids in engine.calls if called == model for index in ids]
            assert served == [index for index, m in enumerate(models) if m == model]

    @pytest.mark.parametrize(
        "n_requests, max_batch, expected",
        [
            # (call widths, replica depth during each call), captured when
            # max_batch bounded the whole pull; request 3 is cancelled and
            # request 10 has expired before dispatch
            (21, 8, ([7, 7, 5], [14, 6, 0])),
            (16, 8, ([7, 7], [9, 1])),
            (5, 1, ([1, 1, 1, 1], [5, 4, 3, 1])),
        ],
    )
    def test_single_model_batches_are_unchanged(self, n_requests, max_batch, expected):
        async def scenario():
            depths = []
            engine = RecordingEngine(on_call=lambda: depths.append(replica.depth))
            replica = Replica("r0", engine, max_batch=max_batch, max_queue_depth=64)
            scheduler = ReplicaScheduler([replica])
            requests = [make_request(index) for index in range(n_requests)]
            requests[3].future.cancel()
            if n_requests > 10:
                requests[10].deadline_at = requests[10].submitted_at - 1.0
            for request in requests:
                scheduler.submit(request)
            await serve_prefilled(replica.batcher, replica.queue, [])
            return engine, depths

        engine, depths = run_async(scenario())
        assert ([len(ids) for _, ids in engine.calls], depths) == expected

    def test_straggler_window_closes_at_the_first_full_group(self):
        async def scenario():
            engine = RecordingEngine()
            batcher = MicroBatcher(engine, max_batch=2, max_wait_s=30.0)
            queue = asyncio.Queue()
            queue.put_nowait(make_request(0, 0))
            queue.put_nowait(make_request(1, 1))
            task = asyncio.get_running_loop().create_task(batcher.serve(queue))
            await asyncio.sleep(0)  # the batcher drained both and opened its window
            # a new model joins the open window; the second model-0 request
            # fills its group and closes it; the last model-1 request opens
            # the next pull, which the sentinel ends
            for request in (make_request(2, 2), make_request(3, 0), make_request(4, 1)):
                queue.put_nowait(request)
            queue.put_nowait(SHUTDOWN)
            started = asyncio.get_running_loop().time()
            await asyncio.wait_for(task, timeout=10.0)
            return engine, asyncio.get_running_loop().time() - started

        engine, elapsed = run_async(scenario())
        assert engine.calls == [(0, [0, 3]), (1, [1]), (2, [2]), (1, [4])]
        assert elapsed < 5.0  # nowhere near the 30 s window

    def test_each_weights_array_is_hashed_once_per_pull(self, monkeypatch):
        hashed = []

        def counting_hash(weights):
            hashed.append(id(weights))
            return weight_hash(weights)

        monkeypatch.setattr("repro.serving.batching.weight_hash", counting_hash)

        async def scenario():
            engine = RecordingEngine()
            requests = [make_request(index, index % 4) for index in range(64)]
            await serve_prefilled(MicroBatcher(engine, max_batch=32), asyncio.Queue(), requests)
            return engine, requests

        engine, requests = run_async(scenario())
        # one pull of 64 requests over 4 arrays: 4 hashes, 4 calls of 16
        assert len(hashed) == 4
        assert [(model, len(ids)) for model, ids in engine.calls] == [
            (model, 16) for model in range(4)
        ]
        assert [request.model_key for request in requests] == [
            MODEL_KEYS[index % 4] for index in range(64)
        ]

    def test_equal_weights_in_distinct_arrays_fuse(self):
        async def scenario():
            engine = RecordingEngine()
            copy = MODEL_WEIGHTS[0].copy()
            requests = [make_request(0), make_request(1, weights=copy), make_request(2)]
            await serve_prefilled(MicroBatcher(engine, max_batch=8), asyncio.Queue(), requests)
            return engine, requests

        engine, requests = run_async(scenario())
        assert engine.calls == [(0, [0, 1, 2])]
        for request in requests:
            assert np.array_equal(request.future.result(), np.full(3, float(request.request_id)))

    def test_unhashable_weights_fail_only_their_own_request(self):
        ragged = [[1.0, 2.0], [3.0]]  # np.ascontiguousarray raises on it

        async def scenario():
            engine = GemmEngine(backend="ideal-digital")
            outcomes = []
            replica = Replica("r0", engine, max_batch=8)
            replica.add_observer(
                lambda _name, request, _latency, _size, outcome: outcomes.append(
                    (request.request_id, outcome)
                )
            )
            async with InferenceServer([replica]) as server:
                futures = [
                    server.submit_nowait(np.ones(3), weights=MODEL_WEIGHTS[0]),
                    server.submit_nowait(np.ones(2), weights=ragged),
                    server.submit_nowait(np.ones(3), weights=MODEL_WEIGHTS[1]),
                ]
                results = await asyncio.wait_for(
                    asyncio.gather(*futures, return_exceptions=True), 10.0
                )
                later = await asyncio.wait_for(
                    server.submit(np.ones(3), weights=MODEL_WEIGHTS[2]), 10.0
                )
                load = replica.load
                stats = server.stats()
            return results, later, load, outcomes, stats, replica.batcher.stats

        results, later, load, outcomes, stats, batcher_stats = run_async(scenario())
        assert isinstance(results[1], ValueError)
        assert np.array_equal(results[0], np.ones(3))
        assert np.array_equal(results[2], np.full(3, 2.0))
        assert np.array_equal(later, np.full(3, 3.0))
        assert load == 0
        assert sorted(outcomes) == [(0, "ok"), (1, "error"), (2, "ok"), (3, "ok")]
        assert stats["replicas"]["r0"]["failed"] == 1
        assert batcher_stats.failed == 1 and batcher_stats.batches == 3

    def test_raising_observers_are_counted_and_serving_goes_on(self):
        def failing_batch_observer(replica_name, n_columns):
            raise RuntimeError("telemetry sink failed")

        def failing_result_observer(replica_name, request, latency_s, batch_size, outcome):
            if request.request_id == 2:
                raise RuntimeError("result sink failed")

        async def scenario():
            replica = Replica("r0", RecordingEngine(), max_batch=2)
            replica.add_batch_observer(failing_batch_observer)
            replica.add_observer(failing_result_observer)
            requests = [make_request(index) for index in range(5)]
            for request in requests:
                replica.queue.put_nowait(request)
            replica.start()
            await asyncio.wait_for(asyncio.gather(*(r.future for r in requests)), 10.0)
            load = replica.load
            await replica.stop()
            return requests, load, replica.batcher.stats

        requests, load, stats = run_async(scenario())
        for request in requests:
            assert np.array_equal(request.future.result(), np.full(3, float(request.request_id)))
        assert load == 0
        # three engine calls (2, 2, 1), one failing result observer call
        assert stats.batches == 3 and stats.observer_errors == 4

    def test_held_over_request_counts_as_queued_and_abort_fails_it(self):
        """A batcher task that ends holding a request over must not strand it."""

        def crash(groups):
            raise RuntimeError("batcher fault")

        async def scenario():
            replica = Replica("r0", RecordingEngine(), max_batch=2)
            replica.batcher._execute = crash
            scheduler = ReplicaScheduler([replica])
            # requests 1 and 2 fill model 0's call while model 1's is still
            # open, so request 3 finds its group full and is held over
            requests = [make_request(index, model) for index, model in enumerate([1, 0, 0, 0, 1])]
            for request in requests:
                scheduler.submit(request)
            replica.start()
            await asyncio.wait([replica._task], timeout=10.0)
            held, depth = replica.batcher.held, replica.depth
            with pytest.raises(RuntimeError, match="batcher fault"):
                await replica.abort()
            return requests, held, depth, replica

        requests, held, depth, replica = run_async(scenario())
        assert held is requests[3]
        assert depth == 2  # the held-over request and request 4 are queued
        for request in requests[3:]:
            assert isinstance(request.future.exception(), ServerClosedError)
        assert replica.depth == 0 and replica.batcher.held is None and not replica.running

    @pytest.mark.parametrize(
        "models, expected_calls, expected_depths, expected_rejected",
        [
            # one model, captured when max_batch bounded the whole pull
            ([0, 0, 0, 0], [(0, [0, 1]), (0, [2, 3]), (0, [4, 5])], [2, 4], [6, 7]),
            # request 3 is held over: depth 1, so only three more fit
            (
                [1, 0, 0, 0],
                [(1, [0]), (0, [1, 2]), (0, [3, 4]), (0, [5, 6])],
                [1, 4],
                [7],
            ),
        ],
    )
    def test_held_over_request_counts_toward_backpressure(
        self, models, expected_calls, expected_depths, expected_rejected
    ):
        async def scenario():
            rejected, depths = [], []

            def admit_during_first_call():
                if depths:
                    return
                depths.append(replica.depth)
                for index in range(4, 8):
                    try:
                        scheduler.submit(make_request(index))
                    except BackpressureError:
                        rejected.append(index)
                depths.append(replica.depth)
                replica.queue.put_nowait(SHUTDOWN)

            engine = RecordingEngine(on_call=admit_during_first_call)
            replica = Replica("r0", engine, max_batch=2, max_queue_depth=4)
            scheduler = ReplicaScheduler([replica])
            for index, model in enumerate(models):
                scheduler.submit(make_request(index, model))
            await asyncio.wait_for(replica.batcher.serve(replica.queue), timeout=10.0)
            return engine, depths, rejected

        engine, depths, rejected = run_async(scenario())
        assert engine.calls == expected_calls
        assert depths == expected_depths
        assert rejected == expected_rejected


# --------------------------------------------------------------------- #
# scheduling, admission control, backpressure
# --------------------------------------------------------------------- #
class TestScheduling:
    def make_replicas(self, rng, n=2, **kwargs):
        weights = rng.normal(size=(3, 3))
        return weights, [
            Replica(
                f"r{i}",
                GemmEngine(backend="ideal-digital", weights=weights),
                **kwargs,
            )
            for i in range(n)
        ]

    def test_round_robin_rotates(self, rng):
        _, replicas = self.make_replicas(rng, n=3)
        scheduler = ReplicaScheduler(replicas, policy="round-robin")
        picks = [scheduler.select().name for _ in range(6)]
        assert picks == ["r0", "r1", "r2", "r0", "r1", "r2"]

    def test_least_loaded_prefers_empty_queue(self, rng):
        _, replicas = self.make_replicas(rng, n=2)
        scheduler = ReplicaScheduler(replicas, policy="least-loaded")
        replicas[0].inflight = 3
        assert scheduler.select() is replicas[1]

    def test_latency_aware_prefers_fast_replica(self, rng):
        _, replicas = self.make_replicas(rng, n=2)
        scheduler = ReplicaScheduler(replicas, policy="latency-aware")
        replicas[0].ewma_latency_s = 0.010
        replicas[1].ewma_latency_s = 0.001
        assert scheduler.select() is replicas[1]
        # load eventually outweighs speed
        replicas[1].inflight = 30
        assert scheduler.select() is replicas[0]

    def test_latency_aware_falls_back_to_load_on_zero_estimates(self, rng):
        """An all-digital pool (0-latency hints) must still spread by load."""
        _, replicas = self.make_replicas(rng, n=2)
        scheduler = ReplicaScheduler(replicas, policy="latency-aware")
        replicas[0].inflight = 5
        assert scheduler.select() is replicas[1]

    def test_unknown_policy_rejected(self, rng):
        _, replicas = self.make_replicas(rng)
        with pytest.raises(ValueError):
            ReplicaScheduler(replicas, policy="random")

    def test_backpressure_error_when_all_queues_full(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            replica = Replica(
                "r0",
                GemmEngine(backend="ideal-digital", weights=weights),
                max_queue_depth=2,
            )
            server = InferenceServer([replica])
            server._started = True  # admit without a consumer running
            server.submit_nowait(rng.normal(size=3))
            server.submit_nowait(rng.normal(size=3))
            with pytest.raises(BackpressureError) as excinfo:
                server.submit_nowait(rng.normal(size=3))
            assert excinfo.value.replica == "r0"
            assert excinfo.value.depth == 2
            assert excinfo.value.limit == 2
            assert server.telemetry.rejected == 1
            # drain so the queued futures do not leak into the loop teardown
            await server.start()
            await server.shutdown()

        run_async(scenario())

    def test_full_preferred_replica_fails_over(self, rng):
        weights, replicas = self.make_replicas(rng, n=2, max_queue_depth=1)

        async def scenario():
            scheduler = ReplicaScheduler(replicas, policy="round-robin")
            loop = asyncio.get_running_loop()
            from repro.serving.batching import InferenceRequest

            def request():
                return InferenceRequest(
                    inputs=np.zeros(3),
                    model_key=DEFAULT_MODEL_KEY,
                    future=loop.create_future(),
                    submitted_at=0.0,
                )

            first = scheduler.submit(request())   # r0
            second = scheduler.submit(request())  # r1 (round robin)
            third_pref_full = scheduler.submit  # r0 again, but r0 is full
            with pytest.raises(BackpressureError):
                third_pref_full(request())
            assert first.name == "r0" and second.name == "r1"

        run_async(scenario())

    def test_server_closed_rejects_submissions(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            replica = Replica("r0", GemmEngine(backend="ideal-digital", weights=weights))
            server = InferenceServer([replica])
            with pytest.raises(ServerClosedError):
                server.submit_nowait(rng.normal(size=3))
            await server.start()
            await server.shutdown()
            with pytest.raises(ServerClosedError):
                server.submit_nowait(rng.normal(size=3))

        run_async(scenario())


# --------------------------------------------------------------------- #
# deadlines, cancellation, drain
# --------------------------------------------------------------------- #
class TestLifecycle:
    def test_expired_request_gets_deadline_error(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=4)
            server = InferenceServer([replica])
            server._started = True
            expired = server.submit_nowait(rng.normal(size=3), deadline_s=0.0)
            healthy = server.submit_nowait(rng.normal(size=3))
            await asyncio.sleep(0.005)  # let the deadline pass before dispatch
            await server.start()
            with pytest.raises(DeadlineExceededError):
                await expired
            result = await healthy
            await server.shutdown()
            return engine, result

        engine, result = run_async(scenario())
        # the expired request never reached the engine
        assert engine.stats.columns == 1
        assert result.shape == (3,)

    def test_cancelled_future_is_skipped(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=4)
            server = InferenceServer([replica])
            server._started = True
            cancelled = server.submit_nowait(rng.normal(size=3))
            kept = server.submit_nowait(rng.normal(size=3))
            cancelled.cancel()
            await server.start()
            result = await kept
            await server.shutdown()
            return engine, replica, result

        engine, replica, result = run_async(scenario())
        assert engine.stats.columns == 1
        assert replica.batcher.stats.cancelled == 1
        assert result.shape == (3,)

    def test_shutdown_drains_queued_requests(self, rng):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=2, max_queue_depth=64)
            server = InferenceServer([replica])
            server._started = True
            futures = [server.submit_nowait(rng.normal(size=3)) for _ in range(10)]
            await server.start()
            await server.shutdown(drain=True)
            assert all(future.done() for future in futures)
            return await asyncio.gather(*futures)

        results = run_async(scenario())
        assert len(results) == 10


# --------------------------------------------------------------------- #
# the serving time base: the running loop's time()
# --------------------------------------------------------------------- #
class TestLoopTime:
    def test_stamps_windows_and_replay_read_the_running_loop(self, rng, run_offset_loop):
        weights = rng.normal(size=(3, 3))
        submitted_at = []

        async def scenario():
            loop = asyncio.get_running_loop()
            replica = Replica("r0", GemmEngine(backend="ideal-digital", weights=weights))
            replica.add_observer(
                lambda _name, request, _latency, _size, _outcome: submitted_at.append(
                    request.submitted_at
                )
            )
            server = InferenceServer([replica])
            async with server:
                started_at = server.telemetry.started_at
                now = loop.time()

                def make_request(index):
                    if index == 3:
                        loop.offset += 100.0  # the loop's time jumps mid-replay
                    return rng.normal(size=3)

                report = await run_closed_loop(server, 1, 4, make_request)
            return started_at, now, report, server.telemetry

        started_at, now, report, telemetry = run_offset_loop(scenario())
        assert now - 10.0 < started_at <= now
        assert started_at <= submitted_at[0] < started_at + 10.0
        assert submitted_at[3] >= started_at + 100.0
        assert 100.0 <= report.duration_s < 110.0
        assert report.completed == 4
        assert 100.0 <= telemetry.elapsed_s() < 110.0

    def test_deadlines_are_judged_on_the_running_loop(self, rng, run_offset_loop):
        weights = rng.normal(size=(3, 3))

        async def scenario():
            replica = Replica("r0", GemmEngine(backend="ideal-digital", weights=weights))
            async with InferenceServer([replica]) as server:
                met = await server.submit(rng.normal(size=3), deadline_s=10.0)
                with pytest.raises(DeadlineExceededError):
                    await server.submit(rng.normal(size=3), deadline_s=-1.0)
            return met, server.telemetry

        met, telemetry = run_offset_loop(scenario())
        assert met.shape == (3,)
        assert telemetry.completed == 1
        assert telemetry.expired == 1


# --------------------------------------------------------------------- #
# telemetry
# --------------------------------------------------------------------- #
class TestTelemetry:
    def test_latency_percentiles_and_summary(self):
        telemetry = ServingTelemetry()
        telemetry.started_at = telemetry.stopped_at = 0.0
        for latency_ms in range(1, 101):
            telemetry.on_result("r0", latency_ms * 1e-3, 1, "ok")
        summary = telemetry.summary()
        assert summary["completed"] == 100
        # lower-rank order statistics (50 and 99 ms), within the sketch's α
        assert summary["latency"]["p50_ms"] == pytest.approx(50.0, rel=RELATIVE_ACCURACY)
        assert summary["latency"]["p99_ms"] == pytest.approx(99.0, rel=RELATIVE_ACCURACY)
        assert summary["latency"]["mean_ms"] == pytest.approx(50.5)  # exact sum/count
        assert "r0" in summary["replicas"]

    def test_report_uses_eval_formatting(self):
        telemetry = ServingTelemetry()
        telemetry.start()
        telemetry.on_admit("r0", 1)
        telemetry.on_batch("r0", 1)
        telemetry.on_result("r0", 0.002, 1, "ok")
        text = telemetry.report("smoke")
        assert "# smoke" in text
        assert "replica" in text and "p99_ms" in text

    def test_max_queue_depth_survives_ring_eviction(self):
        telemetry = ServingTelemetry()
        telemetry.on_admit("r0", 50)
        for _ in range(8):
            telemetry.on_admit("r0", 1)
        assert telemetry.max_queue_depth() == 50
        assert telemetry.mean_queue_depth() == pytest.approx(58 / 9)  # all-time

    def test_utilization_bounded_by_one(self):
        telemetry = ServingTelemetry()
        telemetry.started_at = 0.0
        telemetry.stopped_at = 10.0
        utilization = telemetry.utilization({"r0": 5.0, "r1": 20.0})
        assert utilization["r0"] == pytest.approx(0.5)
        assert utilization["r1"] == 1.0


# --------------------------------------------------------------------- #
# load generation
# --------------------------------------------------------------------- #
class TestLoadgen:
    def test_poisson_trace_is_seed_reproducible(self):
        first = poisson_arrival_times(1000.0, 200, rng=7)
        second = poisson_arrival_times(1000.0, 200, rng=7)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, poisson_arrival_times(1000.0, 200, rng=8))
        # mean inter-arrival approximates 1/rate
        gaps = np.diff(np.concatenate([[0.0], first]))
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.2)

    def test_bursty_trace_is_seed_reproducible_and_bursty(self):
        first = bursty_arrival_times(1000.0, 1000, rng=3)
        assert np.array_equal(first, bursty_arrival_times(1000.0, 1000, rng=3))
        gaps = np.diff(np.concatenate([[0.0], first]))
        # burstiness: squared coefficient of variation well above the
        # memoryless trace's (Poisson sits near 1)
        cv2 = np.var(gaps) / np.mean(gaps) ** 2
        poisson = poisson_arrival_times(1000.0, 1000, rng=3)
        poisson_gaps = np.diff(np.concatenate([[0.0], poisson]))
        poisson_cv2 = np.var(poisson_gaps) / np.mean(poisson_gaps) ** 2
        assert cv2 > 1.25 * poisson_cv2
        assert np.mean(gaps) == pytest.approx(1e-3, rel=0.35)

    def test_column_workload_is_seed_reproducible(self):
        first = make_column_workload(4, 10, rng=5)
        second = make_column_workload(4, 10, rng=5)
        assert np.array_equal(first(3), second(3))
        assert first(3).shape == (4,)

    def test_open_loop_serves_all_under_light_load(self, rng):
        weights = rng.normal(size=(4, 4))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8, max_queue_depth=128)
            async with InferenceServer([replica]) as server:
                times = poisson_arrival_times(2000.0, 50, rng=1)
                workload = make_column_workload(4, 50, rng=2)
                return await run_open_loop(server, times, workload)

        report = run_async(scenario())
        assert report.completed == 50
        assert report.rejected == 0
        assert report.achieved_hz > 0
        assert report.telemetry["completed"] == 50

    def test_closed_loop_counts_every_request(self, rng):
        weights = rng.normal(size=(4, 4))

        async def scenario():
            engine = GemmEngine(backend="ideal-digital", weights=weights)
            replica = Replica("r0", engine, max_batch=8, max_queue_depth=4)
            async with InferenceServer([replica]) as server:
                workload = make_column_workload(4, 64, rng=2)
                return await run_closed_loop(
                    server, n_clients=4, requests_per_client=8, make_request=workload
                )

        report = run_async(scenario())
        assert report.completed == 32
        assert report.goodput_fraction == 1.0

    def test_dynamic_batching_fuses_under_saturation(self, rng):
        """Saturating offered load must serve in fused batches, not singles."""
        weights = rng.normal(size=(6, 6))

        async def scenario():
            engine = GemmEngine(backend="analog-photonic", weights=weights, rng=0)
            replica = Replica("r0", engine, max_batch=16, max_queue_depth=256)
            async with InferenceServer([replica]) as server:
                times = poisson_arrival_times(50_000.0, 120, rng=4)
                workload = make_column_workload(6, 120, rng=5)
                report = await run_open_loop(server, times, workload)
            return engine, report

        engine, report = run_async(scenario())
        assert report.completed == 120
        # far fewer engine calls than requests proves coalescing happened
        assert engine.stats.batches < 120 / 2
        assert engine.stats.mean_batch > 2.0


# --------------------------------------------------------------------- #
# multi-replica end-to-end
# --------------------------------------------------------------------- #
class TestMultiReplica:
    def test_mixed_backend_pool_spreads_traffic(self, rng):
        weights = rng.normal(size=(5, 5))

        async def scenario():
            replicas = [
                Replica(
                    "digital",
                    GemmEngine(backend="ideal-digital", weights=weights),
                    max_batch=8,
                ),
                Replica(
                    "analog",
                    GemmEngine(backend="analog-photonic", weights=weights, rng=0),
                    max_batch=8,
                ),
            ]
            async with InferenceServer(replicas, policy="round-robin") as server:
                futures = [
                    server.submit_nowait(rng.normal(size=5)) for _ in range(12)
                ]
                results = await asyncio.gather(*futures)
                stats = server.stats()
            return results, stats

        results, stats = run_async(scenario())
        assert len(results) == 12
        served = {name: s["completed"] for name, s in stats["replicas"].items()}
        assert served["digital"] > 0 and served["analog"] > 0
        assert served["digital"] + served["analog"] == 12
        for name in ("digital", "analog"):
            assert 0.0 <= stats["replicas"][name]["utilization"] <= 1.0


# --------------------------------------------------------------------- #
# cost-based routing and pinned submission
# --------------------------------------------------------------------- #
class TestCostBasedRouting:
    def make_replicas(self, rng, n=3):
        weights = rng.normal(size=(3, 3))
        return [
            Replica(f"r{i}", GemmEngine(backend="ideal-digital", weights=weights))
            for i in range(n)
        ]

    def test_cost_based_prefers_cheap_replica_from_the_first_request(self, rng):
        replicas = self.make_replicas(rng, n=2)
        costs = {"r0": 0.010, "r1": 0.001}
        scheduler = ReplicaScheduler(
            replicas, policy="cost-based", cost_fn=lambda r: costs[r.name]
        )
        # no traffic observed yet — calibration alone must route correctly
        assert scheduler.select() is replicas[1]

    def test_load_eventually_outweighs_cost(self, rng):
        replicas = self.make_replicas(rng, n=2)
        costs = {"r0": 0.010, "r1": 0.001}
        scheduler = ReplicaScheduler(
            replicas, policy="cost-based", cost_fn=lambda r: costs[r.name]
        )
        replicas[1].inflight = 30
        assert scheduler.select() is replicas[0]

    def test_zero_cost_pool_falls_back_to_least_loaded(self, rng):
        replicas = self.make_replicas(rng, n=2)
        scheduler = ReplicaScheduler(replicas, policy="cost-based")
        replicas[0].inflight = 4
        assert scheduler.select() is replicas[1]

    def test_cost_fn_default_uses_engine_latency_hint(self, rng):
        weights = rng.normal(size=(3, 3))
        fast = Replica("fast", GemmEngine(backend="ideal-digital", weights=weights))
        slow = Replica(
            "slow",
            GemmEngine(backend="analog-photonic", weights=weights, rng=0),
        )
        slow.engine.compile(None)  # program the mesh so the hint is physical
        scheduler = ReplicaScheduler([slow, fast], policy="cost-based")
        assert scheduler.select() is fast

    def test_pinned_submission_targets_named_replica(self, rng):
        async def scenario():
            weights = rng.normal(size=(3, 3))
            replicas = [
                Replica("a", GemmEngine(backend="ideal-digital", weights=weights)),
                Replica("b", GemmEngine(backend="ideal-digital", weights=weights)),
            ]
            async with InferenceServer(replicas) as server:
                for _ in range(5):
                    await server.submit(rng.normal(size=3), replica="b")
                return server.stats()

        stats = run_async(scenario())
        assert stats["replicas"]["b"]["completed"] == 5
        assert stats["replicas"].get("a", {}).get("completed", 0) == 0

    def test_pinned_submission_has_no_failover(self, rng):
        weights = rng.normal(size=(3, 3))
        replicas = [
            Replica(
                "a",
                GemmEngine(backend="ideal-digital", weights=weights),
                max_queue_depth=1,
            ),
            Replica("b", GemmEngine(backend="ideal-digital", weights=weights)),
        ]
        scheduler = ReplicaScheduler(replicas)

        async def scenario():
            request = InferenceRequest(
                inputs=np.zeros(3),
                weights=None,
                model_key=DEFAULT_MODEL_KEY,
                future=asyncio.get_running_loop().create_future(),
                submitted_at=0.0,
            )
            scheduler.submit(request, replica_name="a")  # fills the queue
            request2 = InferenceRequest(
                inputs=np.zeros(3),
                weights=None,
                model_key=DEFAULT_MODEL_KEY,
                future=asyncio.get_running_loop().create_future(),
                submitted_at=0.0,
            )
            with pytest.raises(BackpressureError):
                scheduler.submit(request2, replica_name="a")
            assert replicas[1].depth == 0  # never failed over

        run_async(scenario())

    def test_unknown_pinned_replica_raises(self, rng):
        replicas = self.make_replicas(rng, n=1)
        scheduler = ReplicaScheduler(replicas)

        async def scenario():
            request = InferenceRequest(
                inputs=np.zeros(3),
                weights=None,
                model_key=DEFAULT_MODEL_KEY,
                future=asyncio.get_running_loop().create_future(),
                submitted_at=0.0,
            )
            with pytest.raises(KeyError, match="unknown replica"):
                scheduler.submit(request, replica_name="nope")

        run_async(scenario())


# --------------------------------------------------------------------- #
# compiled-weights LRU cache eviction
# --------------------------------------------------------------------- #
class CountingEngine(InferenceEngine):
    """Engine whose compiles are observable (mesh-programming stand-in)."""

    def __init__(self, max_models=2):
        super().__init__(name="counting", max_models=max_models)
        self.programmed = []  # one entry per _compile call

    def _compile(self, key, weights):
        self.programmed.append(key)
        weights = np.asarray(weights, dtype=float)
        n_out, n_in = weights.shape
        from repro.serving.engine import CompiledModel

        return CompiledModel(
            key=key,
            n_inputs=n_in,
            n_outputs=n_out,
            runner=lambda X: weights @ X,
        )


class TestCompiledWeightsEviction:
    def test_evicted_model_reprograms_exactly_once_on_next_request(self, rng):
        engine = CountingEngine(max_models=1)
        w_a = rng.normal(size=(3, 3))
        w_b = rng.normal(size=(3, 3))
        column = np.zeros((3, 1))
        engine.run_batch(w_a, column)  # compile A
        engine.run_batch(w_b, column)  # compile B, evicts A
        assert engine.cached_models == 1
        engine.run_batch(w_a, column)  # A must recompile exactly once
        engine.run_batch(w_a, column)  # now cached again — no compile
        key_a = weight_hash(w_a)
        assert engine.programmed.count(key_a) == 2
        assert engine.stats.compiles == 3
        assert engine.stats.cache_hits == 1

    def test_lru_refresh_on_hit_protects_hot_models(self, rng):
        engine = CountingEngine(max_models=2)
        w_a, w_b, w_c = (rng.normal(size=(3, 3)) for _ in range(3))
        column = np.zeros((3, 1))
        engine.run_batch(w_a, column)
        engine.run_batch(w_b, column)
        engine.run_batch(w_a, column)  # refresh A: B is now least recent
        engine.run_batch(w_c, column)  # evicts B, not A
        engine.run_batch(w_a, column)  # still cached
        assert engine.programmed.count(weight_hash(w_a)) == 1
        assert engine.programmed.count(weight_hash(w_b)) == 1

    def test_weight_hash_distinguishes_dtype_of_equal_bytes(self):
        data = np.arange(16, dtype=np.int32)
        as_int = data.reshape(4, 4)
        as_float = data.reshape(4, 4).view(np.float32)
        assert as_int.tobytes() == as_float.tobytes()
        assert weight_hash(as_int) != weight_hash(as_float)

    def test_weight_hash_distinguishes_shape_of_equal_bytes(self):
        data = np.arange(12.0)
        assert weight_hash(data.reshape(3, 4)) != weight_hash(data.reshape(4, 3))
        assert weight_hash(data.reshape(3, 4)) == weight_hash(
            np.arange(12.0).reshape(3, 4)
        )

    def test_weight_hash_of_strided_views_equals_contiguous_copy(self, rng):
        weights = rng.normal(size=(3, 5))
        transposed = weights.T
        fortran = np.asfortranarray(weights)
        assert not transposed.flags.c_contiguous
        assert not fortran.flags.c_contiguous
        assert weight_hash(transposed) == weight_hash(np.ascontiguousarray(transposed))
        assert weight_hash(fortran) == weight_hash(weights)

    def test_weight_hash_distinguishes_byte_order(self, rng):
        values = rng.normal(size=(4, 4))
        big = values.astype(">f8")
        little = values.astype("<f8")
        assert np.array_equal(big, little)
        assert weight_hash(big) != weight_hash(little)


# --------------------------------------------------------------------- #
# telemetry guards: empty sample windows
# --------------------------------------------------------------------- #
class TestTelemetryEmptyWindows:
    def test_summary_and_report_with_zero_traffic(self):
        telemetry = ServingTelemetry()
        summary = telemetry.summary()
        assert summary["completed"] == 0
        assert summary["throughput_hz"] == 0.0
        assert summary["latency"]["p99_ms"] == 0.0
        assert summary["queue_depth"]["mean"] == 0.0
        text = telemetry.report("empty")
        assert "# empty" in text
        assert "nan" not in text.lower()

    def test_replica_admitted_but_never_served_reports_zeros(self):
        telemetry = ServingTelemetry()
        telemetry.start()
        telemetry.on_admit("cold", 1)
        summary = telemetry.summary()
        cold = summary["replicas"]["cold"]
        assert cold["completed"] == 0
        assert cold["p50_ms"] == 0.0 and cold["p99_ms"] == 0.0
        assert cold["mean_batch"] == 0.0
        assert "nan" not in telemetry.report().lower()

    def test_replica_with_only_expired_requests_has_no_latency_samples(self):
        telemetry = ServingTelemetry()
        telemetry.start()
        telemetry.on_result("r0", 0.5, 1, "expired")
        summary = telemetry.summary()
        assert summary["replicas"]["r0"]["expired"] == 1
        assert summary["replicas"]["r0"]["p99_ms"] == 0.0
        assert summary["latency"]["count"] == 0

    def test_non_finite_latency_never_poisons_percentiles(self):
        telemetry = ServingTelemetry()
        telemetry.start()
        telemetry.on_result("r0", float("nan"), 1, "ok")
        telemetry.on_result("r0", float("inf"), 1, "ok")
        telemetry.on_result("r0", 0.002, 1, "ok")
        summary = telemetry.summary()
        assert summary["completed"] == 3  # completions still counted
        assert summary["latency"]["count"] == 1  # samples filtered
        assert np.isfinite(summary["latency"]["p99_ms"])

    def test_utilization_with_zero_elapsed_window(self):
        telemetry = ServingTelemetry()
        assert telemetry.utilization({"r0": 1.0}) == {"r0": 0.0}
        telemetry.started_at = telemetry.stopped_at = 5.0  # a zero-length window
        assert telemetry.utilization({"r0": 1.0}) == {"r0": 0.0}

    def test_negative_busy_time_clamped(self):
        telemetry = ServingTelemetry()
        telemetry.started_at = 0.0
        telemetry.stopped_at = 10.0
        assert telemetry.utilization({"r0": -3.0}) == {"r0": 0.0}

    def test_percentiles_s_empty_window(self):
        latencies = Histogram("latency_s")
        assert [latencies.quantile(q) for q in (0.5, 0.99)] == [0.0, 0.0]
        telemetry = ServingTelemetry()
        telemetry.on_admit("r0", 0)  # a replica that has served nothing
        summary = telemetry.summary()
        assert summary["latency"]["p99_ms"] == 0.0
        assert summary["latency"]["mean_ms"] == 0.0
        assert summary["replicas"]["r0"]["p99_ms"] == 0.0
