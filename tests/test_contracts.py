"""Cross-layer conformance suite: the ROADMAP invariants as executable checks.

Each class pins one contract that previously lived only in prose:

* one fused micro-batch costs exactly one ``backend.matmul`` /
  ``apply_batch`` call — batching amortisation is real, not accounting;
* typed serving errors survive the process + socket boundary with their
  fields intact;
* a model-cache hit never re-programs a mesh (dense ``weight_hash`` and
  SNN ``learning_hash`` alike);
* traced and untraced runs are bitwise identical — observability is a
  read-only plane;
* serving has one time base, the running event loop's ``time()``: no
  public serving callable (nor the replica profilers) takes a ``clock``.
"""

import asyncio
import inspect
import json

import numpy as np

import repro.serving
import repro.serving.fabric
from repro.compiler.costmodel import profile_engine, profile_replicas
from repro.core.backends import AnalogPhotonicBackend, IdealDigitalBackend
from repro.serving import (
    GemmEngine,
    InferenceServer,
    Replica,
    SNNEngine,
    SoCGemmEngine,
)
from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    ServingError,
    WorkerCrashedError,
)
from repro.serving.fabric import wire
from repro.snn import PhotonicSNN, STDPRule
from repro.system import PhotonicSoC
from repro.system.faults import EmptyCampaignError


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_soc(n_pes=1):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


class CountingBackend(IdealDigitalBackend):
    """Exact digital backend that counts its ``matmul`` invocations."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def matmul(self, weights, inputs):
        self.calls += 1
        return super().matmul(weights, inputs)


# --------------------------------------------------------------------- #
# contract: one micro-batch == one backend call
# --------------------------------------------------------------------- #
class TestOneCallPerMicroBatch:
    def test_engine_runs_one_matmul_per_fused_batch(self):
        backend = CountingBackend()
        engine = GemmEngine(backend=backend, weights=np.ones((3, 4)))
        for width in (1, 4, 32):
            engine.run_batch(None, np.ones((4, width)))
        assert backend.calls == 3  # one call per batch, regardless of width
        assert engine.stats.batches == 3
        assert engine.stats.columns == 1 + 4 + 32

    def test_served_requests_fuse_to_one_call_per_batch(self):
        # one default model, then 4 models interleaved request by request
        for n_models, n_requests, max_batch in ((1, 10, 32), (4, 32, 8)):
            backend = CountingBackend()
            engine = GemmEngine(backend=backend, weights=np.ones((3, 4)))
            models = [None] if n_models == 1 else [
                np.full((3, 4), float(model)) for model in range(n_models)
            ]
            widths = []

            async def drive():
                replica = Replica("r0", engine, max_batch=max_batch)
                replica.add_batch_observer(lambda name, n_columns: widths.append(n_columns))
                server = InferenceServer([replica])
                async with server:
                    await asyncio.gather(
                        *(
                            server.submit(np.ones(4), weights=models[index % n_models])
                            for index in range(n_requests)
                        )
                    )
                return server

            server = run_async(drive())
            fused_batches = sum(
                stats["batches"] for stats in server.telemetry.summary()["replicas"].values()
            )
            # however the batcher grouped them, every fused batch was exactly
            # one backend call — and every request was served
            assert backend.calls == fused_batches == len(widths)
            assert sum(widths) == engine.stats.columns == n_requests
            assert max(widths) <= max_batch
            assert fused_batches < n_requests  # at least some fusing happened

    def test_snn_runs_one_network_step_per_batch(self):
        network = PhotonicSNN(12, 5, inhibition=0.3, rng=5)
        engine = SNNEngine(network)
        columns = np.zeros((12, 6))
        columns[3, :] = 1.0
        engine.run_batch(None, columns)
        assert engine.stats.batches == 1
        assert engine.stats.columns == 6


# --------------------------------------------------------------------- #
# contract: typed errors survive process + socket boundaries
# --------------------------------------------------------------------- #
class TestTypedErrorsAcrossBoundaries:
    @staticmethod
    def round_trip(exc):
        # encode -> JSON bytes -> decode is exactly the socket path
        payload = json.loads(json.dumps(wire.encode_exception(exc)))
        return wire.decode_exception(payload)

    def test_backpressure_fields_intact(self):
        decoded = self.round_trip(BackpressureError(replica="r3", depth=7, limit=7))
        assert isinstance(decoded, BackpressureError)
        assert (decoded.replica, decoded.depth, decoded.limit) == ("r3", 7, 7)

    def test_deadline_fields_intact(self):
        decoded = self.round_trip(
            DeadlineExceededError(waited_s=0.25, deadline_s=0.2)
        )
        assert isinstance(decoded, DeadlineExceededError)
        assert isinstance(decoded, TimeoutError)  # dual inheritance survives
        assert (decoded.waited_s, decoded.deadline_s) == (0.25, 0.2)

    def test_worker_crashed_fields_intact(self):
        decoded = self.round_trip(
            WorkerCrashedError(worker="w1", detail="exit code -9")
        )
        assert isinstance(decoded, WorkerCrashedError)
        assert (decoded.worker, decoded.detail) == ("w1", "exit code -9")

    def test_empty_campaign_survives_typed(self):
        decoded = self.round_trip(EmptyCampaignError("no runs recorded"))
        assert isinstance(decoded, EmptyCampaignError)
        assert isinstance(decoded, ValueError)  # stays catchable as ValueError
        assert "no runs recorded" in str(decoded)

    def test_unknown_kinds_degrade_to_serving_error(self):
        decoded = wire.decode_exception(
            {"kind": "from-the-future", "message": "??"}
        )
        assert isinstance(decoded, ServingError)

    def test_generic_exceptions_keep_type_name(self):
        decoded = self.round_trip(RuntimeError("boom"))
        assert isinstance(decoded, ServingError)
        assert "RuntimeError" in str(decoded) and "boom" in str(decoded)


# --------------------------------------------------------------------- #
# contract: cache hits never re-program a mesh
# --------------------------------------------------------------------- #
class TestCacheNeverReprograms:
    def test_dense_weight_hash_hit_skips_mesh_programming(self, monkeypatch):
        backend = AnalogPhotonicBackend(rng=0)
        programmed = []
        original = AnalogPhotonicBackend.engine_for

        def counting_engine_for(self, weights):
            programmed.append(weights.shape)
            return original(self, weights)

        monkeypatch.setattr(AnalogPhotonicBackend, "engine_for", counting_engine_for)
        engine = GemmEngine(backend=backend)
        weights = np.eye(4)
        for _ in range(3):
            engine.run_batch(weights, np.ones((4, 2)))
        assert len(programmed) == 1  # programmed once, served three times
        assert engine.stats.compiles == 1
        assert engine.stats.cache_hits == 2

    def test_distinct_weights_program_distinct_meshes(self, monkeypatch):
        backend = AnalogPhotonicBackend(rng=0)
        programmed = []
        original = AnalogPhotonicBackend.engine_for

        def counting_engine_for(self, weights):
            programmed.append(weights.tobytes())
            return original(self, weights)

        monkeypatch.setattr(AnalogPhotonicBackend, "engine_for", counting_engine_for)
        engine = GemmEngine(backend=backend)
        engine.run_batch(np.eye(4), np.ones((4, 1)))
        engine.run_batch(2 * np.eye(4), np.ones((4, 1)))
        assert len(programmed) == 2
        assert engine.stats.compiles == 2

    def test_snn_learning_hash_stable_without_learning(self):
        network = PhotonicSNN(12, 5, inhibition=0.3, rng=5)
        engine = SNNEngine(network)
        columns = np.zeros((12, 3))
        columns[2, :] = 1.0
        before = engine.learning_hash
        engine.run_batch(None, columns)
        engine.run_batch(None, columns)
        assert engine.learning_hash == before
        assert engine.stats.compiles == 1 and engine.stats.cache_hits == 1

    def test_snn_learning_bumps_hash_and_recompiles(self):
        network = PhotonicSNN(12, 5, stdp=STDPRule(), inhibition=0.3, rng=5)
        engine = SNNEngine(network, learning=True)
        columns = np.tile(np.ones(12)[:, None], (1, 4))
        before = engine.learning_hash
        engine.run_batch(None, columns)
        assert engine.learning_hash != before  # plasticity moved the weights
        assert engine.model_key(None) == f"snn:{engine.learning_hash}"


# --------------------------------------------------------------------- #
# contract: tracing is bitwise invisible
# --------------------------------------------------------------------- #
class TestTracedUntracedParity:
    @staticmethod
    def serve(tracer=None):
        from repro.utils.rng import ensure_rng

        engine = SoCGemmEngine(make_soc(2), weights=np.ones((4, 6)))

        async def drive():
            server = InferenceServer([Replica("r0", engine)], tracer=tracer)
            columns = ensure_rng(3).integers(-5, 6, size=(8, 6)).astype(float)
            async with server:
                return await asyncio.gather(
                    *(server.submit(column) for column in columns)
                )

        return run_async(drive())

    def test_traced_equals_untraced_bitwise(self):
        from repro.obs.trace import Tracer

        plain = self.serve()
        traced = self.serve(tracer=Tracer(process="server"))
        assert len(plain) == len(traced) == 8
        for lhs, rhs in zip(plain, traced):
            assert np.array_equal(lhs, rhs)

    def test_replanner_observation_is_bitwise_invisible(self):
        # same discipline as tracing: observing offloads/widths must not
        # change a single served byte
        from repro.compiler import AdaptiveReplanner, PlanCache, SoCCostModel
        from repro.utils.rng import ensure_rng

        def serve(with_replanner):
            soc = make_soc(2)
            replanner = None
            if with_replanner:
                replanner = AdaptiveReplanner(
                    soc, SoCCostModel.calibrate(make_soc(2)), cache=PlanCache()
                )
            engine = SoCGemmEngine(soc, weights=np.ones((4, 6)), replanner=replanner)

            async def drive():
                server = InferenceServer(
                    [Replica("r0", engine)], replanner=replanner
                )
                columns = ensure_rng(3).integers(-5, 6, size=(8, 6)).astype(float)
                async with server:
                    return await asyncio.gather(
                        *(server.submit(column) for column in columns)
                    )

            return run_async(drive())

        plain = serve(False)
        observed = serve(True)
        for lhs, rhs in zip(plain, observed):
            assert np.array_equal(lhs, rhs)


# --------------------------------------------------------------------- #
# contract: one serving time base, no clock knobs
# --------------------------------------------------------------------- #
def _public_callables():
    """Every public function, class constructor and public method of serving."""
    seen = {}
    for module in (repro.serving, repro.serving.fabric):
        for name in module.__all__:
            seen[f"{module.__name__}.{name}"] = getattr(module, name)
    seen["profile_engine"] = profile_engine
    seen["profile_replicas"] = profile_replicas
    for qualname, obj in list(seen.items()):
        if inspect.isclass(obj):
            for name, member in inspect.getmembers(obj, inspect.isfunction):
                if not name.startswith("_") or name == "__init__":
                    seen[f"{qualname}.{name}"] = member
    return {qualname: obj for qualname, obj in seen.items() if callable(obj)}


class TestOneServingTimeBase:
    def test_no_public_serving_callable_takes_a_clock(self):
        callables = _public_callables()
        assert "repro.serving.InferenceServer.__init__" in callables
        assert "repro.serving.fabric.FabricGateway.__init__" in callables
        offenders = []
        for qualname, obj in callables.items():
            try:
                parameters = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            if any("clock" in name for name in parameters):
                offenders.append(qualname)
        assert offenders == []
