"""Tests for the model compiler: IR, cost model, placement, plan execution.

The load-bearing oracles: a compiled plan must be **numerically identical**
to direct per-layer execution on the same backend — on the SoC cluster
(integer tiled offloads, including K-sharded layers) and on a
mixed-backend replica pool (layers pinned to the replicas the placement
chose).
"""

import asyncio

import numpy as np
import pytest

from repro.compiler import (
    INPUT_BUFFER,
    AddOp,
    ConcatOp,
    DenseOp,
    GraphError,
    ModelGraph,
    PlanCache,
    ShardingDecision,
    SoCCostModel,
    SplitOp,
    choose_sharding,
    compile_for_pool,
    compile_for_soc,
    expected_batch_width,
    place_graph,
    pool_fingerprint,
    profile_engine,
    profile_replicas,
    replica_cost_fn,
    soc_fingerprint,
)
from repro.compiler.costmodel import ReplicaProfile
from repro.core.backends import resolve_backend
from repro.core.nn import MLP
from repro.eval import (
    make_diamond_graph,
    make_layer_stack,
    make_multi_head_graph,
    make_residual_graph,
)
from repro.serving import GemmEngine, InferenceServer, MicroBatcher, Replica
from repro.system import PhotonicSoC


def run_async(coroutine):
    return asyncio.run(coroutine)


def make_soc(n_pes=2, **kwargs):
    soc = PhotonicSoC(**kwargs)
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


# --------------------------------------------------------------------- #
# ops
# --------------------------------------------------------------------- #
class TestDenseOp:
    def test_shapes_and_macs(self):
        op = DenseOp("l0", np.ones((3, 4)))
        assert op.n_inputs == 4 and op.n_outputs == 3 and op.macs == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            DenseOp("l0", np.ones(4))
        with pytest.raises(ValueError):
            DenseOp("l0", np.ones((3, 4)), bias=np.ones(4))
        with pytest.raises(ValueError):
            DenseOp("l0", np.ones((3, 4)), activation="tanh")

    def test_hash_distinguishes_dtype_and_shape(self):
        data = np.arange(12, dtype=np.int32)
        a = DenseOp("a", data.reshape(3, 4))
        b = DenseOp("b", data.reshape(4, 3))
        c = DenseOp("c", data.reshape(3, 4).view(np.float32))
        assert a.op_hash() != b.op_hash()  # same bytes, different shape
        assert a.op_hash() != c.op_hash()  # same bytes, different dtype
        assert a.op_hash() == DenseOp("renamed", data.reshape(3, 4)).op_hash()

    def test_hash_covers_bias_and_activation(self):
        weights = np.ones((3, 4))
        plain = DenseOp("a", weights)
        biased = DenseOp("a", weights, bias=np.ones(3))
        relu = DenseOp("a", weights, activation="relu")
        assert len({plain.op_hash(), biased.op_hash(), relu.op_hash()}) == 3

    def test_finish_applies_bias_and_activation(self):
        op = DenseOp("a", np.eye(2), bias=np.array([1.0, -5.0]), activation="relu")
        out = op.finish(np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[2.0], [0.0]])


# --------------------------------------------------------------------- #
# graph
# --------------------------------------------------------------------- #
class TestModelGraph:
    def test_chain_builders_agree(self):
        mats = make_layer_stack([6, 5, 4], rng=0)
        graph = ModelGraph.from_matrices(mats)
        assert len(graph) == 2 and graph.is_chain()
        assert graph.n_inputs == 6 and graph.n_outputs == 4

    def test_shape_break_rejected(self):
        with pytest.raises(GraphError):
            ModelGraph.from_matrices([np.ones((5, 6)), np.ones((4, 7))])

    def test_duplicate_and_unknown_dependencies(self):
        graph = ModelGraph()
        graph.add_op(DenseOp("a", np.ones((3, 3))))
        with pytest.raises(GraphError):
            graph.add_op(DenseOp("a", np.ones((3, 3))))
        with pytest.raises(GraphError):
            graph.add_op(DenseOp("b", np.ones((3, 3))), inputs=["missing"])

    def test_hash_sensitive_to_content_not_name(self):
        mats = make_layer_stack([6, 5, 4], rng=0)
        graph = ModelGraph.from_matrices(mats, name="one")
        same = ModelGraph.from_matrices(mats, name="two")
        other = ModelGraph.from_matrices(make_layer_stack([6, 5, 4], rng=1))
        assert graph.graph_hash() == same.graph_hash()
        assert graph.graph_hash() != other.graph_hash()

    def test_hash_sensitive_to_wiring(self):
        a, b = np.ones((3, 3)), 2 * np.ones((3, 3))
        chain = ModelGraph.from_matrices([a, b])
        graph = ModelGraph()
        graph.add_op(DenseOp("layer0", a))
        graph.add_op(DenseOp("layer1", b))  # parallel roots, not a chain
        assert chain.graph_hash() != graph.graph_hash()
        assert not graph.is_chain()

    def test_from_mlp_reference_forward_matches(self):
        model = MLP.random_init([6, 8, 4], rng=0)
        graph = ModelGraph.from_mlp(model)
        x = np.linspace(-1, 1, 6)
        expected = model.forward(x[None, :])[0]
        assert np.allclose(graph.reference_forward(x)[:, 0], expected)

    def test_topological_order_and_cycles(self):
        graph = ModelGraph()
        graph.add_op(DenseOp("a", np.ones((3, 3))))
        graph.add_op(DenseOp("b", np.ones((3, 3))), inputs=["a"])
        assert [op.name for op in graph.topological_order()] == ["a", "b"]
        # forge a cycle through the internals to prove detection
        graph._inputs["a"] = ("b",)
        graph._order = None
        with pytest.raises(GraphError):
            graph.topological_order()


# --------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------- #
class TestSoCCostModel:
    def test_calibration_predicts_held_out_shapes(self):
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        shape = (20, 12, 4)  # not in DEFAULT_PROBE_SHAPES
        weights = np.ones(shape[:2], dtype=np.int64)
        inputs = np.ones((shape[1], shape[2]), dtype=np.int64)
        report = soc.run_tiled_gemm(weights, inputs)
        prediction = model.predict_gemm(*shape)
        assert prediction.pipelined_cycles > 0
        assert prediction.serial_cycles >= prediction.pipelined_cycles
        error = abs(prediction.pipelined_cycles - report.cycles) / report.cycles
        assert error < 0.5, f"prediction off by {error:.0%}"

    def test_prediction_scales_with_work(self):
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        small = model.predict_gemm(8, 8, 4)
        large = model.predict_gemm(32, 32, 16)
        assert large.pipelined_cycles > small.pipelined_cycles

    def test_calibration_requires_accelerators(self):
        with pytest.raises(ValueError):
            SoCCostModel.calibrate(PhotonicSoC())

    def test_k_shard_prediction_includes_reduction(self):
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        rows = model.predict_gemm(16, 16, 4)
        ksharded = model.predict_gemm(16, 16, 4, k_shards=2)
        assert ksharded.extra_cycles > rows.extra_cycles  # reduction cost

    def test_from_hints_seeds_a_prior_from_backend_cost_hints(self):
        backend = resolve_backend("ideal-digital")
        model = SoCCostModel.from_hints(backend, n_pes=2)
        small = model.predict_gemm(8, 8, 4)
        large = model.predict_gemm(32, 32, 16)
        assert 0 < small.pipelined_cycles < large.pipelined_cycles
        # usable by the partitioner before any probe offload has run
        decision = choose_sharding(2, 64, 1, 2, cost_model=model)
        assert decision.predicted_cycles is not None


class TestReplicaProfiles:
    def test_profile_engine_measures_service_time(self):
        engine = GemmEngine(weights=np.ones((8, 8)), name="g")
        profile = profile_engine(engine)
        assert profile.service_s > 0
        assert profile.macs == 64
        assert profile.offload_cycles is None

    def test_profile_without_default_model_uses_probe(self):
        engine = GemmEngine(name="bare")
        profile = profile_engine(engine, probe_shape=(4, 4))
        assert profile.service_s > 0 and profile.macs == 16

    def test_cost_fn_prefers_profiles_and_falls_back(self):
        profiles = {"a": ReplicaProfile(name="a", service_s=0.5, macs=1)}
        cost = replica_cost_fn(profiles)

        class FakeEngine:
            def latency_hint_s(self, n):
                return 0.25

        class FakeReplica:
            def __init__(self, name):
                self.name = name
                self.engine = FakeEngine()

        assert cost(FakeReplica("a")) == 0.5
        assert cost(FakeReplica("unknown")) == 0.25

    def test_predict_request_s_scales_by_macs(self):
        profile = ReplicaProfile(name="a", service_s=1.0, macs=100)
        assert profile.predict_request_s(200) == pytest.approx(2.0)
        assert profile.predict_request_s(None) == 1.0


# --------------------------------------------------------------------- #
# partitioning / placement
# --------------------------------------------------------------------- #
class TestChooseSharding:
    def test_single_pe_is_rows(self):
        assert choose_sharding(8, 8, 4, 1) == ShardingDecision("rows", 1)

    def test_heuristic_prefers_k_for_short_wide_layers(self):
        decision = choose_sharding(2, 64, 1, 4)
        assert decision.strategy == "k" and decision.k_shards == 4

    def test_heuristic_prefers_rows_for_tall_layers(self):
        assert choose_sharding(64, 8, 4, 4).strategy == "rows"

    def test_cost_model_drives_the_choice(self):
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        decision = choose_sharding(16, 16, 4, 2, cost_model=model)
        assert decision.strategy in ("rows", "k")
        assert decision.predicted_cycles is not None and decision.predicted_cycles > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_sharding(0, 8, 4, 2)
        with pytest.raises(ValueError):
            choose_sharding(8, 8, 4, 0)


class TestPlaceGraph:
    @staticmethod
    def _profiles():
        return {
            "fast": ReplicaProfile(name="fast", service_s=1e-4, macs=64),
            "slow": ReplicaProfile(name="slow", service_s=1e-2, macs=64),
        }

    def test_min_cost_places_everything_on_the_cheapest(self):
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8, 8], rng=0))
        placement = place_graph(graph, self._profiles())
        assert set(placement.assignments.values()) == {"fast"}
        assert placement.predicted_total_s > 0

    def test_balanced_spreads_comparable_replicas(self):
        profiles = {
            "a": ReplicaProfile(name="a", service_s=1e-3, macs=64),
            "b": ReplicaProfile(name="b", service_s=1e-3, macs=64),
        }
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8, 8, 8], rng=0))
        placement = place_graph(graph, profiles, strategy="balanced")
        assert set(placement.assignments.values()) == {"a", "b"}

    def test_validation(self):
        graph = ModelGraph.from_matrices(make_layer_stack([4, 4], rng=0))
        with pytest.raises(ValueError):
            place_graph(graph, {})
        with pytest.raises(ValueError):
            place_graph(graph, self._profiles(), strategy="chaotic")


# --------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------- #
class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(max_plans=2)
        cache.put(("g1", "hw"), "p1")
        cache.put(("g2", "hw"), "p2")
        assert cache.get(("g1", "hw")) == "p1"  # refreshes g1
        cache.put(("g3", "hw"), "p3")  # evicts g2
        assert cache.get(("g2", "hw")) is None
        assert cache.get(("g1", "hw")) == "p1"
        assert len(cache) == 2
        assert cache.hits == 2 and cache.misses == 3

    def test_fingerprints_differ_by_hardware(self):
        soc1 = make_soc(1)
        soc2 = make_soc(2)
        assert soc_fingerprint(soc1) != soc_fingerprint(soc2)
        replicas = [Replica("r0", GemmEngine(weights=np.ones((4, 4))))]
        assert pool_fingerprint(replicas) != pool_fingerprint(
            replicas, strategy="balanced"
        )


# --------------------------------------------------------------------- #
# plan execution oracles (acceptance)
# --------------------------------------------------------------------- #
class TestSoCPlan:
    def test_three_layer_plan_is_bitwise_identical_to_direct(self):
        mats = make_layer_stack([12, 16, 10, 6], rng=0)
        graph = ModelGraph.from_matrices(
            mats, activations=["relu", "relu", "identity"]
        )
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        plan = compile_for_soc(graph, soc, cost_model=model, cache=None)
        columns = np.arange(12 * 3).reshape(12, 3) % 5 - 2
        planned = plan.run(columns)
        # direct per-layer execution on the same backend (the same SoC)
        direct = columns.astype(np.int64)
        for weights, activation in zip(mats, ["relu", "relu", "identity"]):
            direct = soc.run_tiled_gemm(weights, direct).result
            if activation == "relu":
                direct = np.maximum(direct, 0)
        assert np.array_equal(planned, direct)
        assert len(plan.reports) == 3
        assert plan.total_cycles > 0

    def test_plan_with_k_sharded_layer_matches(self):
        mats = make_layer_stack([16, 12, 8], rng=1)
        graph = ModelGraph.from_matrices(mats)
        soc = make_soc(2)
        plan = compile_for_soc(graph, soc, cache=None)
        plan.steps[0].sharding = "k"
        plan.steps[0].k_shards = 2
        planned = plan.run(np.arange(16)[:, None] % 3)
        direct = (np.arange(16)[:, None] % 3).astype(np.int64)
        for weights in mats:
            direct = soc.run_tiled_gemm(weights, direct).result
        assert np.array_equal(planned, direct)

    def test_cache_hits_by_graph_and_hardware(self):
        cache = PlanCache(max_plans=4)
        mats = make_layer_stack([8, 8, 8], rng=0)
        graph = ModelGraph.from_matrices(mats)
        soc = make_soc(2)
        first = compile_for_soc(graph, soc, cache=cache)
        again = compile_for_soc(graph, soc, cache=cache)
        assert again is first and cache.hits == 1
        other_graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8], rng=5))
        assert compile_for_soc(other_graph, soc, cache=cache) is not first

    def test_recalibration_invalidates_cached_plans(self):
        cache = PlanCache(max_plans=4)
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8], rng=0))
        soc = make_soc(2)
        heuristic = compile_for_soc(graph, soc, cache=cache)
        calibrated = compile_for_soc(
            graph, soc, cost_model=SoCCostModel.calibrate(soc), cache=cache
        )
        # a freshly calibrated model must not return the heuristic plan
        assert calibrated is not heuristic
        assert calibrated.fingerprint != heuristic.fingerprint

    def test_batch_width_is_part_of_the_decision_and_the_key(self):
        cache = PlanCache(max_plans=4)
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8], rng=0))
        soc = make_soc(2)
        narrow = compile_for_soc(graph, soc, n_columns=1, cache=cache)
        wide = compile_for_soc(graph, soc, n_columns=16, cache=cache)
        assert narrow is not wide
        with pytest.raises(ValueError):
            compile_for_soc(graph, soc, n_columns=0, cache=None)

    def test_predicted_total_is_none_when_any_layer_lacks_a_prediction(self):
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8, 8], rng=0))
        # no cost model at all -> no predictions anywhere
        plan = compile_for_soc(graph, make_soc(2), cache=None)
        assert plan.predicted_cycles is None
        assert all(step.predicted_cycles is None for step in plan.steps)
        # calibrated 1-PE model -> every layer predicted, total present
        soc = make_soc(1)
        plan = compile_for_soc(
            graph, soc, cost_model=SoCCostModel.calibrate(soc), cache=None
        )
        assert plan.predicted_cycles is not None and plan.predicted_cycles > 0
        assert all(step.predicted_cycles is not None for step in plan.steps)

    def test_rejects_unloweable_activations_and_branches(self):
        soc = make_soc(1)
        softmax_graph = ModelGraph.from_matrices(
            [np.ones((4, 4))], activations=["softmax"]
        )
        with pytest.raises(GraphError):
            compile_for_soc(softmax_graph, soc, cache=None)
        branched = ModelGraph()
        branched.add_op(DenseOp("a", np.ones((4, 4))))
        branched.add_op(DenseOp("b", np.ones((4, 4))))
        with pytest.raises(GraphError):
            compile_for_soc(branched, soc, cache=None)
        with pytest.raises(ValueError):
            compile_for_soc(softmax_graph, PhotonicSoC(), cache=None)


class TestPoolPlan:
    @staticmethod
    def _mixed_pool():
        return [
            Replica("ideal", GemmEngine(backend="ideal-digital", name="ideal")),
            Replica(
                "quant",
                GemmEngine(
                    backend="quantized-digital",
                    name="quant",
                    weight_bits=12,
                    input_bits=12,
                ),
            ),
        ]

    def test_three_layer_plan_matches_direct_backend_execution(self):
        mats = make_layer_stack([12, 16, 10, 6], rng=0)
        activations = ["relu", "relu", "identity"]
        graph = ModelGraph.from_matrices(mats, activations=activations)
        replicas = self._mixed_pool()
        # deliberately spread layers over both backends to prove the plan
        # executes on the replica it pins, not wherever routing happens to go
        profiles = {
            "ideal": ReplicaProfile(name="ideal", service_s=1e-4, macs=64),
            "quant": ReplicaProfile(name="quant", service_s=1e-4, macs=64),
        }
        plan = compile_for_pool(
            graph, replicas, profiles=profiles, strategy="balanced", cache=None
        )
        assert set(step.replica for step in plan.steps) == {"ideal", "quant"}

        async def scenario():
            async with InferenceServer(replicas) as server:
                return await plan.run(server, np.arange(12.0) % 5 - 2)

        planned = run_async(scenario())
        backends = {
            "ideal": resolve_backend("ideal-digital"),
            "quant": resolve_backend(
                "quantized-digital", weight_bits=12, input_bits=12
            ),
        }
        direct = (np.arange(12.0) % 5 - 2)[:, None]
        for op, step in zip(graph.topological_order(), plan.steps):
            direct = op.finish(backends[step.replica].matmul(step.weights, direct))
        assert np.array_equal(planned, direct[:, 0])

    def test_pool_plan_serves_matrix_columns_and_validates(self):
        graph = ModelGraph.from_matrices(make_layer_stack([4, 4], rng=0))
        replicas = [Replica("r0", GemmEngine(name="r0"))]
        plan = compile_for_pool(
            graph,
            replicas,
            profiles={"r0": ReplicaProfile(name="r0", service_s=1e-4, macs=16)},
            cache=None,
        )

        async def scenario():
            async with InferenceServer(replicas) as server:
                matrix = await plan.run(server, np.ones((4, 1)))
                with pytest.raises(ValueError):
                    await plan.run(server, np.ones((4, 2)))
                return matrix

        assert run_async(scenario()).shape == (4, 1)

    def test_reprofiled_pool_invalidates_cached_placement(self):
        cache = PlanCache(max_plans=4)
        graph = ModelGraph.from_matrices(make_layer_stack([4, 4], rng=0))
        replicas = self._mixed_pool()
        before = compile_for_pool(
            graph,
            replicas,
            profiles={
                "ideal": ReplicaProfile(name="ideal", service_s=1e-4, macs=64),
                "quant": ReplicaProfile(name="quant", service_s=1e-2, macs=64),
            },
            cache=cache,
        )
        after = compile_for_pool(
            graph,
            replicas,
            profiles={
                "ideal": ReplicaProfile(name="ideal", service_s=1e-2, macs=64),
                "quant": ReplicaProfile(name="quant", service_s=1e-4, macs=64),
            },
            cache=cache,
        )
        # fresh measurements flipped the cost order: the placement follows
        assert before is not after
        assert before.placement.assignments == {"layer0": "ideal"}
        assert after.placement.assignments == {"layer0": "quant"}

    def test_profiles_measured_on_the_spot_when_missing(self):
        graph = ModelGraph.from_matrices(make_layer_stack([4, 4], rng=0))
        replicas = [Replica("r0", GemmEngine(name="r0"))]
        plan = compile_for_pool(graph, replicas, cache=None)
        assert plan.placement.assignments == {"layer0": "r0"}

    def test_bound_model_engines_excluded_at_compile_time(self):
        from repro.core.nn import MLP
        from repro.serving import MLPEngine

        graph = ModelGraph.from_matrices(make_layer_stack([4, 4], rng=0))
        mlp_replica = Replica(
            "bound", MLPEngine(MLP.random_init([4, 4], rng=0), photonic=False)
        )
        gemm_replica = Replica("gemm", GemmEngine(name="gemm"))
        plan = compile_for_pool(
            graph,
            [mlp_replica, gemm_replica],
            profiles={
                # the bound replica looks cheapest — it must still be skipped
                "bound": ReplicaProfile(name="bound", service_s=1e-9, macs=16),
                "gemm": ReplicaProfile(name="gemm", service_s=1e-3, macs=16),
            },
            cache=None,
        )
        assert set(step.replica for step in plan.steps) == {"gemm"}
        with pytest.raises(ValueError, match="explicit-weights"):
            compile_for_pool(graph, [mlp_replica], cache=None)

    def test_profile_replicas_returns_one_profile_per_replica(self):
        replicas = self._mixed_pool()
        profiles = profile_replicas(replicas, weights=np.ones((6, 6)))
        assert set(profiles) == {"ideal", "quant"}
        assert all(profile.service_s > 0 for profile in profiles.values())


# --------------------------------------------------------------------- #
# glue ops (fan-out / fan-in)
# --------------------------------------------------------------------- #
class TestGlueOps:
    def test_split_validation_and_semantics(self):
        op = SplitOp("s", 10, 2, 6)
        assert op.n_inputs == 10 and op.n_outputs == 4 and op.macs == 0
        block = np.arange(20).reshape(10, 2)
        assert np.array_equal(op.apply([block]), block[2:6])
        with pytest.raises(ValueError):
            SplitOp("s", 10, 4, 4)  # empty slice
        with pytest.raises(ValueError):
            SplitOp("s", 10, -1, 4)
        with pytest.raises(ValueError):
            SplitOp("s", 10, 2, 11)

    def test_concat_orders_edges(self):
        op = ConcatOp("c", (2, 3))
        a, b = np.ones((2, 1)), 2 * np.ones((3, 1))
        assert np.array_equal(op.apply([a, b]), np.vstack([a, b]))
        with pytest.raises(ValueError):
            ConcatOp("c", (4,))  # single input is not a concat
        with pytest.raises(ValueError):
            ConcatOp("c", (4, 0))

    def test_add_arity_and_dtype_preservation(self):
        op = AddOp("a", 3, arity=3)
        blocks = [np.full((3, 2), v, dtype=np.int64) for v in (1, 2, 3)]
        total = op.apply(blocks)
        assert total.dtype == np.int64 and np.all(total == 6)
        with pytest.raises(ValueError):
            AddOp("a", 3, arity=1)
        with pytest.raises(ValueError):
            AddOp("a", 0)

    def test_glue_hashes_cover_parameters(self):
        assert SplitOp("x", 10, 0, 4).op_hash() != SplitOp("x", 10, 4, 8).op_hash()
        assert ConcatOp("x", (2, 3)).op_hash() != ConcatOp("x", (3, 2)).op_hash()
        assert AddOp("x", 4).op_hash() != AddOp("x", 4, arity=3).op_hash()
        # kinds never collide even with look-alike parameters
        assert AddOp("x", 4).op_hash() != SplitOp("x", 4, 0, 4).op_hash()
        # renaming never changes the content hash
        assert AddOp("x", 4).op_hash() == AddOp("y", 4).op_hash()

    def test_relu_epilogue_on_glue(self):
        op = AddOp("a", 2, activation="relu")
        out = op.apply([np.array([[1.0], [-3.0]]), np.array([[1.0], [1.0]])])
        assert np.array_equal(out, [[2.0], [0.0]])


# --------------------------------------------------------------------- #
# branching DAGs
# --------------------------------------------------------------------- #
class TestBranchingGraphs:
    @staticmethod
    def _diamond():
        return make_diamond_graph(8, n_outputs=4, rng=0)

    def test_wiring_validation(self):
        graph = ModelGraph()
        graph.add_op(DenseOp("a", np.ones((4, 4))))
        with pytest.raises(GraphError):  # concat cannot be a root
            graph.add_op(ConcatOp("c", (4, 4)))
        with pytest.raises(GraphError):  # arity mismatch
            graph.add_op(AddOp("r", 4, arity=2), inputs=["a"])
        with pytest.raises(GraphError):  # feature-size mismatch
            graph.add_op(SplitOp("s", 5, 0, 2), inputs=["a"])
        with pytest.raises(GraphError):  # reserved buffer name
            graph.add_op(DenseOp(INPUT_BUFFER, np.ones((4, 4))))

    def test_hash_stable_under_insertion_reorder(self):
        def build(order_swapped):
            graph = ModelGraph()
            graph.add_op(DenseOp("stem", np.eye(4)))
            first, second = ("right", "left") if order_swapped else ("left", "right")
            graph.add_op(DenseOp(first, np.full((4, 4), 2.0)), inputs=["stem"])
            graph.add_op(DenseOp(second, 2.0 * np.full((4, 4), 1.0)), inputs=["stem"])
            graph.add_op(AddOp("add", 4), inputs=["left", "right"])
            return graph

        assert build(False).graph_hash() == build(True).graph_hash()

    def test_hash_sensitive_to_edge_order(self):
        def build(flipped):
            graph = ModelGraph()
            graph.add_op(DenseOp("a", np.ones((2, 4))))
            graph.add_op(DenseOp("b", np.ones((3, 4))))
            inputs = ["b", "a"] if flipped else ["a", "b"]
            sizes = (3, 2) if flipped else (2, 3)
            graph.add_op(ConcatOp("c", sizes), inputs=inputs)
            graph.set_output("c")
            return graph

        assert build(False).graph_hash() != build(True).graph_hash()

    def test_multi_sink_requires_explicit_output(self):
        graph = ModelGraph()
        graph.add_op(DenseOp("a", np.ones((4, 4))))
        graph.add_op(DenseOp("b", np.ones((4, 4))), inputs=["a"])
        graph.add_op(DenseOp("c", np.ones((4, 4))), inputs=["a"])
        assert graph.sinks() == ["b", "c"]
        with pytest.raises(GraphError):
            graph.output_name()
        base_hash = ModelGraph.from_matrices([np.ones((4, 4))]).graph_hash()
        graph.set_output("b")
        assert graph.output_name() == "b"
        hash_b = graph.graph_hash()
        graph.set_output("c")
        assert graph.graph_hash() != hash_b  # output designation is semantic
        assert graph.graph_hash() != base_hash
        with pytest.raises(GraphError):
            graph.set_output("missing")

    def test_explicit_sole_sink_output_hashes_like_the_default(self):
        mats = make_layer_stack([4, 4, 4], rng=0)
        default = ModelGraph.from_matrices(mats)
        explicit = ModelGraph.from_matrices(mats)
        explicit.set_output("layer1")  # the sole sink — semantically a no-op
        assert default.graph_hash() == explicit.graph_hash()

    def test_dead_branches_are_pruned(self):
        graph = self._diamond()
        graph.add_op(DenseOp("dead", np.ones((3, 4)), activation="softmax"),
                     inputs=["head"])
        graph.set_output("head")
        assert "dead" not in graph.live_op_names()
        scheduled = [step.op.name for step in graph.schedule()]
        assert "dead" not in scheduled and len(scheduled) == 4

    def test_schedule_releases_buffers_at_last_consumer(self):
        graph = self._diamond()
        steps = {step.op.name: step for step in graph.schedule()}
        # both roots read the graph input; the name-later root frees it
        assert steps["left"].release == ()
        assert steps["right"].release == (INPUT_BUFFER,)
        assert set(steps["residual"].release) == {"left", "right"}
        assert steps["head"].release == ("residual",)

    def test_roots_must_agree_on_input_width(self):
        graph = ModelGraph()
        graph.add_op(DenseOp("a", np.ones((4, 4))))
        graph.add_op(DenseOp("b", np.ones((4, 5))))
        graph.add_op(AddOp("add", 4), inputs=["a", "b"])
        with pytest.raises(GraphError):
            graph.schedule()

    def test_reference_forward_diamond_matches_numpy(self):
        graph = self._diamond()
        x = np.linspace(-2, 2, 8)
        left = graph.op("left").weights @ x
        right = graph.op("right").weights @ x
        res = np.maximum(left, 0) + np.maximum(right, 0)
        want = graph.op("head").weights @ res
        assert np.allclose(graph.reference_forward(x)[:, 0], want)

    def test_single_op_graph(self):
        graph = ModelGraph.from_matrices([np.arange(12).reshape(3, 4)])
        assert graph.is_chain() and graph.output_name() == "layer0"
        out = graph.reference_forward(np.ones(4))
        assert out.shape == (3, 1)


# --------------------------------------------------------------------- #
# batch-aware sharding
# --------------------------------------------------------------------- #
class TestBatchAwareSharding:
    def test_decision_flips_with_batch_width(self):
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        narrow = choose_sharding(2, 16, 1, 2, cost_model=model)
        wide = choose_sharding(2, 16, 32, 2, cost_model=model)
        assert (narrow.strategy, narrow.k_shards) != (wide.strategy, wide.k_shards)

    def test_expected_batch_width_resolution(self):
        assert expected_batch_width(7) == 7
        with pytest.raises(ValueError):
            expected_batch_width(0)
        engine = GemmEngine(weights=np.ones((4, 4)), name="g")
        batcher = MicroBatcher(engine, max_batch=16)
        assert expected_batch_width(batcher) == 16  # no traffic yet
        batcher.stats.batches = 4
        batcher.stats.requests = 10
        assert expected_batch_width(batcher) == 2  # observed mean, rounded

    def test_replica_resolves_through_its_batcher(self):
        replica = Replica("r0", GemmEngine(weights=np.ones((4, 4))), max_batch=8)
        assert expected_batch_width(replica) == 8
        assert replica.expected_columns() == 8

    def test_compile_accepts_serving_objects_as_batch_width(self):
        graph = ModelGraph.from_matrices(make_layer_stack([8, 8], rng=0))
        soc = make_soc(2)
        replica = Replica("r0", GemmEngine(weights=np.ones((8, 8))), max_batch=32)
        via_replica = compile_for_soc(graph, soc, n_columns=replica, cache=None)
        via_int = compile_for_soc(graph, soc, n_columns=32, cache=None)
        assert via_replica.n_columns == via_int.n_columns == 32
        assert via_replica.fingerprint == via_int.fingerprint


# --------------------------------------------------------------------- #
# DAG plan execution oracles (acceptance)
# --------------------------------------------------------------------- #
class TestSoCDagPlans:
    def test_diamond_plan_is_bitwise_identical_to_direct(self):
        graph = make_diamond_graph(8, n_outputs=4, rng=3)
        soc = make_soc(2)
        model = SoCCostModel.calibrate(soc)
        # fuse="never" keeps the one-offload-per-dense-op lowering this
        # structural oracle asserts; branch fusion has its own test module
        plan = compile_for_soc(
            graph, soc, cost_model=model, n_columns=3, fuse="never", cache=None
        )
        columns = np.arange(8 * 3).reshape(8, 3) % 5 - 2
        planned = plan.run(columns)
        direct = graph.reference_forward(columns).astype(np.int64)
        assert np.array_equal(planned, direct)
        assert len(plan.reports) == 3  # three dense offloads, one glue step
        assert plan.total_cycles > 0

    def test_residual_and_multi_head_plans_match(self):
        soc = make_soc(2)
        columns = np.arange(12)[:, None] % 4 - 1
        for graph in (
            make_residual_graph(12, n_blocks=2, rng=1),
            make_multi_head_graph(12, head_sizes=(4, 3), rng=2),
        ):
            plan = compile_for_soc(graph, soc, cache=None)
            assert np.array_equal(
                plan.run(columns),
                graph.reference_forward(columns).astype(np.int64),
            )

    def test_single_op_graph_compiles_and_runs(self):
        graph = ModelGraph.from_matrices(make_layer_stack([6, 4], rng=0))
        soc = make_soc(2)
        plan = compile_for_soc(graph, soc, cache=None)
        columns = np.arange(6)[:, None]
        assert np.array_equal(
            plan.run(columns), graph.reference_forward(columns).astype(np.int64)
        )

    def test_dead_softmax_branch_is_pruned_not_rejected(self):
        graph = make_diamond_graph(8, rng=0)
        graph.add_op(
            DenseOp("dead", np.ones((3, 4)), activation="softmax"), inputs=["head"]
        )
        graph.set_output("head")
        plan = compile_for_soc(graph, make_soc(1), cache=None)
        assert [step.op_name for step in plan.steps] == [
            "left", "right", "residual", "head"
        ]
        # an unused *live* softmax would still be rejected
        graph.set_output("dead")
        with pytest.raises(GraphError):
            compile_for_soc(graph, make_soc(1), cache=None)

    def test_dag_and_chain_hashes_key_the_cache_separately(self):
        cache = PlanCache(max_plans=8)
        soc = make_soc(2)
        diamond = make_diamond_graph(8, rng=0)
        first = compile_for_soc(diamond, soc, cache=cache)
        again = compile_for_soc(diamond, soc, cache=cache)
        assert again is first and cache.hits == 1


class TestPoolDagPlans:
    @staticmethod
    def _mixed_pool():
        return [
            Replica("ideal", GemmEngine(backend="ideal-digital", name="ideal")),
            Replica(
                "quant",
                GemmEngine(
                    backend="quantized-digital",
                    name="quant",
                    weight_bits=12,
                    input_bits=12,
                ),
            ),
        ]

    def test_diamond_pool_plan_matches_direct_backend_execution(self):
        graph = make_diamond_graph(8, n_outputs=4, rng=3)
        replicas = self._mixed_pool()
        profiles = {
            "ideal": ReplicaProfile(name="ideal", service_s=1e-4, macs=64),
            "quant": ReplicaProfile(name="quant", service_s=1e-4, macs=64),
        }
        plan = compile_for_pool(
            graph, replicas, profiles=profiles, strategy="balanced", cache=None
        )
        # the two parallel branches sit in the same level, on distinct replicas
        by_name = {step.op_name: step for step in plan.steps}
        assert by_name["left"].level == by_name["right"].level == 0
        assert by_name["left"].replica != by_name["right"].replica
        assert plan.n_levels == 3

        async def scenario():
            # both modes inside one server session: replica queues bind to
            # the running event loop, so pools are not reusable across loops
            async with InferenceServer(replicas) as server:
                column = np.linspace(-2, 2, 8)
                gathered = await plan.run(server, column, concurrency="levels")
                serial = await plan.run(server, column, concurrency="sequential")
                return gathered, serial

        backends = {
            "ideal": resolve_backend("ideal-digital"),
            "quant": resolve_backend(
                "quantized-digital", weight_bits=12, input_bits=12
            ),
        }

        def matmul(weights, columns):
            op_name = next(
                step.op_name
                for step in plan.steps
                if step.kind == "dense" and step.op.weights is weights
            )
            return backends[by_name[op_name].replica].matmul(
                np.asarray(weights, dtype=float), columns
            )

        want = graph.reference_forward(np.linspace(-2, 2, 8), matmul=matmul)[:, 0]
        gathered, serial = run_async(scenario())
        assert np.array_equal(gathered, want)
        assert np.array_equal(serial, want)

    def test_unknown_concurrency_rejected(self):
        graph = make_diamond_graph(8, rng=0)
        replicas = [Replica("r0", GemmEngine(name="r0"))]
        plan = compile_for_pool(
            graph,
            replicas,
            profiles={"r0": ReplicaProfile(name="r0", service_s=1e-4, macs=16)},
            cache=None,
        )

        async def scenario():
            async with InferenceServer(replicas) as server:
                with pytest.raises(ValueError):
                    await plan.run(server, np.ones(8), concurrency="chaotic")

        run_async(scenario())

    def test_glue_ops_are_never_placed(self):
        graph = make_diamond_graph(8, rng=0)
        placement = place_graph(
            graph, {"r0": ReplicaProfile(name="r0", service_s=1e-4, macs=16)}
        )
        assert set(placement.assignments) == {"left", "right", "head"}
