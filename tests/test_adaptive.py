"""Unit coverage for the adaptive replanning loop.

Pins the PR 10 contracts: refit threshold edges (below/at/above
``min_samples``), fingerprint bump -> plan-cache miss, flip-point
crossings in both directions, bitwise plan-output equivalence across a
replan, and fixed-seed replay determinism of the whole decision trace.
"""

import asyncio

import numpy as np
import pytest

from repro.compiler import (
    AdaptiveReplanner,
    CalibrationSample,
    ModelGraph,
    PlanCache,
    SoCCostModel,
    compile_for_soc,
    replica_cost_fn,
    sharding_signature,
    soc_fingerprint,
)
from repro.obs.drift import DriftMonitor
from repro.serving import InferenceServer, Replica, SoCGemmEngine
from repro.system import PhotonicSoC

#: Production GeMM shapes used to feed the sample window in drift tests.
TRAFFIC_SHAPES = [
    (12, 16, 8), (16, 16, 4), (8, 16, 16), (16, 8, 8), (12, 16, 16),
    (8, 8, 8), (16, 16, 8), (8, 16, 8), (16, 16, 16), (12, 8, 8),
    (8, 8, 16), (16, 8, 16),
]


def make_soc(n_pes=2):
    soc = PhotonicSoC()
    for _ in range(n_pes):
        soc.add_photonic_accelerator()
    return soc


def drifted_replanner(penalty=16, min_samples=6, refit_threshold=0.15, **kwargs):
    """Boot-calibrated replanner on an SoC that drifted after deployment.

    The default threshold sits above the boot model's ~10% generalization
    noise floor on the traffic shapes, so only genuine drift fires it.
    """
    soc = make_soc(2)
    boot = SoCCostModel.calibrate(soc)
    soc.bus.arbitration_penalty = penalty  # contention the bench never saw
    replanner = AdaptiveReplanner(
        soc, boot, refit_threshold=refit_threshold, min_samples=min_samples,
        cache=PlanCache(), **kwargs,
    )
    return soc, boot, replanner


def feed_offloads(soc, replanner, shapes, seed=7):
    rng = np.random.default_rng(seed)
    for m, k, n in shapes:
        weights = rng.integers(-4, 5, size=(m, k))
        inputs = rng.integers(-4, 5, size=(k, n))
        replanner.observe_offload((m, k, n), soc.run_tiled_gemm(weights, inputs))


def run_async(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------- #
# refit threshold edges
# --------------------------------------------------------------------- #
class TestRefitThresholds:
    def test_below_min_samples_never_fires(self):
        soc, _, replanner = drifted_replanner(penalty=32, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES[:5])
        assert replanner.window_error() > replanner.refit_threshold
        assert replanner.maybe_refit() is None
        assert replanner.generation == 0 and replanner.events == []

    def test_at_min_samples_fires(self):
        soc, _, replanner = drifted_replanner(penalty=32, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES[:6])
        event = replanner.maybe_refit()
        assert event is not None and event.n_samples == 6
        assert replanner.generation == 1

    def test_above_min_samples_fires(self):
        soc, _, replanner = drifted_replanner(penalty=16, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        assert replanner.maybe_refit() is not None

    def test_error_exactly_at_threshold_does_not_fire(self):
        soc, _, replanner = drifted_replanner(penalty=16, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        replanner.refit_threshold = replanner.window_error()  # exactly at
        assert replanner.maybe_refit() is None

    def test_no_drift_no_refit(self):
        soc, _, replanner = drifted_replanner(penalty=0, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        assert replanner.window_error() <= replanner.refit_threshold
        assert replanner.maybe_refit() is None

    def test_refit_reduces_window_error(self):
        soc, boot, replanner = drifted_replanner(penalty=16, min_samples=6)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        event = replanner.maybe_refit()
        assert event.error_after < event.error_before
        assert replanner.window_error() == event.error_after
        # the boot model is untouched — refit returned a new model
        assert replanner.model is not boot
        assert replanner.window_error(model=boot) == pytest.approx(
            event.error_before
        )

    def test_drift_flags_trigger_refit_and_monitor_resets(self):
        monitor = DriftMonitor(threshold=0.05, min_samples=1)
        soc, _, replanner = drifted_replanner(
            penalty=16, min_samples=6, drift_monitor=monitor
        )
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        for sample in list(replanner._samples):
            predicted = replanner.model.predict_gemm(*sample.shape).pipelined_cycles
            monitor.record(sample.shape, "soc", predicted, sample.pipelined_cycles)
        assert monitor.flags()
        # error alone would not fire: raise the threshold above the window
        replanner.refit_threshold = 10.0
        event = replanner.maybe_refit()
        assert event is not None and event.drift_flags > 0
        assert len(monitor) == 0  # reset against the refreshed model

    def test_ksharded_reports_are_not_samples(self):
        soc, _, replanner = drifted_replanner()
        rng = np.random.default_rng(0)
        weights = rng.integers(-4, 5, size=(2, 16))
        inputs = rng.integers(-4, 5, size=(16, 4))
        report = soc.run_tiled_gemm(weights, inputs, k_shards=2)
        with pytest.raises(ValueError):
            CalibrationSample.from_report((2, 16, 4), report)
        replanner.observe_offload((2, 16, 4), report)  # silently ignored
        assert len(replanner._samples) == 0


# --------------------------------------------------------------------- #
# fingerprint bump -> plan-cache invalidation
# --------------------------------------------------------------------- #
class TestFingerprintBump:
    def test_refit_bumps_fingerprint_and_misses_cache(self):
        soc, _, replanner = drifted_replanner(penalty=16, min_samples=6)
        cache = replanner.cache
        rng = np.random.default_rng(3)
        graph = ModelGraph.from_matrices([rng.integers(-4, 5, size=(8, 16))])
        replanner.manage(graph, n_columns=4)
        misses = cache.misses
        # same graph, same model: cache hit
        again = compile_for_soc(
            graph, soc, cost_model=replanner.model, n_columns=4, cache=cache
        )
        assert cache.hits >= 1 and cache.misses == misses
        assert again is replanner.active_plan(graph)

        # an UNMANAGED graph compiled against the replanner's model: the
        # fingerprint bump alone must force the recompile (no explicit
        # invalidation happens for it)
        unmanaged = ModelGraph.from_matrices(
            [rng.integers(-4, 5, size=(12, 8))], name="unmanaged"
        )
        stale = compile_for_soc(
            unmanaged, soc, cost_model=replanner.model, n_columns=4, cache=cache
        )
        before = replanner.fingerprint()
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        assert replanner.maybe_refit() is not None
        assert replanner.fingerprint() != before
        # the SoC fingerprint (the plan-cache key half) bumped with it
        assert (
            soc_fingerprint(soc, cost_model=replanner.model, n_columns=4)
            != stale.fingerprint
        )
        misses = cache.misses
        fresh = compile_for_soc(
            unmanaged, soc, cost_model=replanner.model, n_columns=4, cache=cache
        )
        assert cache.misses == misses + 1  # stale plan was not returned
        assert fresh is not stale and fresh.fingerprint != stale.fingerprint

    def test_cache_invalidate_drops_matching_plans(self):
        cache = PlanCache(max_plans=8)
        cache.put(("g1", "f1"), "plan-a")
        cache.put(("g1", "f2"), "plan-b")
        cache.put(("g2", "f1"), "plan-c")
        assert cache.invalidate() == 0
        assert cache.invalidate(graph_hash="g1") == 2
        assert len(cache) == 1
        assert cache.invalidate(fingerprint="f1") == 1
        assert len(cache) == 0

    def test_refit_invalidates_managed_graph_entries(self):
        soc, _, replanner = drifted_replanner(penalty=16, min_samples=6)
        rng = np.random.default_rng(3)
        graph = ModelGraph.from_matrices([rng.integers(-4, 5, size=(8, 16))])
        plan = replanner.manage(graph, n_columns=4)
        stale_key = (plan.graph_hash, plan.fingerprint)
        assert stale_key in replanner.cache._plans
        feed_offloads(soc, replanner, TRAFFIC_SHAPES)
        replanner.maybe_refit()
        # the retired-fingerprint entry no longer occupies an LRU slot
        assert stale_key not in replanner.cache._plans


# --------------------------------------------------------------------- #
# flip-point crossings
# --------------------------------------------------------------------- #
class TestFlipPoint:
    def setup_method(self):
        self.soc = make_soc(2)
        self.model = SoCCostModel.calibrate(self.soc)
        self.rng = np.random.default_rng(3)
        self.weights = self.rng.integers(-4, 5, size=(2, 16))
        self.graph = ModelGraph.from_matrices([self.weights])
        self.replanner = AdaptiveReplanner(self.soc, self.model, cache=PlanCache())
        self.plan = self.replanner.manage(self.graph, n_columns=1)

    def feed_widths(self, width, count=40):
        for _ in range(count):
            self.replanner.observe_batch(width)

    def test_crossing_up_recompiles_exactly_once(self):
        narrow = sharding_signature([(2, 16)], 1, 2, cost_model=self.model)
        wide = sharding_signature([(2, 16)], 32, 2, cost_model=self.model)
        assert narrow != wide, "the PR 5 flip point moved — fix the fixture"
        self.feed_widths(1, count=8)
        assert self.replanner.poll() == []
        self.feed_widths(32, count=40)
        events = self.replanner.poll()
        assert len(events) == 1
        event = events[0]
        assert event.reason == "width-flip"
        assert (event.old_signature, event.new_signature) == (narrow, wide)
        entry = self.replanner.managed()[self.plan.graph_hash]
        assert entry.replans == 1 and entry.width == 32
        # a second poll at the same traffic does nothing
        assert self.replanner.poll() == []

    def test_crossing_down_recompiles_back(self):
        self.feed_widths(32, count=32)
        assert len(self.replanner.poll()) == 1
        self.feed_widths(1, count=40)  # drown the wide history
        events = self.replanner.poll()
        assert len(events) == 1
        assert events[0].new_signature == sharding_signature(
            [(2, 16)], 1, 2, cost_model=self.model
        )
        assert self.replanner.managed()[self.plan.graph_hash].replans == 2

    def test_width_jitter_within_region_never_recompiles(self):
        # 16 and 32 sit in the same sharding region for this shape
        assert sharding_signature(
            [(2, 16)], 16, 2, cost_model=self.model
        ) == sharding_signature([(2, 16)], 32, 2, cost_model=self.model)
        self.feed_widths(32, count=32)
        assert len(self.replanner.poll()) == 1
        self.feed_widths(16, count=40)
        assert self.replanner.poll() == []  # width changed, sharding didn't
        entry = self.replanner.managed()[self.plan.graph_hash]
        assert entry.replans == 1 and entry.width == 32

    def test_bitwise_equivalence_across_replan(self):
        self.feed_widths(32, count=32)
        old_plan = self.replanner.active_plan(self.graph)
        assert len(self.replanner.poll()) == 1
        new_plan = self.replanner.active_plan(self.graph)
        assert new_plan is not old_plan
        inputs = self.rng.integers(-4, 5, size=(16, 32))
        old_out = old_plan.run(inputs)
        new_out = new_plan.run(inputs)
        assert np.array_equal(old_out, new_out)
        assert np.array_equal(new_out, self.weights @ inputs)

    def test_new_plan_measured_faster_at_new_width(self):
        self.feed_widths(32, count=32)
        old_plan = self.replanner.active_plan(self.graph)
        self.replanner.poll()
        new_plan = self.replanner.active_plan(self.graph)
        inputs = self.rng.integers(-4, 5, size=(16, 32))
        old_plan.run(inputs)
        new_plan.run(inputs)
        assert new_plan.total_cycles < old_plan.total_cycles


# --------------------------------------------------------------------- #
# replay determinism
# --------------------------------------------------------------------- #
class TestReplayDeterminism:
    @staticmethod
    def _scenario():
        soc = make_soc(2)
        boot = SoCCostModel.calibrate(soc)
        soc.bus.arbitration_penalty = 16
        replanner = AdaptiveReplanner(
            soc, boot, refit_threshold=0.05, min_samples=6, cache=PlanCache()
        )
        rng = np.random.default_rng(11)
        graph = ModelGraph.from_matrices([rng.integers(-4, 5, size=(2, 16))])
        replanner.manage(graph, n_columns=1)
        feed_offloads(soc, replanner, TRAFFIC_SHAPES, seed=7)
        replanner.poll()
        for _ in range(40):
            replanner.observe_batch(32)
        replanner.poll()
        for _ in range(40):
            replanner.observe_batch(1)
        replanner.poll()
        return replanner

    def test_fixed_seed_replay_is_bitwise_identical(self):
        first = self._scenario().decision_trace()
        second = self._scenario().decision_trace()
        assert first == second  # floats, fingerprints, signatures — all exact
        kinds = [event["kind"] for event in first]
        assert "refit" in kinds and kinds.count("replan") >= 2


# --------------------------------------------------------------------- #
# serving wiring (opt-in hooks)
# --------------------------------------------------------------------- #
class TestServingWiring:
    def test_engine_feeds_offload_samples(self):
        soc, _, replanner = drifted_replanner()
        engine = SoCGemmEngine(soc, replanner=replanner)
        rng = np.random.default_rng(5)
        weights = rng.integers(-4, 5, size=(8, 16))
        engine.run_batch(weights, rng.integers(-4, 5, size=(16, 4)).astype(float))
        assert len(replanner._samples) == 1
        assert replanner._samples[0].shape == (8, 16, 4)

    def test_engine_without_replanner_unchanged(self):
        soc = make_soc(2)
        engine = SoCGemmEngine(soc)
        rng = np.random.default_rng(5)
        weights = rng.integers(-4, 5, size=(8, 16))
        out = engine.run_batch(weights, rng.integers(-4, 5, size=(16, 4)).astype(float))
        assert out.shape == (8, 4)

    def test_drift_recording_reads_replanner_model(self):
        # no engine-level cost model: predictions must come from the
        # replanner's current model, so recording survives a refit
        soc, _, replanner = drifted_replanner()
        monitor = DriftMonitor(threshold=0.05, min_samples=1)
        engine = SoCGemmEngine(soc, replanner=replanner, drift_monitor=monitor)
        rng = np.random.default_rng(5)
        weights = rng.integers(-4, 5, size=(8, 16))
        engine.run_batch(weights, rng.integers(-4, 5, size=(16, 4)).astype(float))
        assert len(monitor) == 1

    def test_server_feeds_batch_widths(self):
        soc, _, replanner = drifted_replanner()
        engine = SoCGemmEngine(soc, weights=np.ones((4, 6)))

        async def drive():
            server = InferenceServer([Replica("r0", engine)], replanner=replanner)
            async with server:
                await asyncio.gather(
                    *(server.submit(np.ones(6)) for _ in range(5))
                )

        run_async(drive())
        assert replanner.expected_width() is not None
        assert sum(replanner._widths) == 5  # every request counted once

    def test_server_without_replanner_adds_no_observer(self):
        soc = make_soc(1)
        engine = SoCGemmEngine(soc, weights=np.ones((4, 6)))
        replica = Replica("r0", engine)
        InferenceServer([replica])
        assert len(replica._batch_observers) == 1  # telemetry only


# --------------------------------------------------------------------- #
# cost-fn read-through (staleness regression)
# --------------------------------------------------------------------- #
class _StubEngine:
    def latency_hint_s(self, n):
        return 0.5


class _StubReplica:
    def __init__(self, name):
        self.name = name
        self.engine = _StubEngine()


class TestCostFnReadThrough:
    def test_mapping_form_still_supported(self):
        from repro.compiler import ReplicaProfile

        profiles = {"r0": ReplicaProfile(name="r0", service_s=1.5, macs=16)}
        cost = replica_cost_fn(profiles)
        assert cost(_StubReplica("r0")) == 1.5
        assert cost(_StubReplica("r1")) == 0.5  # hint fallback

    def test_provider_form_sees_refreshed_profiles(self):
        from repro.compiler import ReplicaProfile

        soc, _, replanner = drifted_replanner()
        replanner.ingest_profiles(
            {"r0": ReplicaProfile(name="r0", service_s=1.0, macs=16)}
        )
        cost = replanner.cost_fn()
        replica = _StubReplica("r0")
        assert cost(replica) == 1.0
        # a re-profile lands without rebuilding the scheduler's closure
        replanner.ingest_profiles(
            {"r0": ReplicaProfile(name="r0", service_s=5.0, macs=16)}
        )
        assert cost(replica) == 5.0

    def test_snapshot_closure_is_the_bug_this_guards(self):
        from repro.compiler import ReplicaProfile

        snapshot = {"r0": ReplicaProfile(name="r0", service_s=1.0, macs=16)}
        cost = replica_cost_fn(dict(snapshot))  # a copy: the old stale shape
        snapshot["r0"] = ReplicaProfile(name="r0", service_s=5.0, macs=16)
        assert cost(_StubReplica("r0")) == 1.0  # frozen — why providers exist

    def test_scheduler_cost_fn_swap(self):
        from repro.serving.scheduler import ReplicaScheduler
        from repro.serving import SoCGemmEngine

        soc = make_soc(1)
        replica = Replica("r0", SoCGemmEngine(soc, weights=np.ones((2, 2))))
        scheduler = ReplicaScheduler([replica], policy="cost-based")
        scheduler.update_cost_fn(lambda r: 2.0)
        assert scheduler.cost_fn(replica) == 2.0
