"""Admission and load accounting of the in-process serving pool.

The routing oracle replays seeded bursty traffic against a 3-replica pool
of mixed engines under every scheduler policy.  The queues are small, so
admissions fail over and hit backpressure.  The loop runs on a manual clock
that only the engines move (a fixed service time per column), so observed
latencies, and with them ``latency-aware`` routing, are deterministic.  The
literals were captured from the pool before its load became counters: the
routed replica and outcome of every request, every rejection with its
:class:`~repro.serving.errors.BackpressureError` fields, and the telemetry's
queue-depth mean and maximum.

The state machine drives one 2-replica server through submissions,
cancellations, expired deadlines, weights that cannot be hashed, raising
observers, raising and wrongly shaped engine replies, aborts and
shutdowns, and checks after every step that the load counters equal what
the queues, held-over requests and open pulls hold.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serving import (
    BackpressureError,
    FabricGateway,
    GemmEngine,
    InferenceServer,
    Replica,
    ServerClosedError,
    WorkerCrashedError,
    make_worker_specs,
)
from repro.serving.batching import SHUTDOWN
from repro.serving.errors import ServingError

WEIGHTS = np.arange(9, dtype=float).reshape(3, 3) / 10.0

#: (name, backend, backend options, service seconds per column, queue bound)
POOL = (
    ("digital", "ideal-digital", {}, 2e-5, 3),
    ("quantized", "quantized-digital", {}, 5e-5, 2),
    ("analog", "analog-photonic", {"add_noise": False, "rng": 0}, 1.2e-4, 4),
)

#: cost-based scorer: seconds per request by replica name
COSTS = {"digital": 3e-5, "quantized": 1e-5, "analog": 8e-5}

OUTCOME_CODES = {"ok": "o", "expired": "e", "cancelled": "c", "error": "f"}


class ClockedEngine(GemmEngine):
    """A ``GemmEngine`` whose calls move a manual clock by their service time."""

    def __init__(self, clock, service_s, **kwargs):
        super().__init__(**kwargs)
        self.clock = clock
        self.service_s = service_s

    def run_batch(self, weights, inputs, key=None):
        self.clock[0] += self.service_s * inputs.shape[1]
        return super().run_batch(weights, inputs, key=key)


def make_pool(clock, max_batch=2):
    """The three mixed-engine replicas of the oracle."""
    return [
        Replica(
            name,
            ClockedEngine(clock, service_s, backend=backend, weights=WEIGHTS, **options),
            max_batch=max_batch,
            max_queue_depth=max_queue_depth,
        )
        for name, backend, options, service_s, max_queue_depth in POOL
    ]


async def replay(policy, seed, rounds=40):
    """Seeded bursts against one server; returns what the oracle pins.

    Returns ``(routes, rejected, mean_depth, max_depth)``: ``routes`` has
    two characters per request, the routed replica's index and the
    outcome's code, or ``"x-"`` for a rejection; ``rejected`` lists
    ``(request, replica, depth, limit)`` of every ``BackpressureError``.
    """
    clock = [0.0]
    loop = asyncio.get_running_loop()
    loop.time = lambda: clock[0]
    rng = np.random.default_rng(seed)
    replicas = make_pool(clock)
    names = [replica.name for replica in replicas]
    cost_fn = (lambda replica: COSTS[replica.name]) if policy == "cost-based" else None
    server = InferenceServer(replicas, policy=policy, cost_fn=cost_fn)
    routed = {}

    def observe(name, request, _latency_s, _batch_size, outcome):
        routed[request.request_id] = f"{names.index(name)}{OUTCOME_CODES[outcome]}"

    for replica in replicas:
        replica.add_observer(observe)
    await server.start()
    rejected, futures = [], []
    index = 0
    for _ in range(rounds):
        for _ in range(int(rng.integers(1, 9))):
            deadline = 0.0 if rng.random() < 0.1 else None
            pinned = names[int(rng.integers(0, 3))] if rng.random() < 0.1 else None
            inputs = rng.normal(size=3)
            try:
                futures.append(
                    server.submit_nowait(inputs, deadline_s=deadline, replica=pinned)
                )
            except BackpressureError as exc:
                rejected.append((index, exc.replica, exc.depth, exc.limit))
            index += 1
        clock[0] += 1e-4
        for _ in range(int(rng.integers(0, 3))):
            await asyncio.sleep(0)
    await server.shutdown(drain=True)
    await asyncio.gather(*futures, return_exceptions=True)
    routes = "".join(routed.get(request, "x-") for request in range(index))
    telemetry = server.telemetry
    return routes, rejected, telemetry.mean_queue_depth(), telemetry.max_queue_depth()


#: policy -> (routes, rejected, mean depth, max depth), seed 7
ORACLE = {
    "round-robin": (
        (
            "0o1e2o0o1o2ox-x-0o1o2o0o1o2o0o1o2o0e2o1o2o0o1o2o0o1o2o0o1o2o1o0o"
            "1o2o0o0ex-2o2o1o0o1ox-2o0e0o2o0o1o2o0o1o2o0o1o2o0o1o2o0o2o2e0o1e"
            "2o2o0o1o2o0o1o2e0o1o2o0o1o2o0o1e2o0o2o1o2o0o1o2o0e1o2o0o0o2o0o1o"
            "2e0o1o2o0o1o2o0o1o2o2o0o1o2o2o0o1o2o0o1o2o0o0o1o2ox-2ox-x-x-x-0o"
            "1o2o0o1o2o0o1o2o0e0e2o0o1o2o0o1o2o0o1o2o0e1o2o0o1o2o0o2ox-0e1o2o"
            "0o1o2e1ex-0e0o2o0o1o2o2o0o1o2o"
        ),
        [
            (6, "quantized", 2, 2), (7, "quantized", 2, 2), (36, "digital", 3, 3),
            (42, "quantized", 2, 2), (121, "digital", 3, 3), (123, "analog", 4, 4),
            (124, "analog", 4, 4), (125, "digital", 3, 3), (126, "analog", 4, 4),
            (156, "digital", 3, 3), (164, "quantized", 2, 2),
        ],
        3.6341463414634148,
        9,
    ),
    "least-loaded": (
        (
            "0o1e2o0o1o2ox-x-0o1o0o1o2o0o1o2o0o1e2o0o0o1o2o0o1o2o0o1o2o0o1o2o"
            "0o1o2o0ex-2o0o1o2o0o1o2o0e2o0o1o2o0o1o0o0o0o1o2o0o1o2o0o2o0e1o2e"
            "2o0o1o0o0o1o2o0e1o2o0o2o0o1o2o0e1o0o2o1o0o1o0o1o2e0o1o2o0o2o0o1o"
            "2e0o1o0o1o2o0o1o2o2o0o1o0o2o1o0o1o0o1o2o0o1o0o2o2ox-2ox-x-x-x-0o"
            "1o2o0o0o1o2o0o1o2e0e0o1o2o0o0o1o2o0o1o0o1e2o0o1o2o0o2o2ox-0e1o2o"
            "0o0o1e1ex-2e0o2o0o0o1o2o0o1o2o"
        ),
        [
            (6, "quantized", 2, 2), (7, "quantized", 2, 2), (36, "digital", 3, 3),
            (121, "digital", 3, 3), (123, "analog", 4, 4), (124, "analog", 4, 4),
            (125, "analog", 4, 4), (126, "analog", 4, 4), (156, "analog", 4, 4),
            (164, "quantized", 2, 2),
        ],
        3.6606060606060606,
        9,
    ),
    "latency-aware": (
        (
            "0o1e2o0o1o2ox-x-0o1o0o1o0o1o0o2o0o1e2o0o0o1o0o0o1o0o2o1o0o0o1o0o"
            "2o0o1ox-x-2o0o1o0o2o1o0o2e2o0o1o0o2o0o0o0o0o1o0o2o0o1o2o2o0e1o0e"
            "2o0o1o2o0o1o0o0e2o1o2o2o0o1o0o2e0o0o2o1o0o0o0o1o0e2o0o1o2o2o0o1o"
            "0e0o1o0o1o0o0o1o2o2o0o1o0o2o1o0o1o0o1o0o2o0ox-1o2ox-2o2ox-x-x-0o"
            "1o0o2o0o1o0o2o0o1e2e0o1o0o2o0o1o0o2o0o0o1e0o2o0o1o2o2o2ox-0e1o0o"
            "1o0o1e1ex-0e0o2o2o0o1o2o0o1o0o"
        ),
        [
            (6, "quantized", 2, 2), (7, "quantized", 2, 2), (35, "digital", 3, 3),
            (36, "digital", 3, 3), (118, "digital", 3, 3), (121, "digital", 3, 3),
            (124, "analog", 4, 4), (125, "analog", 4, 4), (126, "analog", 4, 4),
            (156, "analog", 4, 4), (164, "quantized", 2, 2),
        ],
        3.6341463414634148,
        9,
    ),
    "cost-based": (
        (
            "1o1e0o2o0o2ox-x-1o1o1o1o0o2o0o2o1o1e2o0o1o1o0o1o1o0o2o0o2o1o1o0o"
            "2o0o2o0ex-2o1o1o0o2ox-0o2e0o1o1o0o2o0o1o1o1o1o0o2o0o2o0o2o1e1o0e"
            "2o0o2o0o1o1o0o2e0o2o0o2o1o1o0o2e0o1o2o1o0o0o1o1o0e2o0o2o0o2o1o1o"
            "0e1o1o1o1o0o2o0o2o2o1o1o1o2o1o0o0o1o1o0o2o0o0o2o2ox-2ox-x-x-x-1o"
            "1o0o2o1o1o0o2o0o2e0e1o1o0o2o1o1o0o2o0o1o1e0o2o0o2o0o2o2ox-1e1o0o"
            "2o1o1ex-x-0e2o0o2o1o1o2o0o0o2o"
        ),
        [
            (6, "quantized", 2, 2), (7, "quantized", 2, 2), (36, "digital", 3, 3),
            (42, "quantized", 2, 2), (121, "digital", 3, 3), (123, "analog", 4, 4),
            (124, "analog", 4, 4), (125, "analog", 4, 4), (126, "analog", 4, 4),
            (156, "analog", 4, 4), (163, "quantized", 2, 2), (164, "quantized", 2, 2),
        ],
        3.6134969325153374,
        9,
    ),
}


class TestRoutingOracle:
    @pytest.mark.parametrize("policy", sorted(ORACLE))
    def test_routing_backpressure_and_depth_samples_are_pinned(self, policy):
        assert asyncio.run(replay(policy, seed=7)) == ORACLE[policy]


# --------------------------------------------------------------------- #
# abort and drain
# --------------------------------------------------------------------- #
def crash(groups):
    raise RuntimeError("batcher fault")


class TestAbortAndDrain:
    def test_abort_fails_a_crashed_pull_and_zeroes_the_counters(self):
        async def scenario():
            engines = [GemmEngine(backend="ideal-digital", weights=WEIGHTS) for _ in range(2)]
            replicas = [
                Replica("r0", engines[0], max_batch=2),
                Replica("r1", engines[1], max_batch=8, max_wait_s=30.0),
            ]
            replicas[0].batcher._execute = crash
            server = InferenceServer(replicas, policy="round-robin")
            await server.start()
            futures = [server.submit_nowait(np.ones(3)) for _ in range(8)]
            futures[0].cancel()  # resolved, but the crash leaves it unreported
            await asyncio.wait([replicas[0]._task], timeout=10.0)
            # r0 pulled two requests and crashed; r1 holds its four in a window
            before = [(replica.load, replica.inflight) for replica in replicas]
            with pytest.raises(RuntimeError, match="batcher fault"):
                await server.shutdown(drain=False)
            after = [(replica.load, replica.inflight) for replica in replicas]
            return futures, before, after, server.scheduler.total_load()

        futures, before, after, total = asyncio.run(scenario())
        assert before == [(4, 2), (4, 4)]
        assert after == [(0, 0), (0, 0)] and total == 0
        assert futures[0].cancelled()
        for future in futures[1:]:
            assert isinstance(future.exception(), ServerClosedError)

    def test_drain_returns_for_a_backlog_with_open_batching_windows(self):
        async def scenario():
            replica = Replica(
                "r0", GemmEngine(backend="ideal-digital", weights=WEIGHTS),
                max_batch=8, max_wait_s=0.05,
            )
            server = InferenceServer([replica])
            await server.start()
            futures = [server.submit_nowait(np.full(3, float(i))) for i in range(20)]
            await asyncio.sleep(0)  # the first pulls are out; the last one waits
            load = server.scheduler.total_load()
            await asyncio.wait_for(server.drain(), timeout=10.0)
            done = all(future.done() for future in futures)
            await server.shutdown()
            return load, done, server.scheduler.total_load()

        load, done, total = asyncio.run(scenario())
        assert load > 0 and done and total == 0


class TestGatewayCounters:
    def test_handle_counters_follow_dispatch_crash_and_drain(self):
        async def scenario():
            specs = make_worker_specs(
                2,
                "repro.serving.fabric.engines:make_compute_heavy_engine",
                engine_kwargs={"weights": np.ones((3, 4)), "service_s_per_column": 0.05},
                max_batch=1,
            )
            gateway = FabricGateway(specs, max_inflight=1)
            await gateway.start()
            try:
                doomed = [gateway.submit_nowait(np.ones(4), replica="w0") for _ in range(3)]
                served = [gateway.submit_nowait(np.ones(4), replica="w1") for _ in range(2)]
                before = [(handle.load, handle.depth, handle.inflight) for handle in gateway.handles]
                total = gateway.scheduler.total_load()
                gateway.kill_worker("w0")
                crashed = await asyncio.gather(*doomed, return_exceptions=True)
                await asyncio.wait_for(gateway.drain(), timeout=10.0)
                outputs = [future.result() for future in served]
                after = [handle.load for handle in gateway.handles]
                return before, total, crashed, outputs, after, gateway.scheduler.total_load()
            finally:
                await gateway.shutdown(drain=False)

        before, total, crashed, outputs, after, drained = asyncio.run(scenario())
        assert before == [(3, 2, 1), (2, 1, 1)] and total == 5
        assert all(isinstance(error, WorkerCrashedError) for error in crashed)
        assert all(np.array_equal(output, np.full(3, 4.0)) for output in outputs)
        assert after == [0, 0] and drained == 0


# --------------------------------------------------------------------- #
# the counters against the queues, step by step
# --------------------------------------------------------------------- #
class FlakyEngine(GemmEngine):
    """An ideal-digital engine that raises while ``failing`` is set.

    While ``ravel`` is set it answers with its result flattened, a reply
    of the wrong shape.
    """

    failing = False
    ravel = False

    def run_batch(self, weights, inputs, key=None):
        if self.failing:
            raise RuntimeError("engine fault")
        outputs = super().run_batch(weights, inputs, key=key)
        return outputs.ravel() if self.ravel else outputs


MODELS = (None, WEIGHTS + 1.0, WEIGHTS - 1.0)

#: weights ``weight_hash`` cannot hash (``np.ascontiguousarray`` raises)
RAGGED = [[1.0, 2.0], [3.0]]

#: loop turns after each step, before the counters are checked
SETTLE_TURNS = 5


class LoadAccountingMachine(RuleBasedStateMachine):
    """One server, two replicas (one with an open batching window)."""

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.engines = [FlakyEngine(backend="ideal-digital", weights=WEIGHTS) for _ in range(2)]
        self.replicas = [
            Replica("r0", self.engines[0], max_batch=2, max_queue_depth=3),
            Replica("r1", self.engines[1], max_batch=2, max_wait_s=0.002, max_queue_depth=3),
        ]
        self.server = InferenceServer(self.replicas)
        self.raising = False
        self.seen = 0
        self.outcomes = {}
        for replica in self.replicas:
            replica.add_observer(self._raising_observer)
            replica.add_observer(self._recording_observer)
        self.futures = []
        self.run(self.server.start())

    def _raising_observer(self, *_args):
        if self.raising:
            raise RuntimeError("observer fault")

    def _recording_observer(self, _name, request, _latency_s, _batch_size, outcome):
        self.seen += 1
        self.outcomes[request.future] = outcome

    def run(self, coroutine):
        return self.loop.run_until_complete(asyncio.wait_for(coroutine, timeout=10.0))

    def step(self, action):
        """Run ``action()`` on the loop, then let the loop settle.

        Settled, no request is between the queue and a pull: a straggler
        window's ``wait_for(queue.get())`` hands its item over within three
        turns of the loop.
        """

        async def stepped():
            action()
            for _ in range(SETTLE_TURNS):
                await asyncio.sleep(0)

        self.run(stepped())

    def submit(self, model, count=1, deadline_s=None, weights=None, replica=None):
        admitted = []
        for _ in range(count):
            try:
                future = self.server.submit_nowait(
                    np.ones(3),
                    weights=MODELS[model] if weights is None else weights,
                    deadline_s=deadline_s,
                    replica=replica,
                )
            except BackpressureError:
                continue
            admitted.append(future)
        self.futures.extend(admitted)
        return admitted

    def cancel_one(self, index):
        pending = [future for future in self.futures if not future.done()]
        if pending:
            pending[index % len(pending)].cancel()

    @rule(model=st.integers(0, 2), count=st.integers(1, 8))
    def submit_requests(self, model, count):
        self.step(lambda: self.submit(model, count))

    @rule(model=st.integers(0, 2))
    def submit_expired(self, model):
        self.step(lambda: self.submit(model, deadline_s=-1.0))

    @rule(model=st.integers(0, 2))
    def submit_unhashable(self, model):
        async def served():
            good = self.submit(model)
            bad = self.submit(model, weights=RAGGED)
            good += self.submit(model)
            return good, bad, await asyncio.gather(*good, *bad, return_exceptions=True)

        good, bad, results = self.run(served())
        faulty = any(engine.failing or engine.ravel for engine in self.engines)
        for future, result in zip(good, results):
            # the hash error stays with its own request
            assert not isinstance(result, ValueError)
            if not faulty:
                assert isinstance(result, np.ndarray)
                assert self.outcomes[future] == "ok"
        for future, result in zip(bad, results[len(good):]):
            assert isinstance(result, ValueError)
            assert self.outcomes[future] == "error"

    @rule(replica=st.integers(0, 1), on=st.booleans())
    def ravel_engine(self, replica, on):
        engine = self.engines[replica]
        engine.ravel = on
        if not on:
            self.step(lambda: None)
            return
        name = self.replicas[replica].name

        async def served():
            admitted = self.submit(0, count=2, replica=name)
            return admitted, await asyncio.gather(*admitted, return_exceptions=True)

        admitted, results = self.run(served())
        for future, result in zip(admitted, results):
            expected = RuntimeError if engine.failing else ServingError
            assert isinstance(result, expected)
            assert self.outcomes[future] == "error"
        # the batcher keeps serving after a wrongly shaped reply
        assert self.replicas[replica].running

    @rule(index=st.integers(0, 63))
    def cancel(self, index):
        self.step(lambda: self.cancel_one(index))

    @rule(on=st.booleans())
    def raising_observer(self, on):
        self.raising = on
        self.step(lambda: None)

    @rule(replica=st.integers(0, 1), on=st.booleans())
    def raising_engine(self, replica, on):
        self.engines[replica].failing = on
        self.step(lambda: None)

    @rule()
    def abort(self):
        self.run(self.server.shutdown(drain=False))
        self.run(self.server.start())

    @rule()
    def shutdown(self):
        self.run(self.server.shutdown(drain=True))
        self.run(self.server.start())

    @rule()
    def drain(self):
        self.run(self.server.drain())
        assert self.server.scheduler.total_load() == 0

    @invariant()
    def counters_match_the_queues(self):
        total = 0
        for replica in self.replicas:
            batcher = replica.batcher
            queued = [item for item in replica.queue._queue if item is not SHUTDOWN]
            held = batcher.held is not None
            pulled = sum(len(group) for group in (batcher.pull or {}).values())
            assert replica.depth == len(replica.queue._queue) + held
            assert replica.inflight == pulled
            assert replica.load == len(queued) + held + pulled
            total += replica.load
        assert self.server.scheduler.total_load() == total

    @invariant()
    def every_observer_sees_every_outcome(self):
        replicas = self.server.telemetry.summary()["replicas"]
        reported = sum(
            stats["completed"] + stats["expired"] + stats["cancelled"] + stats["failed"]
            for stats in replicas.values()
        )
        assert self.seen == reported

    def teardown(self):
        try:
            self.run(self.server.shutdown(drain=True))
            assert all(future.done() for future in self.futures)
            for future in self.futures:  # retrieved, so none is logged as unhandled
                if not future.cancelled():
                    future.exception()
            assert self.server.scheduler.total_load() == 0
            assert all(replica.load == replica.inflight == 0 for replica in self.replicas)
        finally:
            self.loop.close()


LoadAccountingMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestLoadAccounting = LoadAccountingMachine.TestCase
