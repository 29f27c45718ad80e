"""Multi-replica scheduling: routing, admission control, backpressure.

A :class:`Replica` is one independently-queued serving unit — an engine
(possibly a different backend per replica), its bounded request queue and
its micro-batcher.  The :class:`ReplicaScheduler` routes each admitted
request to a replica under one of three policies:

* ``round-robin`` — strict rotation, oblivious to load.
* ``least-loaded`` — fewest queued + in-flight requests wins.
* ``latency-aware`` — minimise ``(load + 1) * ewma_latency`` so a slow
  analog replica sheds traffic to faster digital ones.
* ``cost-based`` — minimise ``(load + 1) * cost_fn(replica)`` where
  ``cost_fn`` is a calibrated per-request service-time model (e.g. the
  compiler's :func:`repro.compiler.costmodel.replica_cost_fn`, fitted
  from measured engine latencies and ``SoCGemmEngine.offload_cycles``).
  Unlike ``latency-aware`` it needs no warm-up traffic: heterogeneous
  pools route correctly from the very first request.

Admission control is a bounded queue per replica: when the preferred
replica is full, the scheduler fails over to the least-loaded alternative
with space; when every queue is full it raises the typed
:class:`~repro.serving.errors.BackpressureError` instead of growing an
unbounded backlog.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Sequence

from repro.serving.batching import SHUTDOWN, InferenceRequest, MicroBatcher
from repro.serving.engine import InferenceEngine
from repro.serving.errors import BackpressureError, ServerClosedError

POLICIES = ("round-robin", "least-loaded", "latency-aware", "cost-based")

#: EWMA smoothing factor for per-replica latency estimates.
LATENCY_EWMA_ALPHA = 0.2


class Replica:
    """One serving replica: engine + bounded queue + micro-batcher.

    Attributes:
        name: replica label (unique within a scheduler).
        engine: the execution engine.
        max_queue_depth: admission bound of the request queue.
        inflight: requests dispatched to the engine but not yet resolved.
        ewma_latency_s: smoothed observed request latency (queue + service),
            ``None`` until the first completion.
    """

    def __init__(
        self,
        name: str,
        engine: InferenceEngine,
        max_batch: int = 32,
        max_wait_s: float = 0.0,
        max_queue_depth: int = 64,
        tracer=None,
        metrics=None,
    ):
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.name = str(name)
        self.engine = engine
        self.max_queue_depth = int(max_queue_depth)
        self.queue: asyncio.Queue = asyncio.Queue()
        self.inflight = 0
        self.ewma_latency_s: Optional[float] = None
        self.batcher = MicroBatcher(
            engine,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
            on_result=self._on_result,
            on_pull=self._on_pull,
            on_batch=self._on_batch,
            tracer=tracer,
            metrics=metrics,
        )
        self._task: Optional[asyncio.Task] = None
        self._observers: List[Callable[[str, InferenceRequest, float, int, str], None]] = []
        self._batch_observers: List[Callable[[str, int], None]] = []

    # ------------------------------------------------------------------ #
    # load accounting
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Requests waiting in the queue, including one held over by the batcher."""
        return self.queue.qsize() + (self.batcher.held is not None)

    @property
    def load(self) -> int:
        """Queued plus in-flight requests (including open batching windows)."""
        return self.depth + self.inflight

    def _on_pull(self, n_taken: int) -> None:
        # counted at dequeue time so a request held in an open max_wait_s
        # window is never invisible to drain()/routing load
        self.inflight += n_taken

    def _on_batch(self, n_dispatched: int) -> None:
        for observer in self._batch_observers:
            observer(self.name, n_dispatched)

    def _on_result(
        self, request: InferenceRequest, latency_s: float, batch_size: int, outcome: str
    ) -> None:
        self.inflight = max(0, self.inflight - 1)
        if outcome == "ok":
            previous = self.ewma_latency_s
            self.ewma_latency_s = (
                latency_s
                if previous is None
                else LATENCY_EWMA_ALPHA * latency_s + (1 - LATENCY_EWMA_ALPHA) * previous
            )
        for observer in self._observers:
            observer(self.name, request, latency_s, batch_size, outcome)

    def expected_columns(self) -> int:
        """Batch width compiled plans targeting this replica should assume.

        Delegates to the micro-batcher's observed/configured fusing width
        — the compiler resolves replicas through
        :func:`repro.compiler.partition.expected_batch_width`.
        """
        return self.batcher.expected_columns()

    def add_observer(
        self, observer: Callable[[str, InferenceRequest, float, int, str], None]
    ) -> None:
        """Subscribe to per-request outcomes (telemetry hook)."""
        self._observers.append(observer)

    def add_batch_observer(self, observer: Callable[[str, int], None]) -> None:
        """Subscribe to engine-call widths ``(replica_name, n)``, one per call."""
        self._batch_observers.append(observer)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Launch the batcher task on the running event loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self.batcher.serve(self.queue), name=f"batcher-{self.name}"
            )

    async def stop(self) -> None:
        """Send the shutdown sentinel and wait for the batcher to exit.

        Everything already queued ahead of the sentinel is served; an open
        straggler window is cut short by the sentinel's arrival.
        """
        if self._task is None:
            return
        self.queue.put_nowait(SHUTDOWN)
        await self._task
        self._task = None

    async def abort(self) -> None:
        """Cancel the batcher immediately and fail everything still queued.

        A request the batcher held over counts as queued and fails too.
        When the batcher task had already ended with an exception, every
        queued request is failed first and the exception is re-raised.
        """
        task, self._task = self._task, None
        try:
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        finally:
            pending = [] if self.batcher.held is None else [self.batcher.held]
            self.batcher.held = None
            while not self.queue.empty():
                pending.append(self.queue.get_nowait())
            for item in pending:
                if item is not SHUTDOWN and not item.future.done():
                    item.future.set_exception(
                        ServerClosedError("server aborted before serving this request")
                    )

    @property
    def running(self) -> bool:
        """Whether the replica's batcher task is live."""
        return self._task is not None and not self._task.done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Replica {self.name!r} engine={self.engine.name!r} "
            f"load={self.load}/{self.max_queue_depth}>"
        )


class ReplicaScheduler:
    """Routes admitted requests across a pool of replicas.

    Attributes:
        replicas: the managed pool (mixed engine backends allowed).
        policy: one of :data:`POLICIES`.
        cost_fn: per-request service-time model used by the ``cost-based``
            policy — maps a replica to predicted seconds per request.
            Defaults to each engine's own ``latency_hint_s(1)`` when not
            supplied; inject a calibrated model (see
            :func:`repro.compiler.costmodel.replica_cost_fn`) for
            heterogeneous pools of digital engines whose hints are all 0.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        policy: str = "least-loaded",
        cost_fn: Optional[Callable[[Replica], float]] = None,
    ):
        if not replicas:
            raise ValueError("scheduler needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"replica names must be unique, got {names}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r} (choose from {POLICIES})")
        self.replicas = list(replicas)
        self.policy = policy
        self.cost_fn = cost_fn
        self._by_name = {replica.name: replica for replica in self.replicas}
        self._rr_index = 0

    def update_cost_fn(self, cost_fn: Optional[Callable[[Replica], float]]) -> None:
        """Swap the ``cost-based`` scorer without rebuilding the scheduler.

        ``cost_fn`` is read at every :meth:`select`, so the swap takes
        effect on the next routed request.  Prefer a read-through scorer
        (:func:`repro.compiler.costmodel.replica_cost_fn` over a profile
        *provider*, e.g. ``AdaptiveReplanner.cost_fn()``) — then profile
        refreshes need no swap at all; this hook covers callers who built
        the scheduler around a snapshot closure.
        """
        self.cost_fn = cost_fn

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def select(self) -> Replica:
        """Pick the preferred replica under the configured policy."""
        if self.policy == "round-robin":
            replica = self.replicas[self._rr_index % len(self.replicas)]
            self._rr_index += 1
            return replica
        if self.policy == "least-loaded":
            return min(self.replicas, key=lambda replica: replica.load)
        if self.policy == "cost-based":
            # expected time-to-serve from the *calibrated* cost model:
            # (load + 1) requests ahead of (and including) this one, each
            # costing the predicted per-request service time.  Ties fall
            # back to least-loaded so an unprofiled all-digital pool (all
            # costs 0) never degenerates to always-pick-first.
            def cost_score(replica: Replica) -> tuple:
                cost = self._replica_cost(replica)
                return ((replica.load + 1) * cost, replica.load)

            return min(self.replicas, key=cost_score)
        # latency-aware: expected time-to-serve = (load + 1) * smoothed
        # latency; replicas with no observation yet look maximally cheap so
        # cold replicas get probed.  Ties (e.g. all-digital pools whose
        # latency estimates are 0) fall back to least-loaded so the policy
        # never degenerates to always-pick-first.
        def score(replica: Replica) -> tuple:
            latency = replica.ewma_latency_s
            if latency is None:
                latency = replica.engine.latency_hint_s(1)
            return ((replica.load + 1) * latency, replica.load)

        return min(self.replicas, key=score)

    def _replica_cost(self, replica: Replica) -> float:
        """Predicted per-request service seconds under the cost model."""
        if self.cost_fn is not None:
            return max(float(self.cost_fn(replica)), 0.0)
        return max(replica.engine.latency_hint_s(1), 0.0)

    def replica_named(self, name: str) -> Replica:
        """Look up a replica by name (raises ``KeyError`` for unknown names)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown replica {name!r} (pool: {sorted(self._by_name)})"
            ) from None

    def submit(
        self, request: InferenceRequest, replica_name: Optional[str] = None
    ) -> Replica:
        """Admit a request: enqueue on the routed replica or raise.

        Failover order when the preferred replica's queue is full: remaining
        replicas by ascending load.  Raises
        :class:`~repro.serving.errors.BackpressureError` when every bounded
        queue is at its limit.

        ``replica_name`` pins admission to one replica (no routing, no
        failover) — compiled placement plans use this to execute each op on
        the replica the cost model chose.
        """
        if replica_name is not None:
            pinned = self.replica_named(replica_name)
            if pinned.depth >= pinned.max_queue_depth:
                raise BackpressureError(
                    replica=pinned.name, depth=pinned.depth,
                    limit=pinned.max_queue_depth,
                )
            pinned.queue.put_nowait(request)
            return pinned
        preferred = self.select()
        if len(self.replicas) == 1:
            candidates = self.replicas
        else:
            candidates = [preferred] + sorted(
                (replica for replica in self.replicas if replica is not preferred),
                key=lambda replica: replica.load,
            )
        for replica in candidates:
            if replica.depth < replica.max_queue_depth:
                replica.queue.put_nowait(request)
                return replica
        last = candidates[-1]
        raise BackpressureError(
            replica=last.name, depth=last.depth, limit=last.max_queue_depth
        )

    def total_load(self) -> int:
        """Queued + in-flight requests across the pool."""
        return sum(replica.load for replica in self.replicas)
