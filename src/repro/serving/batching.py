"""Dynamic micro-batching: coalesce queued requests into per-model engine calls.

The batcher is the serving layer's throughput lever: the photonic datapath
(and the vectorized NumPy hot paths underneath it) amortise per-call cost
over the batch dimension, so executing 32 queued requests of one model as
one ``apply_batch`` / ``backend.matmul`` costs barely more than executing
one.

A pull groups requests by model key, in arrival order within each group,
and runs each group as one engine call.  ``max_batch`` bounds the columns
of each call, not the pull: with k models interleaved one pull may fuse up
to ``k * max_batch`` requests.  The policy is the classic dynamic one: take
the first waiting request, then drain whatever is queued until the queue is
empty, the shutdown sentinel arrives, every group holds ``max_batch``, or
the next request's group already does.  That request is held over: it still
counts as queued (:attr:`MicroBatcher.held`) and opens the next pull.  One
model's traffic is never held over: its pulls stop at ``max_batch`` without
reading further, exactly as when the bound applied to the whole pull.  With
``max_wait_s > 0`` a pull whose groups are all below ``max_batch`` then
waits for stragglers until the window elapses or the first group fills.
Even with ``max_wait_s = 0`` a saturated queue serves in full calls.

Model keys are computed here, when a request joins a pull, not at
admission: a request without weights gets
:data:`~repro.serving.engine.DEFAULT_MODEL_KEY`, any other the
:func:`~repro.serving.engine.weight_hash` of its weights.  The hash is
memoized by ``id(weights)`` for one pull only (ids are unique only while
the pull's requests hold their arrays), so clients resending one array
cost one hash per pull, while equal content in distinct arrays still
hashes equal and fuses.  A held-over request keeps the key it has.  A
request whose weights cannot be hashed fails on its own.

Cancelled futures are skipped; requests whose deadline has passed are
completed with :class:`~repro.serving.errors.DeadlineExceededError` at
dispatch time instead of wasting engine time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.serving.engine import DEFAULT_MODEL_KEY, InferenceEngine, weight_hash
from repro.serving.errors import DeadlineExceededError, ServerClosedError
from repro.serving.timebase import loop_time

#: queue sentinel that tells a batcher to exit its serve loop.
SHUTDOWN = None


@dataclass
class InferenceRequest:
    """One in-flight request: a single input column against one model.

    Attributes:
        inputs: the ``(n_in,)`` input vector.
        future: resolved with the ``(n_out,)`` output column.
        submitted_at: loop ``time()`` at admission.
        weights: explicit model weights, or ``None`` for the replica
            engine's bound default model.
        model_key: grouping key (requests sharing it may be fused into one
            engine call); ``None`` until the batcher keys the request when
            it joins a pull.
        deadline_at: absolute loop-time deadline, or ``None``.
        request_id: monotonically increasing id assigned by the server.
        trace: the request span (:class:`~repro.obs.trace.Span`) or wire
            context, ``None`` when tracing is off.
    """

    inputs: np.ndarray
    future: asyncio.Future
    submitted_at: float
    weights: Optional[np.ndarray] = None
    model_key: Optional[str] = None
    deadline_at: Optional[float] = None
    request_id: int = 0
    trace: Optional[object] = None


@dataclass
class BatcherStats:
    """Counters of one micro-batcher."""

    batches: int = 0
    requests: int = 0
    expired: int = 0
    cancelled: int = 0
    failed: int = 0
    observer_errors: int = 0

    @property
    def mean_batch(self) -> float:
        """Mean requests coalesced per engine call."""
        return self.requests / self.batches if self.batches else 0.0


class MicroBatcher:
    """Coalesces an :class:`asyncio.Queue` of requests into engine calls.

    Attributes:
        engine: the :class:`~repro.serving.engine.InferenceEngine` executing
            fused batches.
        max_batch: upper bound on requests fused into one per-model engine
            call (1 disables batching — the serial baseline).  A pull stops
            once every model group holds ``max_batch``, or at the first
            request whose group already does; that request is held over to
            open the next pull.
        max_wait_s: how long a pull whose groups are all below ``max_batch``
            waits for stragglers; the window closes early when the first
            group fills.  0 serves whatever is queued immediately.
        held: the request held over from the last pull, or ``None``.  It
            is still queued: replica depth, admission and abort count it.
        on_result: optional callback ``(request, latency_s, batch_size,
            outcome)`` with outcome ``"ok" | "expired" | "cancelled" |
            "error"`` — the telemetry hook.  An exception it raises is
            counted in ``stats.observer_errors`` and serving goes on.
        on_pull: optional callback ``(1)`` fired the moment a request joins
            a pull — in-flight load accounting must include requests held
            in an open batching window.
        on_batch: optional callback ``(n_columns)`` fired once per
            successful engine call with that call's width, after expired
            and cancelled requests were dropped (batch-size telemetry).
            Its exceptions are counted like ``on_result``'s.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            pull records a ``batch`` span linking every traced request it
            coalesced, plus an ``engine`` span per model-key engine call.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry` for
            batch-size / latency instruments.

    The straggler window, latencies and deadlines use the running loop's ``time()``.
    """

    def __init__(
        self,
        engine: InferenceEngine,
        max_batch: int = 32,
        max_wait_s: float = 0.0,
        on_result: Optional[Callable[[InferenceRequest, float, int, str], None]] = None,
        on_pull: Optional[Callable[[int], None]] = None,
        on_batch: Optional[Callable[[int], None]] = None,
        tracer=None,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self.held: Optional[InferenceRequest] = None
        self.on_result = on_result
        self.on_pull = on_pull
        self.on_batch = on_batch
        self.tracer = tracer
        self.metrics = metrics
        self.stats = BatcherStats()

    def _key(self, item: InferenceRequest, keys: Dict[int, str]) -> Optional[str]:
        """The model key of ``item``; ``None`` when its weights cannot be hashed.

        ``keys`` memoizes :func:`weight_hash` by ``id(weights)`` and lives
        for one pull only.  A request whose hash raises is pulled and failed
        with that exception on its own; the pull goes on without it.
        """
        key = item.model_key
        if key is None:
            weights = item.weights
            if weights is None:
                key = DEFAULT_MODEL_KEY
            else:
                key = keys.get(id(weights))
                if key is None:
                    try:
                        key = weight_hash(weights)
                    except Exception as exc:  # noqa: BLE001 - forwarded to the caller
                        if self.on_pull is not None:
                            self.on_pull(1)
                        if not item.future.done():
                            item.future.set_exception(exc)
                        self.stats.failed += 1
                        self._notify(item, self._now(), 1, "error")
                        return None
                    keys[id(weights)] = key
            item.model_key = key
        return key

    def _take(
        self, groups: Dict[str, List[InferenceRequest]], key: str, item: InferenceRequest
    ) -> bool:
        """Add ``item`` to the group of ``key``; True when that group is now full."""
        group = groups.setdefault(key, [])
        group.append(item)
        if self.on_pull is not None:
            self.on_pull(1)
        return len(group) >= self.max_batch

    def expected_columns(self) -> int:
        """Batch width a compiled plan should be optimised for.

        The observed mean engine-call width once traffic has been served,
        else the configured ``max_batch`` bound — this is what the model
        compiler's batch-aware sharding decisions consume (see
        :func:`repro.compiler.partition.expected_batch_width`).
        """
        if self.stats.batches > 0:
            return max(1, int(round(self.stats.mean_batch)))
        return self.max_batch

    async def serve(self, queue: asyncio.Queue) -> None:
        """Serve until the :data:`SHUTDOWN` sentinel is dequeued.

        Cancellation (``Replica.abort``) fails the requests already pulled
        into the open batch with :class:`ServerClosedError` — a pulled
        request must never be left as a forever-pending future.
        """
        self._now = loop_time()
        while True:
            item, self.held = self.held, None
            if item is None:
                item = await queue.get()
                if item is SHUTDOWN:
                    return
            # one pull's hash memo: never kept across pulls (see _key)
            keys: Dict[int, str] = {}
            key = self._key(item, keys)
            if key is None:
                continue
            groups: Dict[str, List[InferenceRequest]] = {}
            self._take(groups, key, item)
            try:
                stop = self._coalesce_nowait(queue, groups, keys)
                if (
                    self.max_wait_s > 0
                    and not stop
                    and all(len(group) < self.max_batch for group in groups.values())
                ):
                    stop = await self._coalesce_wait(queue, groups, keys)
            except asyncio.CancelledError:
                self._fail_batch(groups)
                raise
            self._execute(groups)
            if stop:
                return

    def _fail_batch(self, groups: Dict[str, List[InferenceRequest]]) -> None:
        """Resolve a pulled-but-unserved batch on abort (typed error)."""
        now = self._now()
        for group in groups.values():
            for request in group:
                if not request.future.done():
                    request.future.set_exception(
                        ServerClosedError("server aborted before serving this request")
                    )
                self.stats.cancelled += 1
                self._notify(request, now, len(group), "cancelled")

    def _coalesce_nowait(
        self,
        queue: asyncio.Queue,
        groups: Dict[str, List[InferenceRequest]],
        keys: Dict[int, str],
    ) -> bool:
        """Drain already-queued requests; True when SHUTDOWN was seen.

        Stops once every group holds ``max_batch``, or at the first request
        whose group already does; that request is held over in :attr:`held`.
        """
        max_batch = self.max_batch
        full = sum(len(group) >= max_batch for group in groups.values())
        while full < len(groups):
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is SHUTDOWN:
                return True
            key = self._key(item, keys)
            if key is None:
                continue
            group = groups.get(key)
            if group is not None and len(group) >= max_batch:
                self.held = item
                return False
            if self._take(groups, key, item):
                full += 1
        return False

    async def _coalesce_wait(
        self,
        queue: asyncio.Queue,
        groups: Dict[str, List[InferenceRequest]],
        keys: Dict[int, str],
    ) -> bool:
        """Wait up to ``max_wait_s`` for stragglers; True on SHUTDOWN.

        Called only while every group is below ``max_batch``, so no
        straggler is held over: the window closes when one fills its group.
        """
        deadline = self._now() + self.max_wait_s
        while True:
            remaining = deadline - self._now()
            if remaining <= 0:
                return False
            try:
                item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except asyncio.TimeoutError:
                return False
            if item is SHUTDOWN:
                return True
            key = self._key(item, keys)
            if key is not None and self._take(groups, key, item):
                return False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, groups: Dict[str, List[InferenceRequest]]) -> None:
        """Run each model group as one engine call and resolve its futures."""
        now = self._now()
        calls: List[Tuple[str, List[InferenceRequest]]] = []
        for model_key, group in groups.items():
            live: List[InferenceRequest] = []
            for request in group:
                if request.future.cancelled():
                    self.stats.cancelled += 1
                    self._notify(request, now, len(group), "cancelled")
                    continue
                if request.deadline_at is not None and now > request.deadline_at:
                    waited = now - request.submitted_at
                    request.future.set_exception(
                        DeadlineExceededError(
                            waited_s=waited,
                            deadline_s=request.deadline_at - request.submitted_at,
                        )
                    )
                    self.stats.expired += 1
                    self._notify(request, now, len(group), "expired")
                    continue
                live.append(request)
            if live:
                calls.append((model_key, live))

        batch_span = None
        if self.tracer:
            traced = [
                request.trace
                for group in groups.values()
                for request in group
                if request.trace is not None
            ]
            if traced:
                batch_span = self.tracer.start_span(
                    "batch",
                    trace_id=traced[0].trace_id,
                    links=tuple(ctx.span_id for ctx in traced),
                    track="batcher",
                    attrs={
                        "batch_size": sum(len(group) for group in groups.values()),
                        "groups": len(calls),
                    },
                )
        for model_key, requests in calls:
            engine_span = None
            if batch_span is not None:
                engine_span = self.tracer.start_span(
                    "engine",
                    parent=batch_span,
                    track="engine",
                    attrs={"model_key": model_key, "n_requests": len(requests)},
                )
                self.tracer.push(engine_span)
            try:
                # stacking stays inside the guard: a single mismatched-length
                # request must fail its batch, not kill the batcher task
                columns = np.stack([request.inputs for request in requests], axis=1)
                outputs = self.engine.run_batch(
                    requests[0].weights, columns, key=model_key
                )
            except Exception as exc:  # noqa: BLE001 - forwarded to the callers
                done = self._now()
                for request in requests:
                    if not request.future.done():
                        request.future.set_exception(exc)
                    self.stats.failed += 1
                    self._notify(request, done, len(requests), "error")
                continue
            finally:
                if engine_span is not None:
                    self.tracer.pop()
                    self.tracer.end_span(engine_span)
            done = self._now()
            self.stats.batches += 1
            self.stats.requests += len(requests)
            outputs = np.asarray(outputs)
            for index, request in enumerate(requests):
                if not request.future.done():
                    request.future.set_result(outputs[:, index])
                self._notify(request, done, len(requests), "ok")
            if self.metrics:
                self.metrics.histogram("batcher.batch_size").observe(len(requests))
            if self.on_batch is not None:
                try:
                    self.on_batch(len(requests))
                except Exception:  # noqa: BLE001 - an observer must not stop serving
                    self.stats.observer_errors += 1
        if batch_span is not None:
            self.tracer.end_span(batch_span)

    def _notify(
        self, request: InferenceRequest, now: float, batch_size: int, outcome: str
    ) -> None:
        if self.metrics:
            self.metrics.counter(f"batcher.requests.{outcome}").inc()
            if outcome == "ok":
                self.metrics.histogram("batcher.latency_s").observe(
                    now - request.submitted_at
                )
        if self.on_result is not None:
            try:
                self.on_result(request, now - request.submitted_at, batch_size, outcome)
            except Exception:  # noqa: BLE001 - an observer must not stop serving
                self.stats.observer_errors += 1
