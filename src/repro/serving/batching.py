"""Dynamic micro-batching: coalesce queued requests into one engine call.

The batcher is the serving layer's throughput lever: the photonic datapath
(and the vectorized NumPy hot paths underneath it) amortise per-call cost
over the batch dimension, so executing 32 queued requests as one
``apply_batch`` / ``backend.matmul`` costs barely more than executing one.
The policy is the classic dynamic one: take the first waiting request, then
keep coalescing until either ``max_batch`` requests are in hand or
``max_wait_s`` has elapsed since the batch opened.  Whatever is already
queued is always drained greedily — even with ``max_wait_s = 0`` a saturated
queue serves in full batches.

Requests are grouped by model key inside a batch (one engine call per
model), preserving arrival order.  Cancelled futures are skipped; requests
whose deadline has passed are completed with
:class:`~repro.serving.errors.DeadlineExceededError` at dispatch time
instead of wasting engine time.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.serving.engine import InferenceEngine
from repro.serving.errors import DeadlineExceededError, ServerClosedError
from repro.serving.timebase import loop_time

#: queue sentinel that tells a batcher to exit its serve loop.
SHUTDOWN = None


@dataclass
class InferenceRequest:
    """One in-flight request: a single input column against one model.

    Attributes:
        inputs: the ``(n_in,)`` input vector.
        weights: explicit model weights, or ``None`` for the replica
            engine's bound default model.
        model_key: weight-hash grouping key (requests sharing it may be
            fused into one engine call).
        future: resolved with the ``(n_out,)`` output column.
        submitted_at: loop ``time()`` at admission.
        deadline_at: absolute loop-time deadline, or ``None``.
        request_id: monotonically increasing id assigned by the server.
        trace: the request span (:class:`~repro.obs.trace.Span`) or wire
            context, ``None`` when tracing is off.
    """

    inputs: np.ndarray
    model_key: str
    future: asyncio.Future
    submitted_at: float
    weights: Optional[np.ndarray] = None
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

    @property
    def mean_batch(self) -> float:
        """Mean requests coalesced per engine call."""
        return self.requests / self.batches if self.batches else 0.0


class MicroBatcher:
    """Coalesces an :class:`asyncio.Queue` of requests into engine calls.

    Attributes:
        engine: the :class:`~repro.serving.engine.InferenceEngine` executing
            fused batches.
        max_batch: upper bound on requests fused into one call (1 disables
            batching — the serial baseline).
        max_wait_s: how long an open batch waits for stragglers; 0 serves
            whatever is queued immediately.
        on_result: optional callback ``(request, latency_s, batch_size,
            outcome)`` with outcome ``"ok" | "expired" | "cancelled" |
            "error"`` — the telemetry hook.
        on_pull: optional callback ``(1)`` fired the moment a request is
            taken off the queue — in-flight load accounting must include
            requests held in an open batching window.
        on_batch: optional callback ``(n_dispatched)`` fired when a fused
            batch is dispatched (batch-size telemetry).
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            fuse event records a ``batch`` span linking every traced
            request it coalesced, plus an ``engine`` span per model-key
            engine call.
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
        self.on_result = on_result
        self.on_pull = on_pull
        self.on_batch = on_batch
        self.tracer = tracer
        self.metrics = metrics
        self.stats = BatcherStats()

    def _take(self, batch: list, item: InferenceRequest) -> None:
        batch.append(item)
        if self.on_pull is not None:
            self.on_pull(1)

    def expected_columns(self) -> int:
        """Batch width a compiled plan should be optimised for.

        The observed mean fused-batch size once traffic has been served,
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
            item = await queue.get()
            if item is SHUTDOWN:
                return
            batch: List[InferenceRequest] = []
            self._take(batch, item)
            try:
                stop = self._coalesce_nowait(queue, batch)
                if not stop and len(batch) < self.max_batch and self.max_wait_s > 0:
                    stop = await self._coalesce_wait(queue, batch)
            except asyncio.CancelledError:
                self._fail_batch(batch)
                raise
            if self.on_batch is not None:
                self.on_batch(len(batch))
            self._execute(batch)
            if stop:
                return

    def _fail_batch(self, batch: List[InferenceRequest]) -> None:
        """Resolve a pulled-but-unserved batch on abort (typed error)."""
        now = self._now()
        for request in batch:
            if not request.future.done():
                request.future.set_exception(
                    ServerClosedError("server aborted before serving this request")
                )
            self.stats.cancelled += 1
            self._notify(request, now, len(batch), "cancelled")

    def _coalesce_nowait(self, queue: asyncio.Queue, batch: list) -> bool:
        """Drain already-queued requests; True when SHUTDOWN was seen."""
        while len(batch) < self.max_batch:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is SHUTDOWN:
                return True
            self._take(batch, item)
        return False

    async def _coalesce_wait(self, queue: asyncio.Queue, batch: list) -> bool:
        """Wait up to ``max_wait_s`` for stragglers; True on SHUTDOWN."""
        deadline = self._now() + self.max_wait_s
        while len(batch) < self.max_batch:
            remaining = deadline - self._now()
            if remaining <= 0:
                return False
            try:
                item = await asyncio.wait_for(queue.get(), timeout=remaining)
            except asyncio.TimeoutError:
                return False
            if item is SHUTDOWN:
                return True
            self._take(batch, item)
        return False

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute(self, batch: List[InferenceRequest]) -> None:
        """Fuse a batch into per-model engine calls and resolve futures."""
        now = self._now()
        if self.metrics:
            self.metrics.histogram("batcher.batch_size").observe(len(batch))
        groups: "Dict[str, List[InferenceRequest]]" = {}
        for request in batch:
            if request.future.cancelled():
                self.stats.cancelled += 1
                self._notify(request, now, len(batch), "cancelled")
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
                self._notify(request, now, len(batch), "expired")
                continue
            groups.setdefault(request.model_key, []).append(request)

        batch_span = None
        if self.tracer:
            traced = [request.trace for request in batch if request.trace is not None]
            if traced:
                batch_span = self.tracer.start_span(
                    "batch",
                    trace_id=traced[0].trace_id,
                    links=tuple(ctx.span_id for ctx in traced),
                    track="batcher",
                    attrs={"batch_size": len(batch), "groups": len(groups)},
                )
        for model_key, requests in groups.items():
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
            self.on_result(request, now - request.submitted_at, batch_size, outcome)
