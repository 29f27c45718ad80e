"""Asyncio inference front-end: submit -> awaitable future, drain, shutdown.

:class:`InferenceServer` is the client-facing surface of the serving
runtime.  ``submit()`` admits one request (one input column against an
optional explicit model), routes it through the
:class:`~repro.serving.scheduler.ReplicaScheduler`, and returns when the
fused micro-batch containing it has executed.  Per-request deadlines are
enforced at dispatch time; callers may also cancel the returned future and
the batcher will skip the request.  ``shutdown(drain=True)`` stops
admission, serves everything already queued, then stops the batcher tasks.

The server is single-event-loop by design: engines are synchronous NumPy
code that executes inline in the batcher task, which keeps results
deterministic for seeded workloads and matches how the underlying hot paths
were benchmarked.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.serving.batching import InferenceRequest
# not called here (the batcher keys requests); kept importable because
# perfbench's traced serve_inproc run wraps ``server.weight_hash``
from repro.serving.engine import weight_hash  # noqa: F401
from repro.serving.errors import BackpressureError, ServerClosedError
from repro.serving.scheduler import Replica, ReplicaScheduler
from repro.serving.telemetry import ServingTelemetry
from repro.serving.timebase import loop_time


class InferenceServer:
    """Front-end over a pool of serving replicas.

    Attributes:
        scheduler: the routing/admission layer.
        telemetry: the server-lifetime metrics sink.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            admitted request gets a ``request`` root span that the
            batchers/engines parent their spans on.  ``None`` (the
            default) keeps the entire tracing path to one falsy check.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            shared with the batchers.
        replanner: optional
            :class:`~repro.compiler.adaptive.AdaptiveReplanner`; when
            set, every replica's fused-batch widths stream into the
            replanner's width window so it can detect sharding flip
            points in the offered traffic.  Same opt-in discipline as
            tracing: ``None`` (the default) adds nothing to the serving
            path.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        policy: str = "least-loaded",
        telemetry: Optional[ServingTelemetry] = None,
        cost_fn: Optional[Callable[[Replica], float]] = None,
        tracer=None,
        metrics=None,
        replanner=None,
    ):
        self.scheduler = ReplicaScheduler(replicas, policy=policy, cost_fn=cost_fn)
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        self.tracer = tracer
        self.metrics = metrics
        self.replanner = replanner
        self._started = False
        self._closed = False
        self._next_request_id = 0
        # the constructing loop's time(); start() rebinds to the serving loop
        self._now = loop_time()
        for replica in self.scheduler.replicas:
            # replicas without their own tracer/metrics instruments join the server's
            if replica.batcher.tracer is None:
                replica.batcher.tracer = tracer
            if replica.batcher.metrics is None:
                replica.batcher.metrics = metrics
            # engines that support SoC-phase tracing expose a tracer slot
            if tracer and getattr(replica.engine, "tracer", "absent") is None:
                replica.engine.tracer = tracer
            replica.add_observer(self._observe_result)
            replica.add_batch_observer(self.telemetry.on_batch)
            if replanner:
                replica.add_batch_observer(self._observe_batch_width)

    def _observe_batch_width(self, replica_name: str, batch_size: int) -> None:
        """Feed one fused-batch width into the attached replanner."""
        self.replanner.observe_batch(batch_size)

    def _observe_result(
        self,
        replica_name: str,
        request: InferenceRequest,
        latency_s: float,
        batch_size: int,
        outcome: str,
    ) -> None:
        self.telemetry.on_result(replica_name, latency_s, batch_size, outcome)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "InferenceServer":
        """Start every replica's batcher task; idempotent."""
        self._now = loop_time()
        for replica in self.scheduler.replicas:
            replica.start()
        if not self._started:
            self.telemetry.start()
        self._started = True
        self._closed = False
        return self

    async def drain(self) -> None:
        """Wait until every admitted request has completed.

        Covers queued requests, open batching windows and dispatched
        batches (in-flight load counts requests from the moment they are
        pulled off the queue).
        """
        while self.scheduler.total_load() > 0:
            await asyncio.sleep(0.0005)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission, then stop the batcher tasks.

        ``drain=True`` serves everything already admitted (the shutdown
        sentinel trails the backlog and cuts straggler windows short);
        ``drain=False`` aborts immediately, failing still-queued requests
        with :class:`~repro.serving.errors.ServerClosedError`.
        """
        self._closed = True
        for replica in self.scheduler.replicas:
            if drain:
                await replica.stop()
            else:
                await replica.abort()
        self._started = False
        self.telemetry.stop()

    async def __aenter__(self) -> "InferenceServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """Whether the server is started and accepting submissions."""
        return self._started and not self._closed

    # ------------------------------------------------------------------ #
    # request admission
    # ------------------------------------------------------------------ #
    def submit_nowait(
        self,
        inputs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
        replica: Optional[str] = None,
    ) -> asyncio.Future:
        """Admit one request; returns the future resolving to the output column.

        ``replica`` pins the request to one named replica (compiled
        placement plans route this way); the default routes through the
        scheduler policy.  Raises
        :class:`~repro.serving.errors.ServerClosedError` when the
        server is not accepting requests and
        :class:`~repro.serving.errors.BackpressureError` when every replica
        queue is full (the rejection is also counted in telemetry).
        """
        if not self.running:
            raise ServerClosedError(
                "server is not accepting requests (call start(), and submit "
                "before shutdown())"
            )
        inputs = np.asarray(inputs)
        if inputs.ndim != 1:
            raise ValueError(
                f"a request carries one (n_in,) input column, got shape {inputs.shape}"
            )
        now = self._now()
        # the batcher computes the model key when the request joins a pull
        request = InferenceRequest(
            inputs=inputs,
            weights=weights,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=now,
            deadline_at=now + deadline_s if deadline_s is not None else None,
            request_id=self._next_request_id,
        )
        self._next_request_id += 1
        span = None
        if self.tracer:
            span = self.tracer.start_span(
                "request",
                track="request",
                attrs={"request_id": request.request_id},
            )
            request.trace = span
        try:
            routed = self.scheduler.submit(request, replica_name=replica)
        except BackpressureError:
            self.telemetry.on_reject()
            if span is not None:
                self.tracer.end_span(span, attrs={"outcome": "rejected"})
            raise
        self.telemetry.on_admit(routed.name, self.scheduler.total_load())
        if span is not None:
            span.attrs["replica"] = routed.name
            tracer = self.tracer
            request.future.add_done_callback(lambda _future: tracer.end_span(span))
        return request.future

    async def submit(
        self,
        inputs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
        replica: Optional[str] = None,
    ) -> np.ndarray:
        """Admit one request and await its output column."""
        return await self.submit_nowait(
            inputs, weights=weights, deadline_s=deadline_s, replica=replica
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def replica_busy_s(self) -> Dict[str, float]:
        """Engine-busy seconds per replica (utilization numerator)."""
        return {
            replica.name: replica.engine.stats.busy_s
            for replica in self.scheduler.replicas
        }

    def stats(self) -> Dict:
        """Telemetry summary extended with per-replica utilization."""
        summary = self.telemetry.summary()
        utilization = self.telemetry.utilization(self.replica_busy_s())
        for name, value in utilization.items():
            if name in summary["replicas"]:
                summary["replicas"][name]["utilization"] = value
        return summary

    def report(self) -> str:
        """Human-readable telemetry report (shared eval formatting)."""
        return self.telemetry.report(title=f"serving ({self.scheduler.policy})")
