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

Admission, the lifecycle flags, ``drain`` and the telemetry hooks are
written once, here: the multi-process
:class:`~repro.serving.fabric.gateway.FabricGateway` is a subclass whose
replicas are handles of worker processes.
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
        telemetry: the server-lifetime metrics sink; ``telemetry.metrics``
            is the one registry of every serving figure.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            admitted request gets a ``request`` root span that the
            batchers/engines parent their spans on.  ``None`` (the
            default) keeps the entire tracing path to one falsy check.
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
        replanner=None,
    ):
        self.scheduler = ReplicaScheduler(replicas, policy=policy, cost_fn=cost_fn)
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        self.tracer = tracer
        self.replanner = replanner
        self._started = False
        self._closed = False
        self._next_request_id = 0
        for replica in self.scheduler.replicas:
            self._attach(replica)

    def _attach(self, replica: Replica) -> None:
        """Subscribe the server's instruments to one replica's batcher."""
        tracer = self.tracer
        # replicas without their own tracer join the server's
        if replica.batcher.tracer is None:
            replica.batcher.tracer = tracer
        # engines that support SoC-phase tracing expose a tracer slot
        if tracer and getattr(replica.engine, "tracer", "absent") is None:
            replica.engine.tracer = tracer
        # the replica reports every outcome straight to the telemetry
        replica.telemetry = self.telemetry
        self.telemetry.replica_slice(replica.name)
        replica.add_batch_observer(self.telemetry.on_batch)
        if self.replanner:
            replica.add_batch_observer(self._observe_batch_width)

    def _observe_batch_width(self, replica_name: str, batch_size: int) -> None:
        """Feed one fused-batch width into the attached replanner."""
        self.replanner.observe_batch(batch_size)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> "InferenceServer":
        """Start every replica's batcher task; idempotent.

        ``start()`` never yields to the loop, so requests submitted right
        after it queue before any batcher has run.
        """
        for replica in self.scheduler.replicas:
            replica.start()
        self._open()
        return self

    def _open(self) -> None:
        """Bind the serving loop's clock, start telemetry, accept requests."""
        self._now = loop_time()
        if not self._started:
            self.telemetry.start()
        self._started = True
        self._closed = False

    def _stopped(self) -> None:
        """Mark the server stopped and freeze the telemetry window."""
        self._started = False
        self.telemetry.stop()

    async def drain(self) -> None:
        """Wait until every admitted request has completed.

        Covers queued requests, open batching windows and dispatched
        batches: it waits for the pool's load counter to reach 0.
        """
        await self.scheduler.pool.settled()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop admission, then stop the batcher tasks.

        ``drain=True`` serves everything already admitted (the shutdown
        sentinel trails the backlog and cuts straggler windows short);
        ``drain=False`` aborts immediately, failing every pulled, held and
        queued request with :class:`~repro.serving.errors.ServerClosedError`.
        Every replica is stopped even when one raises; the first error is
        re-raised afterwards.
        """
        self._closed = True
        error = None
        for replica in self.scheduler.replicas:
            try:
                if drain:
                    await replica.stop()
                else:
                    await replica.abort()
            except Exception as exc:  # noqa: BLE001 - re-raised below
                error = error or exc
        self._stopped()
        if error is not None:
            raise error

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
        priority: int = 0,
        tenant: Optional[str] = None,
        trace=None,
    ) -> asyncio.Future:
        """Admit one request; returns the future resolving to the output column.

        ``replica`` pins the request to one named replica (compiled
        placement plans route this way); the default routes through the
        scheduler policy.  ``priority`` and ``tenant`` are recorded on the
        request: the in-process queues serve first-in, first-out and meter
        no tenant, while a gateway reorders and meters by them.  ``trace``
        parents the request span on an upstream span or context; it is
        ignored without a tracer.  Raises
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
        # the batcher computes the model key when the request joins a pull.
        # Positional arguments, in field order: binding these eight by
        # keyword costs about 0.6 us more per request (2-vCPU VM).
        request = InferenceRequest(
            inputs,
            asyncio.get_running_loop().create_future(),
            now,  # submitted_at
            weights,
            now + deadline_s if deadline_s is not None else None,  # deadline_at
            self._next_request_id,
            priority,
            tenant,
        )
        self._next_request_id += 1
        span = None
        if self.tracer:
            # the span must exist before routing: a gateway's enqueue pumps
            # the worker pipe at once, and the submit row carries the span
            span = self.tracer.start_span(
                "request",
                parent=trace,
                track="request",
                attrs={"request_id": request.request_id},
            )
            request.trace = span
        try:
            routed = self.scheduler.submit(request, replica_name=replica)
        except BackpressureError:
            self._rejected(span)
            raise
        self.telemetry.on_admit(routed.name, self.scheduler.pool.load)
        if span is not None:
            span.attrs["replica"] = routed.name
            tracer = self.tracer
            request.future.add_done_callback(lambda _future: tracer.end_span(span))
        return request.future

    def _rejected(self, span=None) -> None:
        """Count one admission refused with backpressure and close its span."""
        self.telemetry.on_reject()
        if span is not None:
            self.tracer.end_span(span, attrs={"outcome": "rejected"})

    async def submit(
        self,
        inputs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
        replica: Optional[str] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
    ) -> np.ndarray:
        """Admit one request and await its output column."""
        return await self.submit_nowait(
            inputs, weights, deadline_s, replica, priority, tenant
        )

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Telemetry summary extended with per-replica engine utilization."""
        summary = self.telemetry.summary()
        utilization = self.telemetry.utilization(
            {
                replica.name: replica.engine.stats.busy_s
                for replica in self.scheduler.replicas
            }
        )
        for name, value in utilization.items():
            if name in summary["replicas"]:
                summary["replicas"][name]["utilization"] = value
        return summary

    def report(self) -> str:
        """Human-readable telemetry report (shared eval formatting)."""
        return self.telemetry.report(title=f"serving ({self.scheduler.policy})")
