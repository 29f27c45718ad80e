"""Asyncio gateway multiplexing client futures onto worker processes.

The :class:`FabricGateway` is the front door of the multi-process serving
fabric.  It owns a pool of spawned :mod:`worker <repro.serving.fabric.worker>`
processes (one engine + micro-batcher event loop each, fed over
pickle-framed duplex pipes) and routes admitted requests onto them with the
**same** :class:`~repro.serving.scheduler.ReplicaScheduler` policies the
in-process server uses — round-robin, least-loaded, latency-aware and the
compiler-fed cost-based router — by presenting each
:class:`WorkerHandle` through the scheduler's replica surface (``queue``,
``depth``, ``load``, ``ewma_latency_s``, ``engine.latency_hint_s``).

What the process boundary adds over :class:`InferenceServer`:

* **Credit-based dispatch with priorities.**  At most ``max_inflight``
  requests are outstanding on a worker pipe; everything else waits in a
  per-worker priority heap at the gateway, where a later high-priority
  arrival *preempts* queued (never in-flight) lower-priority work.
* **Batched wire.**  Requests dispatched to a worker in one loop tick
  cross its pipe as one ``("submit", rows)`` frame, and each fused engine
  call comes back as one ``("result", ...)`` frame: one pickle and one
  thread hop per frame on each side instead of per request.
* **Per-tenant admission quotas.**  A tenant at its outstanding-request
  quota is rejected with the same typed
  :class:`~repro.serving.errors.BackpressureError` the bounded queues
  raise, while other tenants keep flowing.
* **Worker-crash detection.**  A worker pipe's EOF fails that worker's
  queued and in-flight requests with the typed
  :class:`~repro.serving.errors.WorkerCrashedError` and removes the worker
  from routing; the rest of the pool keeps serving.
* **Graceful drain.**  ``shutdown(drain=True)`` stops admission, serves
  the backlog, then stops every worker and joins its process.

The gateway's local surface mirrors ``InferenceServer`` (``submit`` /
``submit_nowait`` / ``stats`` / ``drain`` / async context manager), so the
:mod:`repro.serving.loadgen` drivers run unchanged against either.  The
remote surface — length-prefixed JSON/binary frames over a local TCP
socket — is served by :meth:`start_server` and spoken by
:class:`~repro.serving.fabric.client.FabricClient`.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    ProtocolError,
    ServerClosedError,
    WorkerCrashedError,
)
from repro.serving.fabric import wire
from repro.serving.fabric.worker import WorkerSpec, worker_main
from repro.serving.scheduler import LATENCY_EWMA_ALPHA, ReplicaScheduler
from repro.serving.telemetry import ServingTelemetry
from repro.serving.timebase import loop_time


@dataclass
class FabricRequest:
    """One gateway-side request: routing metadata around the client future.

    Attributes:
        request_id: gateway-assigned id (matches the worker's echo).
        inputs: the ``(n_in,)`` input column.
        weights: explicit model weights or ``None`` (worker default model);
            the worker's batcher keys the request by them.
        future: resolved with the output column or a typed error.
        submitted_at: gateway loop ``time()`` at admission.
        deadline_at: absolute gateway loop-time deadline, or ``None``.
        priority: larger is more urgent; reorders *queued* work only.
        tenant: quota-accounting key, or ``None`` for unmetered traffic.
        seq: admission sequence number (FIFO tie-break within a priority).
        trace: the gateway-side request span, or ``None`` (tracing off).
    """

    request_id: int
    inputs: np.ndarray
    future: asyncio.Future
    submitted_at: float
    weights: Optional[np.ndarray] = None
    deadline_at: Optional[float] = None
    priority: int = 0
    tenant: Optional[str] = None
    seq: int = 0
    trace: Optional[object] = None


class _HandleQueue:
    """The ``Replica.queue`` surface of a handle: enqueue = heap + pump."""

    def __init__(self, handle: "WorkerHandle"):
        self._handle = handle

    def put_nowait(self, request: FabricRequest) -> None:
        self._handle.enqueue(request)

    def qsize(self) -> int:
        return len(self._handle._pending)


class _HandleEngine:
    """The ``Replica.engine`` surface of a handle (routing hints only)."""

    def __init__(self, handle: "WorkerHandle"):
        self._handle = handle
        self.name = handle.name

    def latency_hint_s(self, n_columns: int) -> float:
        """Per-request service-time hint (EWMA once observed, else 0)."""
        observed = self._handle.ewma_latency_s
        return observed if observed is not None else 0.0


class WorkerHandle:
    """Gateway-side proxy of one worker process.

    Presents the scheduler's replica surface over a priority heap of
    pending requests plus a credit-bounded in-flight window on the pipe.

    Attributes:
        name: worker/replica name (from the spec).
        spec: the :class:`~repro.serving.fabric.worker.WorkerSpec`.
        max_pending: gateway-side admission bound (the scheduler's
            ``max_queue_depth``).
        max_inflight: dispatch credit: requests outstanding on the pipe.
        alive: False once the worker's pipe reported EOF.
        ewma_latency_s: smoothed end-to-end latency of completed requests.
    """

    def __init__(self, spec: WorkerSpec, max_pending: int, max_inflight: int):
        if max_pending < 1 or max_inflight < 1:
            raise ValueError("max_pending and max_inflight must be >= 1")
        self.name = spec.name
        self.spec = spec
        self.max_pending = int(max_pending)
        self.max_inflight = int(max_inflight)
        self.alive = False
        self.draining = False
        self.ewma_latency_s: Optional[float] = None
        self.process = None
        self.conn = None
        self.worker_stats: Optional[Dict] = None
        self.queue = _HandleQueue(self)
        self.engine = _HandleEngine(self)
        self.inflight_requests: Dict[int, FabricRequest] = {}
        self._outbox: List[tuple] = []
        self._pending: List[Tuple[int, int, FabricRequest]] = []
        self._bye = asyncio.Event()
        self._ready = asyncio.Event()
        self._dispatch: Optional[Callable[["WorkerHandle"], None]] = None

    # -- the scheduler's replica surface ------------------------------- #
    @property
    def depth(self) -> int:
        """Requests waiting in the gateway-side priority heap."""
        return len(self._pending)

    @property
    def inflight(self) -> int:
        """Requests outstanding on the worker pipe."""
        return len(self.inflight_requests)

    @property
    def load(self) -> int:
        """Pending plus in-flight (the routing/drain load metric)."""
        return self.depth + self.inflight

    @property
    def max_queue_depth(self) -> int:
        """Admission bound; 0 once the worker is dead (never routed to)."""
        return self.max_pending if self.alive else 0

    def enqueue(self, request: FabricRequest) -> None:
        """Admit one routed request into the priority heap and dispatch."""
        heapq.heappush(self._pending, (-request.priority, request.seq, request))
        if self._dispatch is not None:
            self._dispatch(self)

    def pop_pending(self) -> Optional[FabricRequest]:
        """Highest-priority queued request (FIFO within a priority)."""
        if not self._pending:
            return None
        return heapq.heappop(self._pending)[2]

    def drain_pending(self) -> List[FabricRequest]:
        """Remove and return every queued (undispatched) request."""
        drained = [entry[2] for entry in self._pending]
        self._pending.clear()
        return drained

    def observe_latency(self, latency_s: float) -> None:
        """Fold one completed-request latency into the routing EWMA."""
        previous = self.ewma_latency_s
        self.ewma_latency_s = (
            latency_s
            if previous is None
            else LATENCY_EWMA_ALPHA * latency_s + (1 - LATENCY_EWMA_ALPHA) * previous
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkerHandle {self.name!r} alive={self.alive} "
            f"pending={self.depth} inflight={self.inflight}>"
        )


class FabricGateway:
    """Front door of the multi-process serving fabric.

    Attributes:
        scheduler: the reused routing/admission layer over worker handles.
        telemetry: end-to-end metrics sink (gateway loop time).
        tenant_quotas: per-tenant outstanding-request bounds.
        default_tenant_quota: bound for tenants not listed explicitly
            (``None`` = unmetered); requests without a tenant are never
            metered.
        tracer: optional :class:`~repro.obs.trace.Tracer` (gateway
            process).  When set, every admitted request gets a gateway
            span whose context crosses the worker pipes; worker specs are
            switched to ``tracing=True`` so worker-side span trees ship
            back and stitch under it.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        policy: str = "least-loaded",
        cost_fn: Optional[Callable[[WorkerHandle], float]] = None,
        max_pending: int = 256,
        max_inflight: int = 64,
        tenant_quotas: Optional[Dict[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
        telemetry: Optional[ServingTelemetry] = None,
        tracer=None,
    ):
        if not specs:
            raise ValueError("gateway needs at least one worker spec")
        self.tracer = tracer
        if tracer:
            # tracing gateways need tracing workers, or the cross-process
            # half of every trace would silently be missing
            for spec in specs:
                spec.tracing = True
        self.handles = [WorkerHandle(spec, max_pending, max_inflight) for spec in specs]
        self.scheduler = ReplicaScheduler(self.handles, policy=policy, cost_fn=cost_fn)
        self.telemetry = telemetry if telemetry is not None else ServingTelemetry()
        self.tenant_quotas = dict(tenant_quotas or {})
        self.default_tenant_quota = default_tenant_quota
        self._tenant_outstanding: Dict[str, int] = {}
        self._spawn = multiprocessing.get_context("spawn")
        self._by_name = {handle.name: handle for handle in self.handles}
        self._started = False
        self._closed = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._next_request_id = 0
        self._next_seq = 0
        for handle in self.handles:
            handle._dispatch = self._pump

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, ready_timeout_s: float = 60.0) -> "FabricGateway":
        """Spawn every worker process and wait for its readiness handshake.

        Returning only once every worker has built (and warm-started) its
        engine keeps spawn/import time out of measured traffic windows.  A
        worker that dies before reporting ready surfaces as
        :class:`~repro.serving.errors.WorkerCrashedError` here rather than
        on the first submitted request; idempotent for already-live
        workers.
        """
        self._loop = asyncio.get_running_loop()
        self._now = loop_time()
        spawned = []
        for handle in self.handles:
            if handle.process is not None and handle.alive:
                continue
            parent_conn, child_conn = self._spawn.Pipe(duplex=True)
            process = self._spawn.Process(
                target=worker_main,
                args=(child_conn, handle.spec),
                name=f"fabric-{handle.name}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle.process = process
            handle.conn = parent_conn
            handle.alive = True
            handle.draining = False
            handle._bye = asyncio.Event()
            handle._ready = asyncio.Event()
            self._start_reader(handle)
            spawned.append(handle)
        if not self._started:
            self.telemetry.start()
        self._started = True
        self._closed = False
        for handle in spawned:
            try:
                await asyncio.wait_for(
                    handle._ready.wait(), timeout=ready_timeout_s
                )
            except asyncio.TimeoutError:
                raise WorkerCrashedError(
                    worker=handle.name,
                    detail=f"no readiness handshake within {ready_timeout_s}s",
                ) from None
            if not handle.alive:
                raise WorkerCrashedError(
                    worker=handle.name, detail="worker died during startup"
                )
        return self

    def _start_reader(self, handle: WorkerHandle) -> None:
        import threading

        loop = self._loop

        def pump() -> None:
            try:
                while True:
                    message = handle.conn.recv()
                    loop.call_soon_threadsafe(self._on_message, handle, message)
                    if message[0] == "bye":
                        return
            except (EOFError, OSError):
                loop.call_soon_threadsafe(self._on_worker_eof, handle)

        threading.Thread(
            target=pump, name=f"gateway-{handle.name}-reader", daemon=True
        ).start()

    async def drain(self) -> None:
        """Wait until every admitted request has completed."""
        while any(handle.load > 0 for handle in self.handles):
            await asyncio.sleep(0.001)

    async def shutdown(self, drain: bool = True, join_timeout_s: float = 10.0) -> None:
        """Stop admission, optionally serve the backlog, stop the workers.

        ``drain=True`` serves everything already admitted before stopping;
        ``drain=False`` fails queued and in-flight requests with
        :class:`~repro.serving.errors.ServerClosedError` and aborts the
        workers.  Worker processes are joined (then terminated if they
        ignore the deadline), so no zombie processes outlive the gateway.
        """
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            await self.drain()
        else:
            self._fail_outstanding(ServerClosedError("gateway aborted before serving"))
        for handle in self.handles:
            if not handle.alive or handle.conn is None:
                continue
            handle.draining = True
            try:
                handle.conn.send(("shutdown", drain))
            except (OSError, ValueError):
                handle._bye.set()
        await asyncio.gather(
            *(self._reap(handle, join_timeout_s) for handle in self.handles)
        )
        self._started = False
        self.telemetry.stop()

    async def _reap(self, handle: WorkerHandle, join_timeout_s: float) -> None:
        if handle.process is None:
            return
        try:
            await asyncio.wait_for(handle._bye.wait(), timeout=join_timeout_s)
        except asyncio.TimeoutError:
            pass
        process = handle.process
        await asyncio.get_running_loop().run_in_executor(
            None, process.join, join_timeout_s
        )
        if process.is_alive():
            process.terminate()
            await asyncio.get_running_loop().run_in_executor(None, process.join, 2.0)
        handle.alive = False
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None

    async def __aenter__(self) -> "FabricGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown(drain=exc_type is None)

    @property
    def running(self) -> bool:
        """True while the gateway accepts new requests."""
        return self._started and not self._closed

    def kill_worker(self, name: str) -> None:
        """Fault injection: SIGKILL one worker process (crash-path testing)."""
        handle = self._handle_named(name)
        if handle.process is not None:
            handle.process.kill()

    def _handle_named(self, name: str) -> WorkerHandle:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(
                f"unknown worker {name!r} (pool: {sorted(self._by_name)})"
            ) from None

    # ------------------------------------------------------------------ #
    # admission
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

        Raises :class:`~repro.serving.errors.ServerClosedError` when the
        gateway is not accepting requests,
        :class:`~repro.serving.errors.BackpressureError` when the tenant is
        at quota or every eligible worker queue is full, and
        :class:`~repro.serving.errors.WorkerCrashedError` when the pinned
        worker (or the whole pool) is dead.  ``replica`` pins to one named
        worker (no failover), matching the in-process server's surface.

        ``trace`` optionally parents the gateway span on an upstream
        context (a :class:`~repro.obs.trace.TraceContext` or its wire
        dictionary, as shipped in a socket client's submit header);
        ignored when the gateway has no tracer.
        """
        if not self.running:
            raise ServerClosedError(
                "gateway is not accepting requests (call start(), and submit "
                "before shutdown())"
            )
        inputs = np.asarray(inputs)
        if inputs.ndim != 1:
            raise ValueError(
                f"a request carries one (n_in,) input column, got shape {inputs.shape}"
            )
        if tenant is not None:
            quota = self.tenant_quotas.get(tenant, self.default_tenant_quota)
            outstanding = self._tenant_outstanding.get(tenant, 0)
            if quota is not None and outstanding >= int(quota):
                self.telemetry.on_reject()
                raise BackpressureError(
                    replica=f"tenant:{tenant}", depth=outstanding, limit=int(quota)
                )
        if replica is not None and not self._handle_named(replica).alive:
            raise WorkerCrashedError(
                worker=replica, detail="pinned worker is no longer alive"
            )
        if not any(handle.alive for handle in self.handles):
            raise WorkerCrashedError(
                worker="*", detail="every worker process has exited"
            )
        now = self._now()
        request = FabricRequest(
            request_id=self._next_request_id,
            inputs=inputs,
            weights=weights,
            future=asyncio.get_running_loop().create_future(),
            submitted_at=now,
            deadline_at=now + deadline_s if deadline_s is not None else None,
            priority=int(priority),
            tenant=tenant,
            seq=self._next_seq,
        )
        self._next_request_id += 1
        self._next_seq += 1
        span = None
        if self.tracer:
            # the span must exist before routing: enqueueing synchronously
            # pumps the pipe, and the submit tuple carries the span context
            parent = wire.unpack_trace(trace) if isinstance(trace, dict) else trace
            span = self.tracer.start_span(
                "request",
                parent=parent,
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
        if span is not None:
            span.attrs["worker"] = routed.name
            tracer = self.tracer
            request.future.add_done_callback(lambda _future: tracer.end_span(span))
        if tenant is not None:
            self._tenant_outstanding[tenant] = (
                self._tenant_outstanding.get(tenant, 0) + 1
            )
        self.telemetry.on_admit(routed.name, self.scheduler.total_load())
        return request.future

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
            inputs,
            weights=weights,
            deadline_s=deadline_s,
            replica=replica,
            priority=priority,
            tenant=tenant,
        )

    # ------------------------------------------------------------------ #
    # dispatch and completion
    # ------------------------------------------------------------------ #
    def _pump(self, handle: WorkerHandle) -> None:
        """Move queued requests into the handle's outbox while it has pipe credit.

        Priority order, credit and the deadline check all apply here, at
        dispatch; the rows leave together as one frame (:meth:`_flush`).
        """
        outbox = handle._outbox
        while handle.alive and handle.inflight < handle.max_inflight:
            request = handle.pop_pending()
            if request is None:
                return
            now = self._now()
            if request.deadline_at is not None and now > request.deadline_at:
                waited = now - request.submitted_at
                self._finish(
                    handle,
                    request,
                    "expired",
                    error=DeadlineExceededError(
                        waited_s=waited,
                        deadline_s=request.deadline_at - request.submitted_at,
                    ),
                )
                continue
            remaining = (
                request.deadline_at - now if request.deadline_at is not None else None
            )
            handle.inflight_requests[request.request_id] = request
            if not outbox:
                self._loop.call_soon(self._flush, handle)
            outbox.append(
                (
                    request.request_id,
                    request.inputs,
                    request.weights,
                    remaining,
                    wire.pack_trace(request.trace),
                )
            )

    def _flush(self, handle: WorkerHandle) -> None:
        """Send everything dispatched this loop tick as one ``("submit", rows)`` frame."""
        rows = handle._outbox
        if not rows or not handle.alive:
            return
        handle._outbox = []
        try:
            handle.conn.send(("submit", rows))
        except (OSError, ValueError):
            self._on_worker_eof(handle)

    def _finish(
        self,
        handle: WorkerHandle,
        request: FabricRequest,
        outcome: str,
        result: Optional[np.ndarray] = None,
        error: Optional[Exception] = None,
        batch_size: int = 1,
    ) -> None:
        """Resolve one request's future and account its final outcome."""
        latency_s = self._now() - request.submitted_at
        if not request.future.done():
            if outcome == "ok":
                request.future.set_result(result)
            else:
                request.future.set_exception(error)
        if request.tenant is not None:
            left = self._tenant_outstanding.get(request.tenant, 0) - 1
            if left > 0:
                self._tenant_outstanding[request.tenant] = left
            else:
                self._tenant_outstanding.pop(request.tenant, None)
        if outcome == "ok":
            handle.observe_latency(latency_s)
        self.telemetry.on_result(handle.name, latency_s, batch_size, outcome)

    def _on_message(self, handle: WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "result":
            # one frame per fused engine call: row i of the stacked outputs
            # answers request_ids[i]; index 4 is the rows' summed worker
            # latency, index 5 the worker's drained span dicts (or None)
            _, request_ids, outputs, batch_size, _worker_latency, spans = message
            if self.tracer:
                self.tracer.ingest(spans)
            inflight = handle.inflight_requests
            for row, request_id in enumerate(request_ids):
                request = inflight.pop(request_id, None)
                if request is not None:
                    self._finish(
                        handle, request, "ok", result=outputs[row], batch_size=batch_size
                    )
            self.telemetry.on_batch(handle.name, batch_size)
            self._pump(handle)
        elif kind == "error":
            _, request_id, payload, batch_size, _worker_latency, spans = message
            if self.tracer:
                self.tracer.ingest(spans)
            request = handle.inflight_requests.pop(request_id, None)
            if request is not None:
                error = wire.decode_exception(payload)
                outcome = (
                    "expired" if isinstance(error, DeadlineExceededError) else "error"
                )
                self._finish(
                    handle, request, outcome, error=error,
                    batch_size=max(int(batch_size), 1),
                )
            self._pump(handle)
        elif kind == "ready":
            handle._ready.set()
        elif kind == "bye":
            handle.worker_stats = message[1]
            if self.tracer and isinstance(handle.worker_stats, dict):
                self.tracer.ingest(handle.worker_stats.pop("spans", None))
            handle._bye.set()

    def _on_worker_eof(self, handle: WorkerHandle) -> None:
        """Worker pipe EOF: crash unless we are the ones shutting it down."""
        was_alive = handle.alive
        handle.alive = False
        handle._outbox.clear()
        handle._bye.set()
        handle._ready.set()  # unblock a start() still waiting on this worker
        if handle.draining or not was_alive:
            return
        error_detail = "worker process exited unexpectedly"
        exit_code = handle.process.exitcode if handle.process is not None else None
        if exit_code is not None:
            error_detail = f"worker process exited with code {exit_code}"
        for request in list(handle.inflight_requests.values()):
            self._finish(
                handle,
                request,
                "error",
                error=WorkerCrashedError(worker=handle.name, detail=error_detail),
            )
        handle.inflight_requests.clear()
        for request in handle.drain_pending():
            self._finish(
                handle,
                request,
                "error",
                error=WorkerCrashedError(worker=handle.name, detail=error_detail),
            )

    def _fail_outstanding(self, error: Exception) -> None:
        for handle in self.handles:
            handle._outbox.clear()
            for request in handle.drain_pending():
                self._finish(handle, request, "error", error=error)
            for request in list(handle.inflight_requests.values()):
                self._finish(handle, request, "error", error=error)
            handle.inflight_requests.clear()

    # ------------------------------------------------------------------ #
    # remote front door (length-prefixed frames over TCP)
    # ------------------------------------------------------------------ #
    async def start_server(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Serve the wire protocol on a local socket; returns (host, port)."""
        if self._server is not None:
            raise RuntimeError("wire server already running")
        self._server = await asyncio.start_server(self._handle_client, host, port)
        address = self._server.sockets[0].getsockname()
        return address[0], address[1]

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def send(header: Dict, payload: bytes = b"") -> None:
            async with write_lock:
                writer.write(wire.pack_frame(header, payload))
                await writer.drain()

        async def send_error(client_id, exc: Exception) -> None:
            await send({"kind": "error", "id": client_id, "error": wire.encode_exception(exc)})

        async def relay(client_id, future: asyncio.Future) -> None:
            try:
                output = await future
            except Exception as exc:  # noqa: BLE001 - typed errors cross the wire
                await send_error(client_id, exc)
            else:
                specs, payload = wire.pack_arrays([np.asarray(output)])
                await send(
                    {"kind": "result", "id": client_id, "arrays": specs}, payload
                )

        relays = set()
        try:
            while True:
                try:
                    header, arrays = await wire.read_message(reader)
                    kind = header.get("kind")
                    if kind == "submit" and (not arrays or arrays[0] is None):
                        raise ProtocolError("submit frame carries no input array")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                except ProtocolError as exc:
                    # the stream cannot be trusted past a malformed frame: answer
                    # it typed if the peer still listens, then close only this
                    # connection (``finally``)
                    with contextlib.suppress(ConnectionError):
                        await send_error(None, exc)
                    return
                if kind == "submit":
                    client_id = header.get("id")
                    inputs = arrays[0]
                    weights = arrays[1] if len(arrays) > 1 else None
                    try:
                        future = self.submit_nowait(
                            inputs,
                            weights=weights,
                            deadline_s=header.get("deadline_s"),
                            replica=header.get("worker"),
                            priority=int(header.get("priority", 0)),
                            tenant=header.get("tenant"),
                            trace=header.get("trace"),
                        )
                    except Exception as exc:  # noqa: BLE001 - typed across the wire
                        await send_error(client_id, exc)
                    else:
                        task = asyncio.ensure_future(relay(client_id, future))
                        relays.add(task)
                        task.add_done_callback(relays.discard)
                elif kind == "stats":
                    await send(
                        {"kind": "stats", "id": header.get("id"), "stats": self.stats()}
                    )
                elif kind == "close":
                    return
        finally:
            for task in relays:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Telemetry summary extended with per-worker fabric state."""
        summary = self.telemetry.summary()
        summary["fabric"] = {
            "policy": self.scheduler.policy,
            "workers": {
                handle.name: {
                    "alive": handle.alive,
                    "pending": handle.depth,
                    "inflight": handle.inflight,
                    "seed": handle.spec.seed,
                    "worker_stats": handle.worker_stats,
                }
                for handle in self.handles
            },
            "tenant_outstanding": dict(self._tenant_outstanding),
        }
        return summary

    def report(self) -> str:
        """Human-readable telemetry report (shared eval formatting)."""
        return self.telemetry.report(
            title=f"serving fabric ({self.scheduler.policy}, "
            f"{len(self.handles)} workers)"
        )
