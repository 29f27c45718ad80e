"""Asyncio gateway multiplexing client futures onto worker processes.

The :class:`FabricGateway` is the front door of the multi-process serving
fabric.  It owns a pool of spawned :mod:`worker <repro.serving.fabric.worker>`
processes (one engine + micro-batcher event loop each, fed over
pickle-framed duplex pipes) and routes admitted requests onto them with the
**same** :class:`~repro.serving.scheduler.ReplicaScheduler` policies the
in-process server uses — round-robin, least-loaded, latency-aware and the
compiler-fed cost-based router — by presenting each
:class:`WorkerHandle` through the scheduler's replica surface (``queue``,
``load``, ``inflight``, ``pool``, ``ewma_latency_s``,
``engine.latency_hint_s``).

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
  raise, while other tenants keep flowing.  A request the worker refuses
  at its own admission bound comes back with that error too; it was
  admitted (``submitted``) at the gateway and counts as ``rejected``,
  never as its replica's ``failed``.
* **Worker-crash detection.**  A worker pipe's EOF fails that worker's
  queued and in-flight requests with the typed
  :class:`~repro.serving.errors.WorkerCrashedError` and removes the worker
  from routing; the rest of the pool keeps serving.
* **Graceful drain.**  ``shutdown(drain=True)`` stops admission, serves
  the backlog, then stops every worker and joins its process.

The gateway *is* an :class:`~repro.serving.server.InferenceServer` whose
replicas are worker handles: admission (closed and shape checks, request
ids, deadline stamps, the request span, routing, admit/reject telemetry),
``submit``, ``drain``, ``running`` and the async context manager are the
server's, so the :mod:`repro.serving.loadgen` drivers run unchanged
against either.  The remote surface — length-prefixed JSON/binary frames
over a local TCP socket — is served by :meth:`FabricGateway.start_server`
and spoken by :class:`~repro.serving.fabric.client.FabricClient`.
"""

from __future__ import annotations

import asyncio
import contextlib
import heapq
import multiprocessing
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.batching import InferenceRequest
from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    ProtocolError,
    ServerClosedError,
    WorkerCrashedError,
)
from repro.serving.fabric import wire
from repro.serving.fabric.worker import WorkerSpec, worker_main
from repro.serving.scheduler import PoolLoad, latency_ewma
from repro.serving.server import InferenceServer
from repro.serving.telemetry import ServingTelemetry

#: outcome of a worker's error reply by its decoded type; any other is "error"
_REPLY_OUTCOMES = {DeadlineExceededError: "expired", BackpressureError: "rejected"}


class _HandleQueue:
    """The ``Replica.queue`` surface of a handle: enqueue = heap + pump."""

    def __init__(self, handle: "WorkerHandle"):
        self._handle = handle

    def put_nowait(self, request: InferenceRequest) -> None:
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
        load: pending plus in-flight requests, kept as a counter: one more
            at :meth:`enqueue`, one fewer when the gateway finishes the
            request.
        pool: the scheduler's :class:`~repro.serving.scheduler.PoolLoad`.
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
        self.load = 0
        self.pool = PoolLoad()
        self.alive = False
        self.draining = False
        self.ewma_latency_s: Optional[float] = None
        self.process = None
        self.conn = None
        self.queue = _HandleQueue(self)
        self.engine = _HandleEngine(self)
        self.inflight_requests: Dict[int, InferenceRequest] = {}
        self._outbox: List[tuple] = []
        self._pending: List[Tuple[int, int, InferenceRequest]] = []
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
    def max_queue_depth(self) -> int:
        """Admission bound; 0 once the worker is dead (never routed to)."""
        return self.max_pending if self.alive else 0

    def enqueue(self, request: InferenceRequest) -> None:
        """Admit one routed request into the priority heap and dispatch.

        Request ids rise with admission, so they break priority ties
        first-in, first-out.  The request joins the load counters first:
        dispatch may finish it at once.
        """
        self.load += 1
        self.pool.load += 1
        heapq.heappush(self._pending, (-request.priority, request.request_id, request))
        if self._dispatch is not None:
            self._dispatch(self)

    def pop_pending(self) -> Optional[InferenceRequest]:
        """Highest-priority queued request (FIFO within a priority)."""
        if not self._pending:
            return None
        return heapq.heappop(self._pending)[2]

    def drain_pending(self) -> List[InferenceRequest]:
        """Remove and return every queued (undispatched) request."""
        drained = [entry[2] for entry in self._pending]
        self._pending.clear()
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WorkerHandle {self.name!r} alive={self.alive} "
            f"pending={self.depth} inflight={self.inflight}>"
        )


class FabricGateway(InferenceServer):
    """Front door of the multi-process serving fabric.

    An :class:`~repro.serving.server.InferenceServer` whose replicas are
    :class:`WorkerHandle` proxies of spawned worker processes.

    Attributes:
        handles: the worker handles, in spec order.
        scheduler: the routing/admission layer over the worker handles.
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
        if tracer:
            # tracing gateways need tracing workers, or the cross-process
            # half of every trace would silently be missing
            for spec in specs:
                spec.tracing = True
        self.handles = [WorkerHandle(spec, max_pending, max_inflight) for spec in specs]
        super().__init__(
            self.handles, policy=policy, telemetry=telemetry, cost_fn=cost_fn,
            tracer=tracer,
        )
        self.tenant_quotas = dict(tenant_quotas or {})
        self.default_tenant_quota = default_tenant_quota
        self._tenant_outstanding: Dict[str, int] = {}
        self._spawn = multiprocessing.get_context("spawn")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None

    def _attach(self, handle: WorkerHandle) -> None:
        """Routing a request onto ``handle`` pumps its pipe."""
        handle._dispatch = self._pump
        self.telemetry.replica_slice(handle.name)

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
        self._open()
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
        self._stopped()

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

    def kill_worker(self, name: str) -> None:
        """Fault injection: SIGKILL one worker process (crash-path testing)."""
        handle = self.scheduler.replica_named(name)
        if handle.process is not None:
            handle.process.kill()

    # ------------------------------------------------------------------ #
    # admission: the server's, behind the gateway's own checks
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

        Besides the server's errors, raises
        :class:`~repro.serving.errors.BackpressureError` when the tenant is
        at quota and :class:`~repro.serving.errors.WorkerCrashedError` when
        the pinned worker (or the whole pool) is dead.  ``replica`` pins to
        one named worker (no failover); ``priority`` reorders work queued
        at the gateway.  ``trace`` may also be the wire dictionary of a
        :class:`~repro.obs.trace.TraceContext`, as shipped in a socket
        client's submit header.
        """
        if self.running:  # a closed gateway is refused by the shared path
            if tenant is not None:
                quota = self.tenant_quotas.get(tenant, self.default_tenant_quota)
                outstanding = self._tenant_outstanding.get(tenant, 0)
                if quota is not None and outstanding >= int(quota):
                    self._rejected()
                    raise BackpressureError(
                        replica=f"tenant:{tenant}", depth=outstanding, limit=int(quota)
                    )
            if replica is not None and not self.scheduler.replica_named(replica).alive:
                raise WorkerCrashedError(
                    worker=replica, detail="pinned worker is no longer alive"
                )
            # a plain loop: an any() generator costs more than the rest of
            # these checks together on every admission
            for handle in self.handles:
                if handle.alive:
                    break
            else:
                raise WorkerCrashedError(
                    worker="*", detail="every worker process has exited"
                )
        if self.tracer and isinstance(trace, dict):
            trace = wire.unpack_trace(trace)
        if tenant is not None:
            # counted before routing: enqueueing pumps at once, and a request
            # already past its deadline finishes (and releases it) right there
            self._tenant_outstanding[tenant] = self._tenant_outstanding.get(tenant, 0) + 1
        try:
            return super().submit_nowait(
                inputs, weights, deadline_s, replica, priority, tenant, trace
            )
        except Exception:
            if tenant is not None:
                self._release_tenant(tenant)
            raise

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
        request: InferenceRequest,
        outcome: str,
        result: Optional[np.ndarray] = None,
        error: Optional[Exception] = None,
        batch_size: int = 1,
    ) -> None:
        """Resolve one request's future and account its final outcome.

        A ``"rejected"`` outcome (worker backpressure) counts as a rejection.
        """
        handle.load -= 1
        handle.pool.release()
        latency_s = self._now() - request.submitted_at
        if not request.future.done():
            if outcome == "ok":
                request.future.set_result(result)
            else:
                request.future.set_exception(error)
        if request.tenant is not None:
            self._release_tenant(request.tenant)
        if outcome == "ok":
            handle.ewma_latency_s = latency_ewma(handle.ewma_latency_s, latency_s)
        elif outcome == "rejected":
            self.telemetry.on_reject()
            return
        self.telemetry.on_result(handle.name, latency_s, batch_size, outcome)

    def _release_tenant(self, tenant: str) -> None:
        """Return one outstanding request of ``tenant`` to its quota."""
        left = self._tenant_outstanding.get(tenant, 0) - 1
        if left > 0:
            self._tenant_outstanding[tenant] = left
        else:
            self._tenant_outstanding.pop(tenant, None)

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
                self._finish(
                    handle, request, _REPLY_OUTCOMES.get(type(error), "error"), error=error,
                    batch_size=max(int(batch_size), 1),
                )
            self._pump(handle)
        elif kind == "ready":
            handle._ready.set()
        elif kind == "bye":
            # the worker's counter snapshot joins the one telemetry registry
            _, metrics, spans = message
            self.telemetry.metrics.merge(metrics)
            if self.tracer:
                self.tracer.ingest(spans)
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
                }
                for handle in self.handles
            },
            "tenant_outstanding": dict(self._tenant_outstanding),
            # worker counters merged from every bye (empty before shutdown)
            "metrics": {
                name: state
                for name, state in self.telemetry.metrics.snapshot().items()
                if name.startswith("worker.")
            },
        }
        return summary

    def report(self) -> str:
        """Human-readable telemetry report (shared eval formatting)."""
        return self.telemetry.report(
            title=f"serving fabric ({self.scheduler.policy}, "
            f"{len(self.handles)} workers)"
        )
