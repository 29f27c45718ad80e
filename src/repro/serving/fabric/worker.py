"""Worker-process replica: an engine + micro-batcher event loop per process.

A :class:`WorkerReplica` is the process-level unit of the serving fabric:
:func:`worker_main` runs in a spawned process, builds its engine from the
picklable :class:`WorkerSpec`, and serves a standard in-process
:class:`~repro.serving.scheduler.Replica` (bounded queue + dynamic
micro-batcher) whose requests arrive over a pickle-framed duplex pipe from
the gateway, as ``("submit", rows)`` frames of one row per request.  Each
fused engine call replies with one ``("result", ...)`` frame carrying its
rows' stacked outputs.  Every failed row — deadline expiry, engine failure,
admission rejection, cancellation — is reported back on its own with its
typed error encoded by :mod:`repro.serving.fabric.wire`, so the process
boundary never downgrades an exception to a string.

Determinism: each worker's engine is seeded with
:func:`repro.utils.rng.derive_worker_seed` (root seed + worker index), so a
multi-process load test replays the exact RNG streams of its in-process
twin — the fabric's bitwise-equivalence oracle depends on this.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.serving.batching import InferenceRequest
from repro.serving.errors import BackpressureError, ServerClosedError
from repro.serving.fabric.engines import resolve_factory
from repro.serving.fabric.wire import encode_exception, unpack_trace
from repro.serving.scheduler import Replica
from repro.serving.timebase import loop_time
from repro.utils.rng import derive_worker_seed


@dataclass
class WorkerSpec:
    """Everything a spawned worker needs to build and run its replica.

    The spec must stay picklable end-to-end (it is the spawn argument):
    the engine is described by a factory reference plus kwargs, never by a
    live instance.

    Attributes:
        name: replica label (unique within a gateway).
        engine_factory: module-level callable building the engine, or its
            ``"package.module:callable"`` dotted name.
        engine_kwargs: picklable kwargs for the factory (a derived
            per-worker seed is injected here by :func:`make_worker_specs`).
        seed: the derived per-worker seed (informational; already present
            in ``engine_kwargs`` when seeding is enabled).
        max_batch / max_wait_s: micro-batcher fusing bounds.
        max_queue_depth: worker-side admission bound; 0 rejects every
            submit (useful for backpressure fault injection).
        warm_start: compile the engine's bound default model before
            serving, so mesh programming happens outside the traffic
            window (ignored for engines without a default model).
        tracing: build a process-local :class:`~repro.obs.trace.Tracer`
            inside the worker so submits carrying gateway trace context
            get a stitched worker-side span tree (shipped back once per
            reply frame and with the final ``bye``).
    """

    name: str
    engine_factory: Union[str, Callable]
    engine_kwargs: Dict = field(default_factory=dict)
    seed: Optional[int] = None
    max_batch: int = 32
    max_wait_s: float = 0.0
    max_queue_depth: int = 256
    warm_start: bool = True
    tracing: bool = False

    def build_engine(self):
        """Instantiate the engine inside the worker process."""
        return resolve_factory(self.engine_factory)(**self.engine_kwargs)


def make_worker_specs(
    n_workers: int,
    engine_factory: Union[str, Callable],
    engine_kwargs: Optional[Dict] = None,
    root_seed: Optional[int] = None,
    **replica_options,
) -> list:
    """Build one :class:`WorkerSpec` per worker with derived per-worker seeds.

    Worker ``i`` is named ``w<i>``.  When ``root_seed`` is given, it
    receives ``derive_worker_seed(root_seed, i)`` as the ``rng`` engine
    kwarg — the deterministic stream-per-worker contract.  Pass
    ``root_seed=None`` for unseeded (digital) engines whose factories take
    no RNG argument.  ``replica_options`` forward to every spec
    (``max_batch``, ``max_wait_s``, ``max_queue_depth``, ``warm_start``).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    specs = []
    for index in range(n_workers):
        kwargs = dict(engine_kwargs or {})
        seed = None
        if root_seed is not None:
            seed = derive_worker_seed(root_seed, index)
            kwargs["rng"] = seed
        specs.append(
            WorkerSpec(
                name=f"w{index}",
                engine_factory=engine_factory,
                engine_kwargs=kwargs,
                seed=seed,
                **replica_options,
            )
        )
    return specs


class WorkerReplica:
    """The in-process half of one worker: replica, pipe I/O, lifecycle.

    Instantiated inside the spawned process by :func:`worker_main`; the
    gateway only ever sees the pipe.  Separated from the entry point so
    tests can drive a worker replica in-process against a fake pipe.
    """

    def __init__(self, conn, spec: WorkerSpec):
        self.conn = conn
        self.spec = spec
        self.engine = spec.build_engine()
        self.tracer = None
        if spec.tracing:
            from repro.obs.trace import Tracer

            self.tracer = Tracer(prefix=spec.name, process=f"worker:{spec.name}")
            if getattr(self.engine, "tracer", "absent") is None:
                self.engine.tracer = self.tracer
        if spec.warm_start:
            try:
                self.engine.compile(None)
            except Exception:  # noqa: BLE001 - engines without a default model
                pass
        self.replica = Replica(
            spec.name,
            self.engine,
            max_batch=spec.max_batch,
            max_wait_s=spec.max_wait_s,
            max_queue_depth=max(int(spec.max_queue_depth), 1),
            tracer=self.tracer,
        )
        self.replica.add_observer(self._on_outcome)
        self._request_spans: Dict[int, object] = {}
        self._group: List[tuple] = []
        self._inbox: "asyncio.Queue" = asyncio.Queue()
        self._loop = asyncio.get_running_loop()
        self._now = loop_time()

    # ------------------------------------------------------------------ #
    # pipe -> loop
    # ------------------------------------------------------------------ #
    def start_reader(self) -> threading.Thread:
        """Start the daemon thread pumping pipe messages onto the loop.

        Each message is queued as ``(message, received_at)``, stamped with
        the loop's ``time()`` when the pipe delivers it: one thread hop per
        frame, not per request.  The loop may be busy in a blocking engine
        call for a while before it handles a submit frame; its rows'
        deadlines still count from their arrival.
        """
        def pump() -> None:
            try:
                while True:
                    message = self.conn.recv()
                    self._loop.call_soon_threadsafe(
                        self._inbox.put_nowait, (message, self._now())
                    )
                    if message[0] == "shutdown":
                        return
            except (EOFError, OSError):
                self._loop.call_soon_threadsafe(
                    self._inbox.put_nowait, (("__eof__",), self._now())
                )

        thread = threading.Thread(
            target=pump, name=f"worker-{self.spec.name}-reader", daemon=True
        )
        thread.start()
        return thread

    # ------------------------------------------------------------------ #
    # outcomes -> pipe
    # ------------------------------------------------------------------ #
    def _on_outcome(
        self,
        replica_name: str,
        request: InferenceRequest,
        latency_s: float,
        batch_size: int,
        outcome: str,
    ) -> None:
        if self.tracer:
            span = self._request_spans.pop(request.request_id, None)
            if span is not None:
                self.tracer.end_span(span, attrs={"outcome": outcome})
        future = request.future
        if outcome == "ok":
            # the batcher reports a fused engine call's rows back to back,
            # batch_size of them: the last row completes the reply frame
            group = self._group
            group.append((request.request_id, future.result(), latency_s))
            if len(group) == batch_size:
                self._group = []
                request_ids, outputs, latencies = zip(*group)
                self.conn.send(
                    (
                        "result",
                        list(request_ids),
                        np.stack(outputs),
                        batch_size,
                        sum(latencies),
                        self._drain_spans(),
                    )
                )
            return
        if future.cancelled():
            error = ServerClosedError("request cancelled inside the worker")
        else:
            error = future.exception()
            if error is None:  # notified as expired/error but resolved: defensive
                error = ServerClosedError(f"request finished with outcome {outcome!r}")
        self._send_error(request.request_id, error, batch_size, latency_s)

    def _send_error(
        self, request_id: int, error: Exception, batch_size: int, latency_s: float
    ) -> None:
        self.conn.send(
            (
                "error",
                request_id,
                encode_exception(error),
                batch_size,
                latency_s,
                self._drain_spans(),
            )
        )

    def _drain_spans(self):
        # ship everything finished so far (request span trees plus any
        # batch/engine/SoC spans closed since the last reply); None untraced
        return self.tracer.drain() if self.tracer else None

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def _handle_submit(self, message, received_at: float) -> None:
        # every row of a frame is admitted under the frame's receive stamp
        for request_id, inputs, weights, deadline_s, trace_ctx in message[1]:
            depth = self.replica.depth
            if depth >= self.spec.max_queue_depth:
                # worker-side admission: the typed rejection crosses the pipe
                self._send_error(
                    request_id,
                    BackpressureError(
                        replica=self.spec.name,
                        depth=depth,
                        limit=self.spec.max_queue_depth,
                    ),
                    0,
                    0.0,
                )
                continue
            # Positional arguments, in field order, as the server builds it:
            # binding them by keyword costs about 0.5 us more (2-vCPU VM).
            # The gateway ships the *remaining* budget (loop times do not
            # cross processes); it is re-anchored on this process's loop
            # time at the moment the pipe delivered the frame.
            request = InferenceRequest(
                np.asarray(inputs),
                self._loop.create_future(),
                received_at,  # submitted_at
                weights,
                received_at + deadline_s if deadline_s is not None else None,  # deadline_at
                request_id,
            )
            if self.tracer and trace_ctx is not None:
                span = self.tracer.start_span(
                    "worker:request",
                    parent=unpack_trace(trace_ctx),
                    track="request",
                    attrs={"request_id": request_id, "worker": self.spec.name},
                )
                self._request_spans[request_id] = span
                request.trace = span
            self.replica.queue.put_nowait(request)

    def stats(self) -> Dict:
        """Worker-lifetime counters shipped back in the ``bye`` message."""
        engine_stats = self.engine.stats
        batcher_stats = self.replica.batcher.stats
        return {
            "engine": {
                "batches": engine_stats.batches,
                "columns": engine_stats.columns,
                "busy_s": engine_stats.busy_s,
                "compiles": engine_stats.compiles,
                "cache_hits": engine_stats.cache_hits,
            },
            "batcher": {
                "batches": batcher_stats.batches,
                "requests": batcher_stats.requests,
                "expired": batcher_stats.expired,
                "cancelled": batcher_stats.cancelled,
                "failed": batcher_stats.failed,
                "mean_batch": batcher_stats.mean_batch,
            },
        }

    async def serve(self) -> None:
        """Serve pipe messages until shutdown or gateway EOF."""
        self.replica.start()
        self.start_reader()
        # readiness handshake: engine built (and warm-started) — the
        # gateway holds traffic until every worker has reported in, so
        # spawn/import time never lands inside a measured traffic window
        self.conn.send(("ready", self.spec.name))
        while True:
            message, received_at = await self._inbox.get()
            kind = message[0]
            if kind == "submit":
                self._handle_submit(message, received_at)
            elif kind == "shutdown":
                drain = bool(message[1])
                if drain:
                    await self.replica.stop()
                else:
                    await self.replica.abort()
                stats = self.stats()
                if self.tracer:
                    # stragglers: spans finished after their request's
                    # result shipped (e.g. the fused batch span)
                    stats["spans"] = self.tracer.drain()
                self.conn.send(("bye", stats))
                return
            elif kind == "__eof__":
                # gateway died: nothing to report results to
                await self.replica.abort()
                return


async def _serve_worker(conn, spec: WorkerSpec) -> None:
    worker = WorkerReplica(conn, spec)
    await worker.serve()


def worker_main(conn, spec: WorkerSpec) -> None:
    """Spawned-process entry point: build the replica and serve the pipe."""
    try:
        asyncio.run(_serve_worker(conn, spec))
    finally:
        conn.close()
