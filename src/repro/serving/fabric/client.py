"""Asyncio client for the gateway's wire protocol.

A :class:`FabricClient` speaks the length-prefixed JSON/binary frame
protocol of :mod:`repro.serving.fabric.wire` against a gateway's TCP front
door.  It multiplexes any number of concurrent requests over one
connection: each submit carries a client-side id, a single reader task
resolves the matching future when the gateway answers, and typed serving
errors (:class:`~repro.serving.errors.BackpressureError`,
:class:`~repro.serving.errors.DeadlineExceededError`,
:class:`~repro.serving.errors.WorkerCrashedError`, ...) are rebuilt as the
same exception type on this side of the socket.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

import numpy as np

from repro.serving.errors import ProtocolError, ServerClosedError
from repro.serving.fabric import wire


class FabricClient:
    """One multiplexed wire-protocol connection to a gateway front door."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._next_id = 0
        self._outstanding: Dict[int, asyncio.Future] = {}
        self._stats: Dict[int, asyncio.Future] = {}
        self._reader_task = asyncio.ensure_future(self._read_loop())
        self._closed = False

    @classmethod
    async def connect(cls, host: str, port: int) -> "FabricClient":
        """Open a connection to a gateway served by ``start_server``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                header, arrays = await wire.read_message(self._reader)
                kind = header.get("kind")
                client_id = header.get("id")
                if kind == "result":
                    future = self._outstanding.pop(client_id, None)
                    if future is not None and not future.done():
                        future.set_result(arrays[0])
                elif kind == "error":
                    error = wire.decode_exception(header["error"])
                    if client_id is None:
                        # the gateway refused a frame it could not attribute
                        # and is closing the connection: fail everything
                        self._fail_all(error)
                        continue
                    future = self._outstanding.pop(client_id, None)
                    if future is not None and not future.done():
                        future.set_exception(error)
                elif kind == "stats":
                    future = self._stats.pop(client_id, None)
                    if future is not None and not future.done():
                        future.set_result(header.get("stats", {}))
        except (asyncio.IncompleteReadError, ConnectionResetError, OSError):
            self._fail_all(ServerClosedError("gateway connection closed"))
        except ProtocolError as exc:
            self._fail_all(exc)
        except asyncio.CancelledError:
            self._fail_all(ServerClosedError("client closed"))
            raise

    def _fail_all(self, error: Exception) -> None:
        for future in list(self._outstanding.values()) + list(self._stats.values()):
            if not future.done():
                future.set_exception(error)
        self._outstanding.clear()
        self._stats.clear()

    async def _send(self, header: Dict, payload: bytes = b"") -> None:
        if self._closed:
            raise ServerClosedError("client is closed")
        async with self._write_lock:
            self._writer.write(wire.pack_frame(header, payload))
            await self._writer.drain()

    async def submit_nowait(
        self,
        inputs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
        worker: Optional[str] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
        trace=None,
    ) -> asyncio.Future:
        """Ship one request; returns the future resolving to the output column.

        The future raises the same typed exception the gateway would raise
        locally — admission rejections (quota/backpressure) arrive through
        the future rather than from this call, because they happen on the
        far side of the socket.

        ``trace`` ships a client-side trace context (a
        :class:`~repro.obs.trace.Span`/:class:`~repro.obs.trace.TraceContext`
        or its wire dictionary) in the submit header, so a tracing gateway
        parents its request span on the caller's.
        """
        client_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._outstanding[client_id] = future
        arrays = [np.asarray(inputs)]
        if weights is not None:
            arrays.append(np.asarray(weights))
        specs, payload = wire.pack_arrays(arrays)
        header = {"kind": "submit", "id": client_id, "arrays": specs}
        if deadline_s is not None:
            header["deadline_s"] = float(deadline_s)
        if worker is not None:
            header["worker"] = worker
        if priority:
            header["priority"] = int(priority)
        if tenant is not None:
            header["tenant"] = tenant
        if trace is not None:
            header["trace"] = wire.pack_trace(trace)
        try:
            await self._send(header, payload)
        except Exception:
            self._outstanding.pop(client_id, None)
            raise
        return future

    async def submit(
        self,
        inputs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        deadline_s: Optional[float] = None,
        worker: Optional[str] = None,
        priority: int = 0,
        tenant: Optional[str] = None,
        trace=None,
    ) -> np.ndarray:
        """Ship one request and await its output column."""
        future = await self.submit_nowait(
            inputs,
            weights=weights,
            deadline_s=deadline_s,
            worker=worker,
            priority=priority,
            tenant=tenant,
            trace=trace,
        )
        return await future

    async def stats(self) -> Dict:
        """Fetch the gateway's :meth:`FabricGateway.stats` snapshot."""
        client_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._stats[client_id] = future
        await self._send({"kind": "stats", "id": client_id})
        return await future

    async def close(self) -> None:
        """Close the connection; outstanding futures fail as server-closed."""
        if self._closed:
            return
        self._closed = True
        try:
            async with self._write_lock:
                self._writer.write(wire.pack_frame({"kind": "close"}))
                await self._writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def __aenter__(self) -> "FabricClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
