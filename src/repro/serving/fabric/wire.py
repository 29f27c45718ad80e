"""Wire protocol of the serving fabric: framing, arrays, typed errors.

Two different transports cross process boundaries in the fabric, and both
are defined here:

* **Client <-> gateway** — length-prefixed frames over a local TCP
  socket: a fixed ``!II`` prefix (JSON header length, binary payload
  length), a UTF-8 JSON header describing the message, and a raw binary
  payload holding any ndarrays back-to-back.  Arrays are described in the
  header (``dtype``/``shape``/``nbytes``) and sliced out of the payload
  without any base64/pickle round-trip.
* **Gateway <-> worker** — pickle-framed duplex pipes
  (``multiprocessing.Pipe``), the same plumbing the
  :mod:`repro.eval.sweeps` process pool already relies on.  Messages are
  plain tuples: a ``("submit", rows)`` frame carries every request
  dispatched in one gateway loop tick, and a ``("result", ...)`` frame
  answers one fused engine call (see
  :mod:`repro.serving.fabric.gateway`).  Only this module's
  :func:`encode_exception` / :func:`decode_exception` dictionaries and
  ndarrays cross the pipe, so every message stays picklable by
  construction.

Socket input comes from outside the program, so :func:`read_message`
reads, checks and decodes a frame in one guarded step that raises the
typed :class:`~repro.serving.errors.ProtocolError` for anything
malformed.

Typed errors must survive both transports: an exception is flattened to a
JSON-safe dictionary and rebuilt as the *same* exception type on the far
side, so a caller's ``except BackpressureError`` works identically against
an in-process server, a worker pipe, and a remote gateway socket.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    ProtocolError,
    ServerClosedError,
    ServingError,
    WorkerCrashedError,
)
from repro.system.faults import EmptyCampaignError

#: frame prefix: (header_bytes, payload_bytes) lengths, network byte order.
FRAME_PREFIX = struct.Struct("!II")

#: refuse to read frames beyond this (corrupt-stream guard, not a quota).
MAX_FRAME_BYTES = 256 * 1024 * 1024


# --------------------------------------------------------------------- #
# ndarray <-> (spec, bytes)
# --------------------------------------------------------------------- #
def pack_arrays(arrays: Sequence[Optional[np.ndarray]]) -> Tuple[List, bytes]:
    """Flatten arrays into (specs, payload) for one frame.

    ``None`` entries are preserved (spec ``None``), so optional fields like
    a request's explicit weights keep their position.
    """
    specs: List = []
    chunks: List[bytes] = []
    for array in arrays:
        if array is None:
            specs.append(None)
            continue
        array = np.ascontiguousarray(array)
        data = array.tobytes()
        specs.append(
            {"dtype": array.dtype.str, "shape": list(array.shape), "nbytes": len(data)}
        )
        chunks.append(data)
    return specs, b"".join(chunks)


def unpack_arrays(specs: Sequence, payload: bytes) -> List[Optional[np.ndarray]]:
    """Rebuild the arrays a frame header describes from its binary payload."""
    arrays: List[Optional[np.ndarray]] = []
    offset = 0
    for spec in specs:
        if spec is None:
            arrays.append(None)
            continue
        nbytes = int(spec["nbytes"])
        chunk = payload[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise ProtocolError(
                f"frame payload truncated: expected {nbytes} bytes at offset "
                f"{offset}, got {len(chunk)}"
            )
        arrays.append(
            np.frombuffer(chunk, dtype=np.dtype(spec["dtype"]))
            .reshape(tuple(spec["shape"]))
            .copy()
        )
        offset += nbytes
    return arrays


# --------------------------------------------------------------------- #
# frames
# --------------------------------------------------------------------- #
def pack_frame(header: Dict, payload: bytes = b"") -> bytes:
    """Serialize one frame: ``!II`` prefix + JSON header + binary payload."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return FRAME_PREFIX.pack(len(header_bytes), len(payload)) + header_bytes + payload


async def read_frame(reader: asyncio.StreamReader) -> Tuple[Dict, bytes]:
    """Read one frame from an asyncio stream; raises ``IncompleteReadError`` at EOF."""
    prefix = await reader.readexactly(FRAME_PREFIX.size)
    header_len, payload_len = FRAME_PREFIX.unpack(prefix)
    if header_len + payload_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing oversized frame ({header_len + payload_len} bytes > "
            f"{MAX_FRAME_BYTES}); stream is corrupt or hostile"
        )
    header = json.loads((await reader.readexactly(header_len)).decode("utf-8"))
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


async def read_message(
    reader: asyncio.StreamReader,
) -> Tuple[Dict, List[Optional[np.ndarray]]]:
    """Read one frame and decode its arrays in one guarded step.

    Returns ``(header, arrays)``.  Raises ``IncompleteReadError`` at EOF and
    :class:`~repro.serving.errors.ProtocolError` for anything malformed:
    an oversized length prefix, a header that is not valid JSON or not an
    object, or array specs that do not describe the payload.
    """
    try:
        header, payload = await read_frame(reader)
        if not isinstance(header, dict):
            raise ProtocolError(
                f"frame header must be a JSON object, got {type(header).__name__}"
            )
        return header, unpack_arrays(header.get("arrays", []), payload)
    except ProtocolError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise ProtocolError(f"malformed frame: {type(exc).__name__}: {exc}") from exc


# --------------------------------------------------------------------- #
# trace context across process boundaries
# --------------------------------------------------------------------- #
def pack_trace(trace) -> Optional[Dict]:
    """Flatten a span/trace context into a JSON-safe wire dictionary.

    Accepts a :class:`~repro.obs.trace.Span`, a
    :class:`~repro.obs.trace.TraceContext`, an already-flattened
    dictionary, or ``None`` (tracing off) — whatever the near side holds.
    The wire form is the two-field context dictionary, which both the
    socket JSON header and the pickle pipes carry unchanged.
    """
    if trace is None:
        return None
    if isinstance(trace, dict):
        return {"trace_id": str(trace["trace_id"]), "span_id": str(trace["span_id"])}
    context = getattr(trace, "context", trace)
    return {"trace_id": context.trace_id, "span_id": context.span_id}


def unpack_trace(payload: Optional[Dict]):
    """Rebuild a :class:`~repro.obs.trace.TraceContext` from its wire form.

    ``None`` (or a header with no trace field) passes through as ``None``
    so untraced requests cost nothing on the far side.
    """
    if payload is None:
        return None
    from repro.obs.trace import TraceContext

    return TraceContext.from_dict(payload)


# --------------------------------------------------------------------- #
# typed errors across process boundaries
# --------------------------------------------------------------------- #
def encode_exception(exc: BaseException) -> Dict:
    """Flatten an exception into a JSON-safe dictionary (see :func:`decode_exception`)."""
    if isinstance(exc, BackpressureError):
        return {
            "kind": "backpressure",
            "replica": exc.replica,
            "depth": exc.depth,
            "limit": exc.limit,
        }
    if isinstance(exc, DeadlineExceededError):
        return {
            "kind": "deadline",
            "waited_s": exc.waited_s,
            "deadline_s": exc.deadline_s,
        }
    if isinstance(exc, WorkerCrashedError):
        return {"kind": "worker-crashed", "worker": exc.worker, "detail": exc.detail}
    if isinstance(exc, EmptyCampaignError):
        # fault-campaign rates queried remotely: keep the type so callers
        # can distinguish "no runs yet" from a genuine serving failure
        return {"kind": "empty-campaign", "message": str(exc)}
    if isinstance(exc, ServerClosedError):
        return {"kind": "server-closed", "message": str(exc)}
    if isinstance(exc, ProtocolError):
        return {"kind": "protocol", "message": str(exc)}
    if isinstance(exc, ServingError):
        return {"kind": "serving", "message": str(exc)}
    return {"kind": "generic", "type": type(exc).__name__, "message": str(exc)}


def decode_exception(payload: Dict) -> Exception:
    """Rebuild the typed exception :func:`encode_exception` flattened.

    Unknown kinds degrade to :class:`ServingError` with the original type
    name preserved in the message — never a silent ``KeyError`` while
    handling someone else's failure.
    """
    kind = payload.get("kind")
    if kind == "backpressure":
        return BackpressureError(
            replica=payload["replica"], depth=payload["depth"], limit=payload["limit"]
        )
    if kind == "deadline":
        return DeadlineExceededError(
            waited_s=payload["waited_s"], deadline_s=payload["deadline_s"]
        )
    if kind == "worker-crashed":
        return WorkerCrashedError(worker=payload["worker"], detail=payload["detail"])
    if kind == "empty-campaign":
        return EmptyCampaignError(payload.get("message", "empty campaign"))
    if kind == "server-closed":
        return ServerClosedError(payload.get("message", "server closed"))
    if kind == "protocol":
        return ProtocolError(payload.get("message", "malformed frame"))
    if kind == "serving":
        return ServingError(payload.get("message", "serving error"))
    type_name = payload.get("type", "Exception")
    message = payload.get("message", "")
    return ServingError(f"{type_name}: {message}")
