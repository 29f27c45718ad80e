"""Typed exceptions of the serving runtime.

Every failure mode a client can observe has its own exception type so load
generators and callers can classify outcomes (rejected vs. expired vs.
failed) without string matching.
"""

from __future__ import annotations


class ServingError(RuntimeError):
    """Base class of all serving-runtime errors."""


class BackpressureError(ServingError):
    """Admission control rejected a request: every eligible queue is full.

    Attributes:
        replica: name of the replica whose bounded queue rejected the
            request (the last one tried).
        depth: queue depth observed at rejection time.
        limit: the queue bound.
    """

    def __init__(self, replica: str, depth: int, limit: int):
        self.replica = replica
        self.depth = int(depth)
        self.limit = int(limit)
        super().__init__(
            f"request rejected: queue of replica {replica!r} is full "
            f"({depth}/{limit}); retry later or raise max_queue_depth"
        )


class DeadlineExceededError(ServingError, TimeoutError):
    """The request's deadline passed before it was dispatched to an engine.

    Deadlines are enforced at dispatch time: an expired request is dropped
    from its micro-batch instead of wasting an engine slot.
    """

    def __init__(self, waited_s: float, deadline_s: float):
        self.waited_s = float(waited_s)
        self.deadline_s = float(deadline_s)
        super().__init__(
            f"request expired after waiting {waited_s * 1e3:.2f} ms "
            f"(deadline {deadline_s * 1e3:.2f} ms)"
        )


class ServerClosedError(ServingError):
    """The server is not accepting requests (not started, draining, or shut down)."""


class WorkerCrashedError(ServingError):
    """A fabric worker process exited while requests were outstanding.

    Raised for every request that was queued for — or in flight on — the
    crashed worker, and for new submissions when no live worker remains.
    The gateway detects the crash from the worker pipe's EOF, so a killed
    process surfaces as this typed error rather than a hung future.

    Attributes:
        worker: name of the crashed worker replica.
        detail: human-readable context (exit code, phase).
    """

    def __init__(self, worker: str, detail: str = "worker process exited"):
        self.worker = str(worker)
        self.detail = str(detail)
        super().__init__(f"worker {worker!r} crashed: {detail}")


class ProtocolError(ServingError, ValueError):
    """A socket frame could not be parsed.

    Raised for an oversized length prefix, a header that is not a JSON
    object, or array specs that do not describe the binary payload (unknown
    dtype, shape/nbytes mismatch, truncation), and for a submit that
    carries no input array.  The gateway answers it typed and closes only
    the offending connection: after a bad frame the stream cannot be
    trusted to resynchronise.
    """
