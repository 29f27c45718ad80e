"""Multi-process serving fabric: gateway, worker processes, wire protocol.

The fabric scales the in-process serving stack past the one-interpreter
ceiling: an asyncio :class:`FabricGateway` multiplexes client futures onto
spawned worker processes (one engine + micro-batcher each, fed over
pickle-framed duplex pipes) using the same
:class:`~repro.serving.scheduler.ReplicaScheduler` policies, and speaks a
length-prefixed JSON/binary frame protocol over a local socket to remote
:class:`FabricClient` callers.  Typed serving errors cross every boundary
intact, per-worker RNG streams derive deterministically from one root seed,
and request priorities plus per-tenant admission quotas shape the queue at
the gateway.
"""

from repro.serving.fabric.client import FabricClient
from repro.serving.fabric.engines import (
    ComputeHeavyBackend,
    make_compute_heavy_engine,
    make_gemm_engine,
    make_soc_gemm_engine,
    resolve_factory,
)
from repro.serving.fabric.gateway import FabricGateway, WorkerHandle
from repro.serving.fabric.wire import (
    decode_exception,
    encode_exception,
    pack_arrays,
    pack_frame,
    pack_trace,
    read_frame,
    unpack_arrays,
    unpack_trace,
)
from repro.serving.fabric.worker import WorkerReplica, WorkerSpec, make_worker_specs

__all__ = [
    "ComputeHeavyBackend",
    "FabricClient",
    "FabricGateway",
    "WorkerHandle",
    "WorkerReplica",
    "WorkerSpec",
    "decode_exception",
    "encode_exception",
    "make_compute_heavy_engine",
    "make_gemm_engine",
    "make_soc_gemm_engine",
    "make_worker_specs",
    "pack_arrays",
    "pack_frame",
    "pack_trace",
    "read_frame",
    "resolve_factory",
    "unpack_arrays",
    "unpack_trace",
]
