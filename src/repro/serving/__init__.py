"""Inference serving runtime: queues, micro-batching, replicas, traffic.

The serving layer turns the reproduction's simulation stack into a runnable
service model: an asyncio front-end admits requests into bounded queues, a
dynamic micro-batcher fuses them into single ``apply_batch`` /
``backend.matmul`` calls (the vectorized hot paths), and a multi-replica
scheduler spreads traffic across engines — pure-backend GeMM, photonic MLP
forward passes, full cycle-accurate SoC offloads, or the event-driven
spiking network (:class:`~repro.serving.snn.SNNEngine`, with optional
online STDP between micro-batches).  Telemetry reports the SLO metrics
(p50/p95/p99 latency, throughput, queue depth, utilization), the load
generators replay seeded Poisson or bursty arrival traces, and
:class:`~repro.serving.resilience.FaultCampaignDriver` measures joint
latency/accuracy degradation under armed faults while traffic runs.
"""

from repro.serving.batching import InferenceRequest, MicroBatcher
from repro.serving.engine import (
    CompiledModel,
    GemmEngine,
    InferenceEngine,
    MLPEngine,
    SoCGemmEngine,
    weight_hash,
)
from repro.serving.errors import (
    BackpressureError,
    DeadlineExceededError,
    ProtocolError,
    ServerClosedError,
    ServingError,
    WorkerCrashedError,
)
from repro.serving.fabric import (
    ComputeHeavyBackend,
    FabricClient,
    FabricGateway,
    WorkerSpec,
    make_compute_heavy_engine,
    make_gemm_engine,
    make_soc_gemm_engine,
    make_worker_specs,
)
from repro.serving.loadgen import (
    LoadReport,
    bursty_arrival_times,
    make_column_workload,
    poisson_arrival_times,
    run_closed_loop,
    run_open_loop,
    spike_pattern_workload,
)
from repro.serving.resilience import (
    CampaignPoint,
    FaultCampaignCurve,
    FaultCampaignDriver,
    soc_fault_armer,
    synapse_fault_armer,
)
from repro.serving.scheduler import POLICIES, Replica, ReplicaScheduler
from repro.serving.server import InferenceServer
from repro.serving.snn import SNNEngine, run_patterns_serial
from repro.serving.telemetry import ServingTelemetry, TelemetryLog

__all__ = [
    "BackpressureError",
    "CampaignPoint",
    "CompiledModel",
    "ComputeHeavyBackend",
    "DeadlineExceededError",
    "FabricClient",
    "FabricGateway",
    "FaultCampaignCurve",
    "FaultCampaignDriver",
    "GemmEngine",
    "InferenceEngine",
    "InferenceRequest",
    "InferenceServer",
    "LoadReport",
    "MLPEngine",
    "MicroBatcher",
    "POLICIES",
    "ProtocolError",
    "Replica",
    "ReplicaScheduler",
    "SNNEngine",
    "ServerClosedError",
    "ServingError",
    "ServingTelemetry",
    "SoCGemmEngine",
    "TelemetryLog",
    "WorkerCrashedError",
    "WorkerSpec",
    "bursty_arrival_times",
    "make_column_workload",
    "make_compute_heavy_engine",
    "make_gemm_engine",
    "make_soc_gemm_engine",
    "make_worker_specs",
    "poisson_arrival_times",
    "run_closed_loop",
    "run_open_loop",
    "run_patterns_serial",
    "soc_fault_armer",
    "spike_pattern_workload",
    "synapse_fault_armer",
    "weight_hash",
]
