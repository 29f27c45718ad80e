"""Fault campaigns under live serving load: joint latency/accuracy curves.

The system-level fault machinery (:mod:`repro.system.faults`) classifies
*offline* workload runs.  NEUROPULS-style reliability analysis of a serving
deployment needs the same taxonomy measured *under traffic*: while a seeded
load generator replays requests against a replica, armed faults corrupt the
substrate (SoC structures, or the PCM crossbar itself), and every response
is classified against the fault-free golden output.  The result is a joint
degradation curve — p99 latency and spike-count accuracy versus fault
count — with one :class:`~repro.serving.telemetry.ServingTelemetry`
snapshot per sweep point, persisted through
:class:`~repro.serving.telemetry.TelemetryLog` so campaigns are queryable
trajectories like every other serving benchmark.

Reproducibility: the workload is a fixed seeded request factory (the same
columns at every sweep point, so accuracy is comparable across points), and
each point's fault draws use :func:`repro.utils.rng.derive_worker_seed` on
the campaign root seed — re-running a campaign replays identical faults.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.engine import InferenceEngine
from repro.serving.errors import DeadlineExceededError
from repro.serving.scheduler import Replica
from repro.serving.server import InferenceServer
from repro.serving.snn import SNNEngine
from repro.serving.telemetry import TelemetryLog, _jsonable
from repro.system.faults import OUTCOMES, FaultInjector, random_fault_spec
from repro.utils.rng import derive_worker_seed, ensure_rng

#: Signature of a fault armer: corrupt ``engine`` with ``n_faults`` faults
#: drawn from ``rng`` (arming may schedule injections or mutate state now).
FaultArmer = Callable[[InferenceEngine, int, np.random.Generator], None]


def synapse_fault_armer(
    engine: SNNEngine, n_faults: int, rng: np.random.Generator
) -> None:
    """Stuck-at faults on the PCM crossbar of a served spiking network.

    Each fault pins one randomly drawn synapse's crystalline fraction to a
    fully amorphous (0.0) or fully crystalline (1.0) state — the photonic
    analogue of a stuck-at bit.  The engine's :attr:`~repro.serving.snn.SNNEngine.learning_hash`
    is refreshed afterwards so the mutated crossbar versions the compiled
    cache key instead of cache-hitting stale state.
    """
    array = engine.network.synapse_array
    n_pre, n_post = array.shape
    for _ in range(max(0, int(n_faults))):
        pre = int(rng.integers(0, n_pre))
        post = int(rng.integers(0, n_post))
        array.fractions[pre, post] = float(rng.integers(0, 2))
    engine.refresh_learning_hash()


def soc_fault_armer(
    target: str = "scratchpad",
    fault_type: str = "transient",
    max_cycle: int = 2048,
    location_range: int = 256,
) -> FaultArmer:
    """Build an armer injecting microarchitectural faults into a served SoC.

    For engines exposing a ``soc`` attribute
    (:class:`~repro.serving.engine.SoCGemmEngine`): each fault is a
    :func:`~repro.system.faults.random_fault_spec` scheduled on the SoC's
    cycle scheduler, so injections land while serving traffic drives the
    offload datapath.
    """

    def armer(engine: InferenceEngine, n_faults: int, rng: np.random.Generator) -> None:
        soc = getattr(engine, "soc", None)
        if soc is None:
            raise ValueError("soc_fault_armer needs an engine with a bound SoC")
        for _ in range(max(0, int(n_faults))):
            spec = random_fault_spec(
                target, fault_type, max_cycle, rng=rng, location_range=location_range
            )
            FaultInjector(soc, spec).arm()

    return armer


@dataclass
class CampaignPoint:
    """One sweep point of a fault campaign under load.

    Attributes:
        n_faults: faults armed before serving this point's traffic.
        seed: the derived seed the fault draws used.
        accuracy: fraction of responses bitwise-equal to the golden output.
        p99_ms: end-to-end p99 latency of this point's traffic.
        outcomes: request histogram over the standard reliability taxonomy
            (masked / sdc / crash / hang).
        snapshot: the full labelled telemetry snapshot of the point.
    """

    n_faults: int
    seed: int
    accuracy: float
    p99_ms: float
    outcomes: Dict[str, int]
    snapshot: Dict = field(default_factory=dict)


@dataclass
class FaultCampaignCurve:
    """A fault-degradation curve: one :class:`CampaignPoint` per fault count."""

    points: List[CampaignPoint] = field(default_factory=list)

    @property
    def fault_counts(self) -> List[int]:
        """Fault counts of the sweep, in run order."""
        return [point.n_faults for point in self.points]

    @property
    def accuracies(self) -> List[float]:
        """Spike-count (or output) accuracy at each sweep point."""
        return [point.accuracy for point in self.points]

    @property
    def p99_ms(self) -> List[float]:
        """p99 latency in milliseconds at each sweep point."""
        return [point.p99_ms for point in self.points]

    def to_dict(self) -> Dict:
        """Plain-JSON form (the ``BENCH_throughput.json`` curve payload)."""
        return _jsonable(
            {
                "fault_counts": self.fault_counts,
                "accuracy": self.accuracies,
                "p99_ms": self.p99_ms,
                "outcomes": [point.outcomes for point in self.points],
            }
        )


class FaultCampaignDriver:
    """Sweeps fault counts against a serving replica under seeded load.

    Every sweep point builds a fresh engine (``engine_factory``), arms
    ``n_faults`` faults through the ``fault_armer`` with a seed derived
    from ``root_seed`` and the point index, then replays the same seeded
    request columns through a single-replica server and classifies each
    response against the fault-free golden outputs.

    Attributes:
        engine_factory: builds an identically-configured engine per point
            (fresh state, so faults never leak between points).
        fault_armer: the fault model (see :data:`FaultArmer`).
        make_request: seeded request factory; ``make_request(i)`` is the
            i-th input column (fixed across sweep points).
        n_requests: traffic volume per sweep point.
        fault_counts: the sweep (0 should come first: the golden point).
        root_seed: campaign seed; point ``k`` draws faults with
            ``derive_worker_seed(root_seed, k)``.
        max_batch: micro-batcher fuse bound of the serving replica.
        telemetry_log: optional JSONL sink; one labelled snapshot is
            appended per sweep point.
    """

    def __init__(
        self,
        engine_factory: Callable[[], InferenceEngine],
        fault_armer: FaultArmer,
        make_request: Callable[[int], np.ndarray],
        n_requests: int = 32,
        fault_counts: Sequence[int] = (0, 1, 2, 4, 8),
        root_seed: int = 0,
        max_batch: int = 16,
        telemetry_log: Optional[TelemetryLog] = None,
    ):
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not fault_counts:
            raise ValueError("fault_counts must be non-empty")
        self.engine_factory = engine_factory
        self.fault_armer = fault_armer
        self.make_request = make_request
        self.n_requests = int(n_requests)
        self.fault_counts = [int(count) for count in fault_counts]
        self.root_seed = int(root_seed)
        self.max_batch = int(max_batch)
        self.telemetry_log = telemetry_log

    def _golden_outputs(self) -> np.ndarray:
        """Fault-free reference outputs for the fixed request columns."""
        engine = self.engine_factory()
        columns = np.stack(
            [self.make_request(index) for index in range(self.n_requests)], axis=1
        )
        return np.asarray(engine.run_batch(None, columns))

    async def _run_point(
        self, index: int, n_faults: int, golden: np.ndarray
    ) -> CampaignPoint:
        """Serve one sweep point's traffic under ``n_faults`` armed faults."""
        seed = derive_worker_seed(self.root_seed, index)
        engine = self.engine_factory()
        self.fault_armer(engine, n_faults, ensure_rng(seed))
        replica = Replica(
            name=f"faults-{n_faults}",
            engine=engine,
            max_batch=self.max_batch,
            max_wait_s=0.0,
            max_queue_depth=self.n_requests,
        )
        outcomes = {outcome: 0 for outcome in OUTCOMES}
        async with InferenceServer([replica]) as server:
            # pre-queued submission: batch composition (and therefore any
            # learning-mode update order) depends only on request order
            futures = [
                server.submit_nowait(self.make_request(request))
                for request in range(self.n_requests)
            ]
            results = await asyncio.gather(*futures, return_exceptions=True)
            for request, result in enumerate(results):
                if isinstance(result, DeadlineExceededError):
                    outcomes["hang"] += 1
                elif isinstance(result, (Exception, asyncio.CancelledError)):
                    outcomes["crash"] += 1
                elif np.array_equal(np.asarray(result), golden[:, request]):
                    outcomes["masked"] += 1
                else:
                    outcomes["sdc"] += 1
            accuracy = outcomes["masked"] / self.n_requests
            snapshot = server.telemetry.to_snapshot(label=f"faults={n_faults}")
        snapshot["fault_campaign"] = {
            "n_faults": n_faults,
            "seed": seed,
            "accuracy": accuracy,
            "outcomes": dict(outcomes),
        }
        if isinstance(engine, SNNEngine):
            snapshot["snn"] = engine.snapshot()
        if self.telemetry_log is not None:
            self.telemetry_log.append(snapshot)
        return CampaignPoint(
            n_faults=n_faults,
            seed=seed,
            accuracy=accuracy,
            p99_ms=float(snapshot["latency"]["p99_ms"]),
            outcomes=outcomes,
            snapshot=snapshot,
        )

    async def run_async(self) -> FaultCampaignCurve:
        """Run the full sweep inside a running event loop."""
        golden = self._golden_outputs()
        curve = FaultCampaignCurve()
        for index, n_faults in enumerate(self.fault_counts):
            curve.points.append(await self._run_point(index, n_faults, golden))
        return curve

    def run(self) -> FaultCampaignCurve:
        """Run the full sweep (blocking convenience wrapper)."""
        return asyncio.run(self.run_async())
