"""Open- and closed-loop load generation for the serving runtime.

Arrival traces are generated up front from a seeded
:mod:`repro.utils.rng` generator, so every traffic experiment is
reproducible: the same seed yields the same arrival times and the same
input vectors, independent of wall-clock jitter during replay.

* :func:`poisson_arrival_times` — memoryless open-loop traffic at a fixed
  offered rate (the M/*/k textbook case).
* :func:`bursty_arrival_times` — a two-state (ON/OFF) modulated Poisson
  process: bursts at ``burst_factor`` times the base rate separated by
  quiet gaps, holding the long-run offered rate at ``rate_hz``.
* :func:`run_open_loop` — replay a trace against a server regardless of
  completions (offered load is fixed; overload shows up as queueing,
  latency, and backpressure rejections).
* :func:`run_closed_loop` — ``n_clients`` synchronous clients, each
  submitting its next request only after the previous one completes
  (throughput is admission-limited; classic saturation measurement).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.serving.errors import BackpressureError, DeadlineExceededError
from repro.serving.server import InferenceServer
from repro.serving.timebase import loop_time
from repro.utils.rng import RngLike, ensure_rng


def poisson_arrival_times(rate_hz: float, n_requests: int, rng: RngLike = 0) -> np.ndarray:
    """Cumulative arrival times of a Poisson process at ``rate_hz``."""
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    generator = ensure_rng(rng)
    gaps = generator.exponential(1.0 / rate_hz, size=n_requests)
    return np.cumsum(gaps)


def bursty_arrival_times(
    rate_hz: float,
    n_requests: int,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.25,
    rng: RngLike = 0,
) -> np.ndarray:
    """ON/OFF-modulated Poisson arrivals with long-run rate ``rate_hz``.

    A fraction ``burst_fraction`` of requests arrive in the ON state at
    ``burst_factor * rate_hz``; the rest arrive in the OFF state at the
    complementary rate chosen so the overall mean inter-arrival time stays
    ``1 / rate_hz``.  State runs have geometric length (mean 8 requests), so
    traces show sustained bursts rather than isolated fast arrivals.
    """
    if rate_hz <= 0 or burst_factor <= 1 or not 0 < burst_fraction < 1:
        raise ValueError(
            "need rate_hz > 0, burst_factor > 1 and 0 < burst_fraction < 1"
        )
    generator = ensure_rng(rng)
    burst_rate = burst_factor * rate_hz
    # solve E[gap] = f/burst_rate + (1-f)/off_rate = 1/rate_hz for off_rate
    off_gap = (1.0 / rate_hz - burst_fraction / burst_rate) / (1.0 - burst_fraction)
    off_rate = 1.0 / off_gap
    mean_run = 8.0
    gaps = np.empty(n_requests)
    in_burst = bool(generator.random() < burst_fraction)
    for index in range(n_requests):
        gaps[index] = generator.exponential(
            1.0 / burst_rate if in_burst else 1.0 / off_rate
        )
        if generator.random() < 1.0 / mean_run:
            # leave the current state; bias re-entry so the long-run
            # fraction of burst-state requests stays burst_fraction
            in_burst = bool(generator.random() < burst_fraction)
    return np.cumsum(gaps)


def make_column_workload(
    n_inputs: int, n_requests: int, rng: RngLike = 0
) -> Callable[[int], np.ndarray]:
    """Seeded request factory: ``factory(i)`` is the i-th input column."""
    generator = ensure_rng(rng)
    columns = generator.normal(size=(int(n_requests), int(n_inputs)))

    def factory(index: int) -> np.ndarray:
        return columns[index % len(columns)]

    return factory


def spike_pattern_workload(
    n_inputs: int,
    n_requests: int,
    active_fraction: float = 0.4,
    rng: RngLike = 0,
) -> Callable[[int], np.ndarray]:
    """Seeded spike-pattern request factory for the SNN serving path.

    ``factory(i)`` is the i-th normalised ``(n_inputs,)`` value vector in
    [0, 1]: roughly ``active_fraction`` of the channels are active with a
    strong (0.6-1.0) drive, the rest carry weak (0-0.15) background — the
    sparse binary-ish patterns STDP experiments train on, as request
    traffic.  The same seed pins the same patterns, mirroring
    :func:`make_column_workload` for the dense engines.
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError("active_fraction must be in (0, 1]")
    generator = ensure_rng(rng)
    n_requests = int(n_requests)
    n_inputs = int(n_inputs)
    active = generator.random(size=(n_requests, n_inputs)) < active_fraction
    strong = generator.uniform(0.6, 1.0, size=(n_requests, n_inputs))
    weak = generator.uniform(0.0, 0.15, size=(n_requests, n_inputs))
    patterns = np.where(active, strong, weak)

    def factory(index: int) -> np.ndarray:
        return patterns[index % len(patterns)]

    return factory


@dataclass
class LoadReport:
    """Outcome of one load-generation run.

    Attributes:
        offered_rate_hz: the trace's nominal arrival rate (0 for closed loop).
        n_requests: requests the generator attempted to submit.
        completed / rejected / expired / failed: final request outcomes
            (``rejected`` = never admitted; each request counts once).
        retries: closed-loop admission retry attempts (backpressure spins
            for requests that were eventually admitted) — not an outcome.
        duration_s: wall time from first submission to last completion.
        achieved_hz: completed requests per second of run duration.
        telemetry: the server's telemetry summary captured at run end.
    """

    offered_rate_hz: float
    n_requests: int
    completed: int = 0
    rejected: int = 0
    expired: int = 0
    failed: int = 0
    retries: int = 0
    duration_s: float = 0.0
    telemetry: Dict = field(default_factory=dict)

    @property
    def achieved_hz(self) -> float:
        """Completed requests per second of wall-clock run duration."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def goodput_fraction(self) -> float:
        """Completed fraction of offered requests."""
        return self.completed / self.n_requests if self.n_requests else 0.0


def _classify(report: LoadReport, results) -> None:
    for result in results:
        if isinstance(result, DeadlineExceededError):
            report.expired += 1
        elif isinstance(result, (Exception, asyncio.CancelledError)):
            report.failed += 1
        else:
            report.completed += 1


async def run_open_loop(
    server: InferenceServer,
    arrival_times: np.ndarray,
    make_request: Callable[[int], np.ndarray],
    weights: Optional[np.ndarray] = None,
    deadline_s: Optional[float] = None,
    offered_rate_hz: Optional[float] = None,
) -> LoadReport:
    """Replay an arrival trace open-loop against a running server.

    Submissions happen at trace time regardless of completions; requests
    rejected by admission control are counted, not retried.
    """
    arrival_times = np.asarray(arrival_times, dtype=float)
    n_requests = arrival_times.size
    if offered_rate_hz is None:
        span = float(arrival_times[-1]) if n_requests else 0.0
        offered_rate_hz = n_requests / span if span > 0 else 0.0
    report = LoadReport(offered_rate_hz=float(offered_rate_hz), n_requests=n_requests)
    now = loop_time()
    start = now()
    futures = []
    for index, arrival in enumerate(arrival_times):
        delay = (start + float(arrival)) - now()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            futures.append(
                server.submit_nowait(
                    make_request(index), weights=weights, deadline_s=deadline_s
                )
            )
        except BackpressureError:
            report.rejected += 1
    results = await asyncio.gather(*futures, return_exceptions=True)
    report.duration_s = now() - start
    _classify(report, results)
    report.telemetry = server.stats()
    return report


async def run_closed_loop(
    server: InferenceServer,
    n_clients: int,
    requests_per_client: int,
    make_request: Callable[[int], np.ndarray],
    weights: Optional[np.ndarray] = None,
    deadline_s: Optional[float] = None,
) -> LoadReport:
    """Drive the server with ``n_clients`` back-to-back synchronous clients.

    Each client submits its next request only after the previous answer
    arrives, so the concurrency level is exactly ``n_clients`` and measured
    throughput is the saturation throughput at that level.  A client that is
    rejected by admission control yields once and retries the same request;
    retry attempts are counted in ``LoadReport.retries``, not ``rejected``
    (every closed-loop request is eventually admitted).
    """
    if n_clients < 1 or requests_per_client < 1:
        raise ValueError("need at least one client and one request per client")
    n_requests = n_clients * requests_per_client
    report = LoadReport(offered_rate_hz=0.0, n_requests=n_requests)
    now = loop_time()
    start = now()

    async def client(client_index: int) -> list:
        outcomes = []
        for sequence in range(requests_per_client):
            index = client_index * requests_per_client + sequence
            while True:
                try:
                    future = server.submit_nowait(
                        make_request(index), weights=weights, deadline_s=deadline_s
                    )
                except BackpressureError:
                    report.retries += 1
                    await asyncio.sleep(0)
                    continue
                break
            try:
                outcomes.append(await future)
            except Exception as exc:  # noqa: BLE001 - classified below
                outcomes.append(exc)
        return outcomes

    per_client = await asyncio.gather(
        *(client(index) for index in range(n_clients))
    )
    report.duration_s = now() - start
    for outcomes in per_client:
        _classify(report, outcomes)
    report.telemetry = server.stats()
    return report
