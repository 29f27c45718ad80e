"""Serving telemetry: latency percentiles, throughput, queue depth, utilization.

One :class:`ServingTelemetry` instance observes a whole server, and every
figure it keeps is an instrument of its one
:class:`~repro.obs.metrics.MetricsRegistry`, ``telemetry.metrics``: per
replica the outcome counters ``serving.<replica>.{completed, expired,
cancelled, failed, batches, fused_requests}`` and the latency sketch
``serving.<replica>.latency_s``; pool-wide ``serving.submitted``,
``serving.rejected`` and the exact queue-depth sample sum and maximum
(``serving.queue_depth.{sum,max}``).  A fabric gateway merges its workers'
engine and batcher counters into the same registry when they shut down.
``summary()`` returns the SLO dictionary the traffic benchmarks persist;
``report()`` renders it through :mod:`repro.eval.reporting` so serving
numbers print in the same style as the paper-experiment tables.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.eval.reporting import format_dict, format_table
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving.timebase import loop_time


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _latency_summary(latencies: Histogram) -> Dict[str, float]:
    """Count/mean/p50/p95/p99 in milliseconds (SLO form); zeros when empty."""
    count = latencies.count
    return {
        "count": count,
        "mean_ms": latencies.sum / count * 1e3 if count else 0.0,
        "p50_ms": latencies.quantile(0.50) * 1e3,
        "p95_ms": latencies.quantile(0.95) * 1e3,
        "p99_ms": latencies.quantile(0.99) * 1e3,
    }


class ReplicaTelemetry:
    """One replica's instruments in the telemetry registry.

    The hooks add to the held instruments' ``value`` directly: no name
    lookup and no ``inc()`` call per request (every amount is non-negative).
    """

    __slots__ = (
        "completed", "expired", "cancelled", "failed", "batches", "fused_requests",
        "latencies",
    )

    def __init__(self, metrics: MetricsRegistry, name: str):
        prefix = f"serving.{name}."
        for counter in self.__slots__[:-1]:
            setattr(self, counter, metrics.counter(prefix + counter))
        self.latencies = metrics.histogram(prefix + "latency_s")


class ServingTelemetry:
    """Aggregated serving metrics for one server lifetime.

    Every statistic covers the whole lifetime, in memory that does not grow
    with traffic, and lives in :attr:`metrics`.
    Each replica's latencies go into one :class:`~repro.obs.metrics.Histogram`
    sketch, and the server-wide latency block is the merge of those
    sketches, so percentiles are within
    :data:`~repro.obs.metrics.RELATIVE_ACCURACY` of the exact lower-rank
    order statistic.  Counters (``submitted``, ``rejected``, per-replica
    outcomes) and the queue-depth mean and maximum are exact.

    Attributes:
        metrics: the registry holding every instrument (names in the
            module docstring).
        rejected: requests refused by admission control (backpressure).
        submitted: admitted requests; also the number of pool-depth samples
            (one per admission) behind :meth:`mean_queue_depth`.
        replicas: per-replica slices, created when a server attaches the
            replica (or at its first event, for telemetry fed directly).
    """

    def __init__(self):
        # the constructing loop's time(); start() rebinds to the serving loop
        self._now = loop_time()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.metrics = MetricsRegistry()
        self._submitted = self.metrics.counter("serving.submitted")
        self._rejected = self.metrics.counter("serving.rejected")
        self._depth_sum = self.metrics.counter("serving.queue_depth.sum")
        self._depth_max = self.metrics.gauge("serving.queue_depth.max")
        self.replicas: Dict[str, ReplicaTelemetry] = {}

    # ------------------------------------------------------------------ #
    # event hooks (wired by the server)
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Open (or resume) the lifetime window rates are computed over."""
        self._now = loop_time()
        if self.started_at is None:
            self.started_at = self._now()
        # a restart after shutdown resumes the lifetime window; a frozen
        # stopped_at would silently corrupt throughput/utilization rates
        self.stopped_at = None

    def stop(self) -> None:
        """Freeze the lifetime window at the current time."""
        self.stopped_at = self._now()

    def replica_slice(self, name: str) -> ReplicaTelemetry:
        """The slice of replica ``name``, created on first use."""
        slice_ = self.replicas.get(name)
        if slice_ is None:
            slice_ = self.replicas[name] = ReplicaTelemetry(self.metrics, name)
        return slice_

    def on_admit(self, replica_name: str, pool_depth: int) -> None:
        """Count an admitted request and sample the pool queue depth."""
        self._submitted.value += 1
        self._depth_sum.value += pool_depth
        if pool_depth > self._depth_max.value:
            self._depth_max.value = pool_depth
        # a server's replicas have their slices since attach; telemetry fed
        # directly still lists a replica admitted but never served
        if replica_name not in self.replicas:
            self.replica_slice(replica_name)

    def on_reject(self) -> None:
        """Count a request refused by admission control."""
        self._rejected.value += 1

    def on_result(
        self, replica_name: str, latency_s: float, batch_size: int, outcome: str
    ) -> None:
        """Per-request outcome hook, called by the replica for every request."""
        slice_ = self.replicas.get(replica_name) or self.replica_slice(replica_name)
        if outcome == "ok":
            slice_.completed.value += 1
            # a non-finite latency must never poison the latency sketch
            if math.isfinite(latency_s):
                slice_.latencies.observe(latency_s)
        elif outcome == "expired":
            slice_.expired.value += 1
        elif outcome == "cancelled":
            slice_.cancelled.value += 1
        else:
            slice_.failed.value += 1

    def on_batch(self, replica_name: str, batch_size: int) -> None:
        """Record one fused engine batch of ``batch_size`` requests."""
        slice_ = self.replicas.get(replica_name) or self.replica_slice(replica_name)
        slice_.batches.value += 1
        slice_.fused_requests.value += batch_size

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def submitted(self) -> int:
        """Admitted requests (one pool-depth sample each)."""
        return int(self._submitted.value)

    @property
    def rejected(self) -> int:
        """Requests refused by admission control."""
        return int(self._rejected.value)

    @property
    def completed(self) -> int:
        """Total requests completed successfully, across all replicas."""
        return sum(int(slice_.completed.value) for slice_ in self.replicas.values())

    @property
    def expired(self) -> int:
        """Total requests expired past their deadline, across all replicas."""
        return sum(int(slice_.expired.value) for slice_ in self.replicas.values())

    def elapsed_s(self) -> float:
        """Seconds of server lifetime (live-reading until stopped)."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self._now()
        return max(end - self.started_at, 0.0)

    def throughput_hz(self) -> float:
        """Completed requests per second of server lifetime."""
        elapsed = self.elapsed_s()
        return self.completed / elapsed if elapsed > 0 else 0.0

    def max_queue_depth(self) -> int:
        """All-time maximum admitted pool depth."""
        return int(self._depth_max.value)

    def mean_queue_depth(self) -> float:
        """All-time mean admitted pool depth; 0.0 before any admission."""
        submitted = self._submitted.value
        return self._depth_sum.value / submitted if submitted else 0.0

    def utilization(self, replica_busy_s: Dict[str, float]) -> Dict[str, float]:
        """Per-replica engine-busy fraction of the server lifetime.

        A zero-lifetime window (server never started, or stopped at the
        instant it started) yields 0.0 utilization rather than a
        ZeroDivisionError; busy fractions are clamped to [0, 1].
        """
        elapsed = self.elapsed_s()
        if elapsed <= 0:
            return {name: 0.0 for name in replica_busy_s}
        return {
            name: min(max(busy, 0.0) / elapsed, 1.0)
            for name, busy in replica_busy_s.items()
        }

    def summary(self) -> Dict:
        """The SLO dictionary persisted by the traffic benchmarks."""
        latencies = Histogram("latency_s")
        for slice_ in self.replicas.values():
            latencies.merge(slice_.latencies.snapshot())
        return {
            "elapsed_s": self.elapsed_s(),
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "throughput_hz": self.throughput_hz(),
            "latency": _latency_summary(latencies),
            "queue_depth": {
                "max": self.max_queue_depth(),
                "mean": self.mean_queue_depth(),
            },
            "replicas": {
                name: self._replica_summary(slice_)
                for name, slice_ in sorted(self.replicas.items())
            },
        }

    @staticmethod
    def _replica_summary(slice_: ReplicaTelemetry) -> Dict:
        batches = int(slice_.batches.value)
        return {
            "completed": int(slice_.completed.value),
            "expired": int(slice_.expired.value),
            "cancelled": int(slice_.cancelled.value),
            "failed": int(slice_.failed.value),
            "batches": batches,
            "mean_batch": int(slice_.fused_requests.value) / batches if batches else 0.0,
            "p50_ms": slice_.latencies.quantile(0.50) * 1e3,
            "p99_ms": slice_.latencies.quantile(0.99) * 1e3,
        }

    def to_snapshot(self, label: Optional[str] = None) -> Dict:
        """One queryable point of a telemetry trajectory (plain JSON types).

        The snapshot is the full :meth:`summary` dictionary stamped with
        the capture time (``captured_at``, loop time) and an
        optional ``label`` (e.g. the offered load of the sweep point that
        produced it).  Everything is coerced to plain JSON scalars, so
        snapshots round-trip through :class:`TelemetryLog` unchanged —
        load tests persist one snapshot per measurement and become
        queryable trajectories instead of one-shot reports.
        """
        snapshot = _jsonable(self.summary())
        snapshot["captured_at"] = float(self._now())
        if label is not None:
            snapshot["label"] = str(label)
        return snapshot

    def report(self, title: str = "serving telemetry") -> str:
        """Render the summary through the shared eval reporting helpers."""
        summary = self.summary()
        headline = {
            key: value
            for key, value in summary.items()
            if key not in ("latency", "queue_depth", "replicas")
        }
        headline.update({f"latency_{k}": v for k, v in summary["latency"].items()})
        headline.update({f"queue_{k}": v for k, v in summary["queue_depth"].items()})
        blocks = [format_dict(title, headline)]
        replicas = summary["replicas"]
        if replicas:
            headers = [
                "replica", "completed", "expired", "batches", "mean_batch",
                "p50_ms", "p99_ms",
            ]
            rows = [
                [
                    name,
                    stats["completed"],
                    stats["expired"],
                    stats["batches"],
                    stats["mean_batch"],
                    stats["p50_ms"],
                    stats["p99_ms"],
                ]
                for name, stats in replicas.items()
            ]
            blocks.append(format_table(headers, rows))
        return "\n\n".join(blocks)


class TelemetryLog:
    """Append-only JSONL persistence for telemetry snapshots.

    One snapshot per line, so long load tests stream their trajectory to
    disk without rewriting the file, and analysis tooling reads it back
    with one ``json.loads`` per line.  The log is deliberately dumb —
    no rotation, no schema — matching how the benchmark trajectories in
    ``BENCH_throughput.json`` are consumed.

    Attributes:
        path: the JSONL file (parent directories are created on first
            append).
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def append(self, snapshot: Dict) -> None:
        """Append one snapshot (anything JSON-serializable) as a line.

        The encoded line goes to disk in a single ``os.write`` on an
        ``O_APPEND`` descriptor, so concurrent appenders (fabric worker
        processes sharing one log) never interleave partial lines — the
        worst possible corruption is a torn *trailing* line from a killed
        process, which :meth:`read_all` tolerates.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = (json.dumps(_jsonable(snapshot), sort_keys=True) + "\n").encode("utf-8")
        fd = os.open(str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def read(self) -> List[Dict]:
        """All snapshots in append order ([] for a missing/empty file).

        Strict: raises ``json.JSONDecodeError`` on any corrupt line.  Use
        :meth:`read_all` when analysing logs that may have a torn tail.
        """
        if not self.path.exists():
            return []
        snapshots = []
        with self.path.open("r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    snapshots.append(json.loads(line))
        return snapshots

    def read_all(
        self, return_errors: bool = False
    ) -> Union[List[Dict], Tuple[List[Dict], List[Tuple[int, str]]]]:
        """All parseable snapshots, skipping corrupt lines instead of raising.

        A process killed mid-append can leave a torn trailing line; this
        reader keeps every line that parses and skips the rest.  With
        ``return_errors=True`` it also returns ``(line_number, message)``
        pairs (1-based) describing each skipped line, so analysis can
        report corruption without dying on it.
        """
        snapshots: List[Dict] = []
        errors: List[Tuple[int, str]] = []
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as stream:
                for number, line in enumerate(stream, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        snapshots.append(json.loads(line))
                    except json.JSONDecodeError as exc:
                        errors.append((number, str(exc)))
        if return_errors:
            return snapshots, errors
        return snapshots

    def __len__(self) -> int:
        return len(self.read())
