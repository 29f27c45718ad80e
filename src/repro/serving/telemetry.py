"""Serving telemetry: latency percentiles, throughput, queue depth, utilization.

One :class:`ServingTelemetry` instance observes a whole server: every
admission samples queue depth, every completion records end-to-end latency
(queue wait + batching wait + engine service), and rejections/expiries are
counted by outcome.  ``summary()`` returns the SLO dictionary the traffic
benchmarks persist; ``report()`` renders it through
:mod:`repro.eval.reporting` so serving numbers print in the same style as
the paper-experiment tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.eval.reporting import format_dict, format_table
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


class BoundedSeries:
    """A numeric series retaining only the most recent ``max_samples``.

    Long-lived servers record one value per request; a ring buffer keeps
    memory O(1) in traffic while percentiles/means stay exact over the
    retained window.  ``total`` counts every value ever recorded.
    """

    def __init__(self, max_samples: int = 100_000):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = int(max_samples)
        self.total = 0
        self._values: List[float] = []
        self._cursor = 0

    def add(self, value: float) -> None:
        """Record one value, evicting the oldest once the ring is full."""
        self.total += 1
        if len(self._values) < self.max_samples:
            self._values.append(float(value))
        else:
            self._values[self._cursor] = float(value)
            self._cursor = (self._cursor + 1) % self.max_samples

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """The retained window as a float array (oldest eviction order)."""
        return np.asarray(self._values, dtype=float)

    def max(self) -> float:
        """Maximum over the retained window; 0.0 when empty."""
        return float(np.max(self.values)) if self._values else 0.0

    def mean(self) -> float:
        """Mean over the retained window; 0.0 when empty."""
        return float(np.mean(self.values)) if self._values else 0.0


class LatencySeries(BoundedSeries):
    """Latency samples with percentile accessors (over the retained window)."""

    def percentile_s(self, percentile: float) -> float:
        """Latency at ``percentile`` (0-100); 0.0 when empty.

        Every percentile/mean accessor on this class is total; an empty
        sample window (a replica that has served zero requests, a server
        queried before traffic arrives) yields 0.0, never NaN or an
        exception from ``np.percentile`` on an empty array.
        """
        if not self._values:
            return 0.0
        return float(np.percentile(self.values, percentile))

    @property
    def mean_s(self) -> float:
        """Mean latency in seconds over the retained window."""
        return float(np.mean(self.values)) if self._values else 0.0

    @property
    def p50_s(self) -> float:
        """Median latency in seconds."""
        return self.percentile_s(50)

    @property
    def p95_s(self) -> float:
        """95th-percentile latency in seconds."""
        return self.percentile_s(95)

    @property
    def p99_s(self) -> float:
        """99th-percentile latency in seconds."""
        return self.percentile_s(99)

    def percentiles_s(self, percentiles) -> List[float]:
        """Several percentiles from one materialized sample array."""
        values = self.values
        if values.size == 0:
            return [0.0 for _ in percentiles]
        return [float(p) for p in np.percentile(values, list(percentiles))]

    def summary(self) -> Dict[str, float]:
        """Count/mean/p50/p95/p99 in milliseconds (SLO form).

        ``count`` is the all-time total; the statistics cover the retained
        ring window, computed from a single pass over the samples.
        """
        values = self.values
        if values.size:
            mean = float(np.mean(values))
            p50, p95, p99 = (float(p) for p in np.percentile(values, [50, 95, 99]))
        else:
            mean = p50 = p95 = p99 = 0.0
        return {
            "count": self.total,
            "mean_ms": mean * 1e3,
            "p50_ms": p50 * 1e3,
            "p95_ms": p95 * 1e3,
            "p99_ms": p99 * 1e3,
        }


@dataclass
class ReplicaTelemetry:
    """Per-replica slice of the server telemetry."""

    completed: int = 0
    expired: int = 0
    cancelled: int = 0
    failed: int = 0
    batches: int = 0
    fused_requests: int = 0
    latencies: LatencySeries = field(default_factory=LatencySeries)

    @property
    def mean_batch(self) -> float:
        """Mean requests fused per engine batch on this replica."""
        return self.fused_requests / self.batches if self.batches else 0.0


class ServingTelemetry:
    """Aggregated serving metrics for one server lifetime.

    All per-request series are bounded rings (:class:`BoundedSeries`), so a
    long-lived server's telemetry memory stays O(1) in traffic; counters
    (``submitted``, ``completed``, ``rejected``...) remain exact totals.

    Attributes:
        latencies: end-to-end request latencies (admission to completion).
        rejected: requests refused by admission control (backpressure).
        queue_depth_samples: pool depth sampled at every admission.
    """

    def __init__(self):
        # the constructing loop's time(); start() rebinds to the serving loop
        self._now = loop_time()
        self.started_at: Optional[float] = None
        self.stopped_at: Optional[float] = None
        self.latencies = LatencySeries()
        self.rejected = 0
        self.submitted = 0
        self.queue_depth_samples = BoundedSeries()
        self._max_queue_depth = 0
        self.replicas: Dict[str, ReplicaTelemetry] = {}
        #: recent fused batch sizes (for debugging/diagnostics)
        self.batch_sizes = BoundedSeries()

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

    def on_admit(self, replica_name: str, pool_depth: int) -> None:
        """Count an admitted request and sample the pool queue depth."""
        self.submitted += 1
        self.queue_depth_samples.add(int(pool_depth))
        if pool_depth > self._max_queue_depth:
            self._max_queue_depth = int(pool_depth)
        self.replicas.setdefault(replica_name, ReplicaTelemetry())

    def on_reject(self) -> None:
        """Count a request refused by admission control."""
        self.rejected += 1

    def on_result(
        self, replica_name: str, latency_s: float, batch_size: int, outcome: str
    ) -> None:
        """Per-request outcome hook (matches the replica observer signature)."""
        slice_ = self.replicas.setdefault(replica_name, ReplicaTelemetry())
        if outcome == "ok":
            slice_.completed += 1
            # a non-finite latency must never poison the percentile windows with NaN/inf
            if np.isfinite(latency_s):
                slice_.latencies.add(latency_s)
                self.latencies.add(latency_s)
        elif outcome == "expired":
            slice_.expired += 1
        elif outcome == "cancelled":
            slice_.cancelled += 1
        else:
            slice_.failed += 1

    def on_batch(self, replica_name: str, batch_size: int) -> None:
        """Record one fused engine batch of ``batch_size`` requests."""
        slice_ = self.replicas.setdefault(replica_name, ReplicaTelemetry())
        slice_.batches += 1
        slice_.fused_requests += int(batch_size)
        self.batch_sizes.add(int(batch_size))

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    @property
    def completed(self) -> int:
        """Total requests completed successfully, across all replicas."""
        return sum(slice_.completed for slice_ in self.replicas.values())

    @property
    def expired(self) -> int:
        """Total requests expired past their deadline, across all replicas."""
        return sum(slice_.expired for slice_ in self.replicas.values())

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
        """All-time maximum admitted pool depth (survives ring eviction)."""
        return self._max_queue_depth

    def mean_queue_depth(self) -> float:
        """Mean pool depth over the retained sample window."""
        return self.queue_depth_samples.mean()

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
        return {
            "elapsed_s": self.elapsed_s(),
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "throughput_hz": self.throughput_hz(),
            "latency": self.latencies.summary(),
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
        p50_s, p99_s = slice_.latencies.percentiles_s([50, 99])
        return {
            "completed": slice_.completed,
            "expired": slice_.expired,
            "cancelled": slice_.cancelled,
            "failed": slice_.failed,
            "batches": slice_.batches,
            "mean_batch": slice_.mean_batch,
            "p50_ms": p50_s * 1e3,
            "p99_ms": p99_s * 1e3,
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
