"""Metrics registry: deterministic counters, gauges and histograms.

Instruments are process-local and cheap (a dict lookup plus an integer
add) and share no memory across processes: :meth:`MetricsRegistry.snapshot`
gives a plain-JSON state and :meth:`MetricsRegistry.merge` folds one in.
A serving process keeps one registry, its
:class:`~repro.serving.telemetry.ServingTelemetry`'s ``metrics``; a
fabric worker ships the snapshot of its engine and batcher counters in
its ``bye`` message, and the gateway merges it into that registry
(``FabricGateway._on_message``).  A :class:`Histogram` is a
log-bucketed sketch at the fixed relative accuracy :data:`RELATIVE_ACCURACY`
(DDSketch, Masson, Rim & Lee, VLDB 2019): bucket edges are a pure
function of that constant, never adapted to data, so sketches from any
process merge exactly and replayed runs are bitwise comparable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

#: Relative error bound α of every :meth:`Histogram.quantile` answer.
RELATIVE_ACCURACY = 0.01
_GAMMA = (1 + RELATIVE_ACCURACY) / (1 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)
# bucket ``k`` covers (γ^(k-1), γ^k]; 2γ^k/(γ+1) is within α of both edges
_REPRESENTATIVE = 2 / (_GAMMA + 1)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def snapshot(self) -> Dict:
        """Plain-JSON state."""
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value (queue depth, inflight count)."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def snapshot(self) -> Dict:
        """Plain-JSON state."""
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Mergeable histogram answering quantiles within relative accuracy α.

    A positive observation ``v`` lands in bucket ``ceil(log(v) / log γ)``
    with γ = (1 + α) / (1 - α); zero has its own bucket.  ``count`` and
    ``sum`` are exact, memory grows with the logarithm of the observed
    range (not with traffic), and two sketches merge by summing bucket
    counts.
    """

    def __init__(self, name: str):
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.zero = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one finite, non-negative observation."""
        if 0 < value < math.inf:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            self.buckets[key] = self.buckets.get(key, 0) + 1
        elif value == 0:
            self.zero += 1
        else:
            raise ValueError(f"histogram {self.name!r} cannot observe {value!r}")
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) within relative accuracy α.

        Answers with the representative of the bucket holding the order
        statistic of rank ``floor(q * (count - 1))``, so the result is
        within α of ``np.quantile(samples, q, method="lower")``.  An empty
        histogram yields 0.0.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must lie in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = math.floor(q * (self.count - 1))
        seen = self.zero
        if rank < seen:
            return 0.0
        for key in sorted(self.buckets):
            seen += self.buckets[key]
            if rank < seen:
                break
        return _REPRESENTATIVE * _GAMMA**key

    def snapshot(self) -> Dict:
        """Plain-JSON state (accuracy, zero and log buckets, sum/count)."""
        return {
            "type": "histogram",
            "relative_accuracy": RELATIVE_ACCURACY,
            "zero": self.zero,
            "buckets": {str(key): self.buckets[key] for key in sorted(self.buckets)},
            "sum": self.sum,
            "count": self.count,
        }

    def merge(self, state: Dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket counts sum exactly.  A snapshot recorded at another
        relative accuracy has other bucket edges, so it raises
        ``ValueError`` instead of merging.
        """
        if state.get("relative_accuracy") != RELATIVE_ACCURACY:
            raise ValueError(
                f"histogram {self.name!r} relative accuracy differs between "
                f"processes ({state.get('relative_accuracy')!r} != {RELATIVE_ACCURACY})"
            )
        for key, count in state["buckets"].items():
            key = int(key)
            self.buckets[key] = self.buckets.get(key, 0) + int(count)
        self.zero += int(state["zero"])
        self.sum += float(state["sum"])
        self.count += int(state["count"])


class MetricsRegistry:
    """Named instrument registry with get-or-create semantics.

    One registry per process.  :meth:`snapshot` and :meth:`merge` let
    registries of several processes be combined: a fabric gateway merges
    each worker's counter snapshot into its telemetry registry.
    """

    def __init__(self):
        self._instruments: Dict[str, object] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram)

    def _get(self, name, kind):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = kind(name)
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def names(self) -> List[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def get(self, name: str) -> Optional[object]:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-JSON snapshot of every instrument, keyed by name."""
        return {
            name: self._instruments[name].snapshot() for name in sorted(self._instruments)
        }

    def merge(self, snapshot: Dict[str, Dict]) -> None:
        """Fold another process's :meth:`snapshot` into this registry.

        Counters and histograms sum; gauges take the incoming value (last
        writer wins — fabric workers report disjoint gauges in practice).
        Histograms must share :data:`RELATIVE_ACCURACY` or ``ValueError``
        is raised.
        """
        for name, state in snapshot.items():
            kind = state.get("type")
            if kind == "counter":
                self.counter(name).inc(float(state["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(state["value"]))
            elif kind == "histogram":
                self.histogram(name).merge(state)
            else:
                raise ValueError(f"unknown instrument type {kind!r} for metric {name!r}")
