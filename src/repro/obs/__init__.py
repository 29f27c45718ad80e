"""Observability plane: request-scoped tracing, metrics, drift monitoring.

The :mod:`repro.obs` package is the deterministic tracing and metrics
plane threaded through the whole stack:

* :mod:`repro.obs.trace` — :class:`Span` / :class:`Tracer` with
  request-scoped trace IDs minted at the serving front doors
  (:class:`~repro.serving.server.InferenceServer`,
  :class:`~repro.serving.fabric.gateway.FabricGateway`), propagated
  through micro-batch fusing, replica routing, engine execution and down
  into the SoC's tiled offloads, where
  :func:`~repro.obs.trace.attach_soc_report` turns
  ``WorkloadReport.pipeline`` phases and DMA traffic deltas into child
  spans.  Trace context crosses the fabric's pickle pipes and socket wire
  protocol, so a worker-process span stitches to its gateway parent.
* :mod:`repro.obs.metrics` — process-safe counters / gauges / histograms;
  a histogram is a log-bucketed sketch answering quantiles within a fixed
  relative accuracy, snapshots merge exactly across worker processes and
  persist through the serving layer's ``TelemetryLog``.
* :mod:`repro.obs.export` — Chrome ``trace_event``-format exporter for
  spans, scheduler dispatch logs and metric snapshots (loadable in
  ``chrome://tracing`` / Perfetto; validated by ``tools/trace_view.py``).
* :mod:`repro.obs.drift` — predicted-vs-measured drift monitoring per
  (shape, backend) key, producing the ground-truth stream the online
  cost-model recalibration roadmap item needs.

Tracing is opt-in: every integration point takes ``tracer=None`` and the
disabled path is a single falsy check, so served outputs, cycle
accounting and seeded RNG streams are bitwise identical with tracing on
or off (the plane only *reads* clocks and reports, never perturbs them).
"""

from repro.obs.drift import DriftFlag, DriftMonitor
from repro.obs.export import (
    chrome_trace,
    metrics_events,
    scheduler_events,
    span_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    attach_soc_report,
)

__all__ = [
    "Counter",
    "DriftFlag",
    "DriftMonitor",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "attach_soc_report",
    "chrome_trace",
    "metrics_events",
    "scheduler_events",
    "span_events",
    "validate_chrome_trace",
    "write_chrome_trace",
]
