"""Chrome ``trace_event``-format exporter for spans, schedulers and metrics.

Produces the JSON object format (``{"traceEvents": [...]}``) loadable in
``chrome://tracing`` and Perfetto.  Three sources share one timeline:

* finished :class:`~repro.obs.trace.Span` objects → ``"X"`` complete
  events (wall-clock spans on per-process tracks, cycle-domain spans on a
  synthetic ``(cycles)`` process where 1 simulated cycle maps through the
  clock rate to microseconds);
* :class:`~repro.system.event.EventScheduler` ``enable_trace()`` logs —
  ``(cycle, label)`` dispatch tuples → ``"i"`` instant events;
* :class:`~repro.obs.metrics.MetricsRegistry` snapshots → ``"C"`` counter
  events.

``validate_chrome_trace`` is the structural gate used by
``tools/trace_view.py`` and the test suite.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Synthetic process label for cycle-domain events.
CYCLE_PROCESS = "(cycles)"


def _span_dict(span) -> Dict:
    if hasattr(span, "to_dict"):
        return span.to_dict()
    return dict(span)


def span_events(
    spans: Iterable,
    clock_hz: float = 1e9,
    wall_base: Optional[float] = None,
) -> List[Dict]:
    """Convert finished spans to Chrome ``"X"`` complete events.

    Wall-clock spans are placed at ``(start_wall - wall_base)`` seconds
    (``wall_base`` defaults to the earliest span start, so the trace
    starts at t=0).  Spans with only cycle timestamps land on the
    :data:`CYCLE_PROCESS` track, scaled by ``clock_hz`` into simulated
    microseconds.  Spans carrying both clocks keep their wall placement
    and expose the cycle window in ``args``.
    """
    dicts = [_span_dict(span) for span in spans]
    if wall_base is None:
        starts = [d["start_wall"] for d in dicts if d.get("start_wall") is not None]
        wall_base = min(starts) if starts else 0.0
    events: List[Dict] = []
    for payload in dicts:
        args = {
            "trace_id": payload["trace_id"],
            "span_id": payload["span_id"],
        }
        if payload.get("parent_id"):
            args["parent_id"] = payload["parent_id"]
        if payload.get("links"):
            args["links"] = list(payload["links"])
        if payload.get("start_cycle") is not None:
            args["start_cycle"] = payload["start_cycle"]
        if payload.get("end_cycle") is not None:
            args["end_cycle"] = payload["end_cycle"]
        args.update(payload.get("attrs", {}))
        start_wall = payload.get("start_wall")
        end_wall = payload.get("end_wall")
        start_cycle = payload.get("start_cycle")
        end_cycle = payload.get("end_cycle")
        if start_wall is not None and end_wall is not None:
            process = payload.get("process", "main")
            ts = (start_wall - wall_base) * 1e6
            dur = max(0.0, (end_wall - start_wall) * 1e6)
        elif start_cycle is not None and end_cycle is not None:
            process = CYCLE_PROCESS
            ts = start_cycle * 1e6 / clock_hz
            dur = max(0.0, (end_cycle - start_cycle) * 1e6 / clock_hz)
        else:
            continue
        events.append(
            {
                "name": payload["name"],
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": process,
                "tid": payload.get("track", "main"),
                "cat": "span",
                "args": args,
            }
        )
    return events


def scheduler_events(
    trace: Sequence[Tuple[int, str]],
    clock_hz: float = 1e9,
    process: str = CYCLE_PROCESS,
    track: str = "scheduler",
) -> List[Dict]:
    """Convert ``EventScheduler.enable_trace()`` logs to ``"i"`` instants.

    Each ``(cycle, label)`` dispatch becomes a thread-scoped instant event
    on the cycle timeline, so SoC event dispatches and serving spans share
    one trace file and one zoom level.
    """
    return [
        {
            "name": str(label),
            "ph": "i",
            "ts": int(cycle) * 1e6 / clock_hz,
            "pid": process,
            "tid": track,
            "cat": "scheduler",
            "s": "t",
            "args": {"cycle": int(cycle)},
        }
        for cycle, label in trace
    ]


def metrics_events(
    snapshot: Dict[str, Dict],
    ts: float = 0.0,
    process: str = "metrics",
) -> List[Dict]:
    """Convert a :meth:`MetricsRegistry.snapshot` to ``"C"`` counter events.

    Counters and gauges become single-sample counter tracks; histograms
    contribute their ``count`` and ``sum`` (the bucket counts stay in
    the JSONL snapshots, which remain the analysis source of truth).
    """
    events: List[Dict] = []
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state.get("type")
        if kind in ("counter", "gauge"):
            series = {name: state["value"]}
        elif kind == "histogram":
            series = {f"{name}.count": state["count"], f"{name}.sum": state["sum"]}
        else:
            continue
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": ts,
                "pid": process,
                "tid": "metrics",
                "cat": "metrics",
                "args": series,
            }
        )
    return events


def _metadata_events(events: Sequence[Dict]) -> Tuple[List[Dict], Dict[str, int]]:
    processes: Dict[str, int] = {}
    for event in events:
        pid = event["pid"]
        if isinstance(pid, str) and pid not in processes:
            processes[pid] = len(processes)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": index,
            "tid": 0,
            "args": {"name": label},
        }
        for label, index in processes.items()
    ]
    return metadata, processes


def chrome_trace(
    spans: Iterable = (),
    scheduler_trace: Sequence[Tuple[int, str]] = (),
    metrics_snapshot: Optional[Dict[str, Dict]] = None,
    clock_hz: float = 1e9,
    wall_base: Optional[float] = None,
) -> Dict:
    """Assemble one Chrome trace object from spans/scheduler/metrics.

    String process and track labels are mapped to integer ``pid``/``tid``
    with ``"M"`` ``process_name``/``thread_name`` metadata records, which
    is what Perfetto uses for track naming.
    """
    events = span_events(spans, clock_hz=clock_hz, wall_base=wall_base)
    events += scheduler_events(scheduler_trace, clock_hz=clock_hz)
    if metrics_snapshot:
        events += metrics_events(metrics_snapshot)
    metadata, processes = _metadata_events(events)
    threads: Dict[Tuple[int, str], int] = {}
    for event in events:
        pid = processes[event["pid"]]
        event["pid"] = pid
        tid_label = event["tid"]
        key = (pid, str(tid_label))
        if key not in threads:
            threads[key] = len([k for k in threads if k[0] == pid])
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": threads[key],
                    "args": {"name": str(tid_label)},
                }
            )
        event["tid"] = threads[key]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"clock_hz": clock_hz},
    }


def validate_chrome_trace(obj: Dict) -> int:
    """Structurally validate a Chrome trace object; return the event count.

    Checks the invariants ``chrome://tracing`` / Perfetto rely on: a
    ``traceEvents`` list, every event a dict with ``name``/``ph``/``pid``/
    ``tid``, a numeric ``ts`` on all non-metadata events, and a
    non-negative numeric ``dur`` on ``"X"`` complete events.  Raises
    ``ValueError`` on the first violation.
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise ValueError("trace must be an object with a 'traceEvents' list")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} ({event.get('name')!r}) missing {key!r}")
        if event["ph"] != "M":
            if not isinstance(event.get("ts"), (int, float)):
                raise ValueError(f"event {i} ({event['name']!r}) missing numeric 'ts'")
        if event["ph"] == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(
                    f"event {i} ({event['name']!r}) 'X' event needs non-negative 'dur'"
                )
    return len(events)


def write_chrome_trace(path, spans: Iterable = (), **kwargs) -> Dict:
    """Build, validate and write a Chrome trace JSON file; return the object."""
    obj = chrome_trace(spans, **kwargs)
    validate_chrome_trace(obj)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(obj, stream, indent=None, separators=(",", ":"))
    return obj
