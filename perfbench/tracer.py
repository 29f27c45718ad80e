"""Span recorder that wraps public functions from outside the program.

A :class:`Tracer` replaces an attribute (a module function, a class method
or one instance's bound method) with a wrapper that records a span per
call: start, duration, self time (duration minus the time its child spans
cover) and an optional work count (columns, bytes, ...).  Spans stay in
memory as flat arrays and are written out once, at the end of the run.

Wrappers are installed for traced segments and removed again for untraced
ones, so one run measures both and reports the tracing overhead.  Only
synchronous functions are wrapped: a span never spans an ``await``, which
keeps the single child-time stack valid on an asyncio loop.
"""

import time
from array import array

import numpy as np


class SpanLog:
    """Flat span arrays of one span name."""

    def __init__(self):
        self.start = array("d")
        self.duration = array("d")
        self.self_time = array("d")
        self.work = array("d")

    def __len__(self) -> int:
        return len(self.start)


class Tracer:
    """Records spans around wrapped callables while installed."""

    def __init__(self):
        self.logs = {}
        self.counts = {}
        self.top_level_s = 0.0
        self._stack = []
        self._targets = []
        self._saved = []

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def span(self, owner, attr: str, name: str, work=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``work(args, result)`` optionally returns a number summed per span
        (e.g. the columns of a batch).
        """
        log = self.logs.setdefault(name, SpanLog())
        stack = self._stack
        clock = time.perf_counter

        def make(original):
            def traced(*args, **kwargs):
                stack.append(0.0)
                started = clock()
                amount = 0.0
                try:
                    result = original(*args, **kwargs)
                    if work is not None:
                        amount = work(args, result)
                    return result
                finally:
                    duration = clock() - started
                    children = stack.pop()
                    if stack:
                        stack[-1] += duration
                    else:
                        self.top_level_s += duration
                    log.start.append(started)
                    log.duration.append(duration)
                    log.self_time.append(duration - children)
                    log.work.append(amount)

            return traced

        self._targets.append((owner, attr, make))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them (hot leaf calls)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self._targets.append((owner, attr, make))

    def install(self) -> None:
        """Put every registered wrapper in place."""
        for owner, attr, make in self._targets:
            own = vars(owner)
            saved = own[attr] if attr in own else None
            self._saved.append((owner, attr, saved))
            setattr(owner, attr, make(getattr(owner, attr)))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, saved in reversed(self._saved):
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def total(self, name: str, field: str = "duration") -> float:
        """Sum of one span field over every span of ``name``."""
        log = self.logs.get(name)
        return float(sum(getattr(log, field))) if log is not None else 0.0

    def calls(self, name: str) -> int:
        """Number of spans (or counted calls) recorded under ``name``."""
        if name in self.counts:
            return self.counts[name]
        log = self.logs.get(name)
        return len(log) if log is not None else 0

    def write(self, path) -> None:
        """Write every span array to one ``.npz`` file."""
        arrays = {}
        for name, log in self.logs.items():
            for field in ("start", "duration", "self_time", "work"):
                arrays[f"{name}/{field}"] = np.frombuffer(getattr(log, field), dtype=float)
        for name, value in self.counts.items():
            arrays[f"{name}/count"] = np.array([value])
        np.savez(path, **arrays)
