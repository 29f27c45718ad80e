"""Discrete-event simulation kernel for the system-level simulator.

The gem5-style full-system model is driven by a single global event queue:
every component (CPU, DMA engine, accelerator, interrupt controller)
schedules callbacks at future cycle counts and the kernel executes them in
time order.  Cycle counts are integers; ties are broken by scheduling
order so the simulation is fully deterministic.

A component that can compute ahead of the queue (the RISC-V core) asks
for :meth:`EventScheduler.horizon`: it may do work at any cycle strictly
below it and must schedule an event for anything at or beyond it.  Work
done that way is indistinguishable from one event per step, because no
other event runs before the horizon, and on a tie the pending event
(scheduled earlier, so with the lower sequence number) still runs first.

The heap holds plain ``(cycle, sequence, event)`` tuples, so ordering is a
C-level tuple comparison; the sequence number is unique, so the comparison
never reaches the event handle itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple


class _ScheduledEvent:
    """Cancellable handle of one scheduled callback."""

    __slots__ = ("callback", "label", "cancelled")

    def __init__(self, callback: Callable[[], None], label: str):
        self.callback = callback
        self.label = label
        self.cancelled = False


class EventScheduler:
    """Global event queue ordered by cycle count.

    Attributes:
        current_cycle: simulation time of the event being processed (or the
            last processed one when idle).
        sequence: events scheduled so far, which is also the tie-break
            sequence number of the next one; a change tells a run-ahead
            component that its horizon may have moved.
    """

    def __init__(self):
        self._queue: List[Tuple[int, int, _ScheduledEvent]] = []
        self.sequence = 0
        self.current_cycle = 0
        #: first cycle the current :meth:`run` does not process
        self._limit: float = math.inf
        self.events_processed = 0
        #: optional (cycle, label) dispatch log, enabled by :meth:`enable_trace`
        self.trace: Optional[List[Tuple[int, str]]] = None

    def enable_trace(self) -> List[Tuple[int, str]]:
        """Record every dispatched event as ``(cycle, label)``.

        Used by the pipeline tests and benchmarks to prove DMA/compute
        overlap from the actual event stream instead of aggregate counters.
        The CPU runs ahead between events, so its instructions do not
        appear one per entry: a CPU entry marks where a run-ahead started.
        """
        self.trace = []
        return self.trace

    def schedule(self, delay: int, callback: Callable[[], None], label: str = "") -> _ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Returns a handle that can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        cycle = self.current_cycle + int(delay)
        event = _ScheduledEvent(callback, label)
        heapq.heappush(self._queue, (cycle, self.sequence, event))
        self.sequence += 1
        return event

    def schedule_at(self, cycle: int, callback: Callable[[], None], label: str = "") -> _ScheduledEvent:
        """Schedule ``callback`` at an absolute cycle count."""
        if cycle < self.current_cycle:
            raise ValueError("cannot schedule events in the past")
        return self.schedule(cycle - self.current_cycle, callback, label)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        event.cancelled = True

    @property
    def pending(self) -> int:
        """Number of events still waiting (including cancelled ones)."""
        return len(self._queue)

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty.

        Outside :meth:`run` no cycle limit applies, so a CPU event runs
        ahead until the next pending event or until its program halts.
        """
        while self._queue:
            cycle, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.current_cycle = cycle
            if self.trace is not None:
                self.trace.append((cycle, event.label))
            event.callback()
            self.events_processed += 1
            return True
        return False

    def horizon(self) -> float:
        """First cycle at which run-ahead work must stop and schedule an event.

        The smaller of the earliest pending, non-cancelled event's cycle and
        ``max_cycles + 1`` of the current :meth:`run` (infinite outside
        :meth:`run`).  Without the limit term a program that never halts
        would never return control to :meth:`run`.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if queue and queue[0][0] < self._limit:
            return queue[0][0]
        return self._limit

    def run(self, max_cycles: Optional[int] = None) -> int:
        """Run until the queue drains or a limit is hit; returns the final cycle.

        ``max_cycles`` bounds simulated time: no event (and no run-ahead
        work) after that absolute cycle is processed.  Fault campaigns use
        it as the watchdog that classifies hangs.
        """
        limit = math.inf if max_cycles is None else max_cycles + 1
        queue = self._queue
        outer, self._limit = self._limit, limit
        try:
            while queue:
                cycle, _, event = queue[0]
                if event.cancelled:
                    heapq.heappop(queue)
                    continue
                if cycle >= limit:
                    break
                self.step()
        finally:
            self._limit = outer
        return self.current_cycle
