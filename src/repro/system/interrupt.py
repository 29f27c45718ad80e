"""Interrupt controller: completion signalling without polling.

gem5-MARVEL treats each accelerator as a memory-mapped device whose
interrupt lines let the host synchronise "without the need for constant
polling".  The controller here collects the interrupt lines of all devices,
records which ones fired, and notifies the CPU(s) registered for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List


@dataclass
class InterruptLine:
    """One interrupt line owned by a device."""

    index: int
    name: str
    pending: bool = False
    fire_count: int = 0


class InterruptController:
    """A simple level-style interrupt controller.

    Devices ``allocate_line`` once and ``raise_interrupt`` when they finish;
    CPUs (or any callable) subscribe per line and are invoked on every
    assertion.  Lines stay pending until ``acknowledge`` so a host that was
    busy can still observe the event — this mirrors the MMR + IRQ protocol
    of the paper's communications interface.
    """

    def __init__(self):
        self._lines: List[InterruptLine] = []
        self._handlers: Dict[int, List[Callable[[int], None]]] = {}

    def allocate_line(self, name: str) -> InterruptLine:
        """Allocate a new interrupt line for a device."""
        line = InterruptLine(index=len(self._lines), name=name)
        self._lines.append(line)
        self._handlers[line.index] = []
        return line

    def subscribe(self, line_index: int, handler: Callable[[int], None]) -> None:
        """Register a handler invoked whenever the line is asserted."""
        if line_index not in self._handlers:
            raise KeyError(f"no interrupt line {line_index}")
        self._handlers[line_index].append(handler)

    def raise_interrupt(self, line_index: int) -> None:
        """Assert a line: mark pending and notify all subscribed handlers."""
        if not 0 <= line_index < len(self._lines):
            raise KeyError(f"no interrupt line {line_index}")
        line = self._lines[line_index]
        line.pending = True
        line.fire_count += 1
        for handler in self._handlers[line_index]:
            handler(line_index)

    def acknowledge(self, line_index: int) -> None:
        """Clear a pending line (host-side acknowledgement)."""
        if not 0 <= line_index < len(self._lines):
            raise KeyError(f"no interrupt line {line_index}")
        self._lines[line_index].pending = False

    def pending_lines(self) -> List[int]:
        """Indices of all currently pending lines."""
        return [line.index for line in self._lines if line.pending]

    def line(self, line_index: int) -> InterruptLine:
        """Look up a line by index."""
        return self._lines[line_index]
