"""Microarchitecture-level fault injection (the gem5-MARVEL feature).

gem5-MARVEL "supports transient and permanent fault injections to all
hardware structures of the CPU" and is used in NEUROPULS for reliability
analysis.  This module reproduces that capability on the Python SoC model:

* fault targets: CPU register file, main memory, accelerator scratchpads,
  MMR data registers;
* fault types: transient (single bit flip at a given cycle) and permanent
  (stuck-at bit re-asserted for the rest of the run);
* campaign runner: repeat a workload under randomly drawn faults, compare
  against the golden output, and classify every run as *masked*, *SDC*
  (silent data corruption), *crash* or *hang* — the standard reliability
  taxonomy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.system.memory import WORD_BYTES, to_unsigned
from repro.system.soc import PhotonicSoC, WorkloadReport
from repro.utils.rng import RngLike, ensure_rng

#: Valid fault targets.
FAULT_TARGETS = ("cpu_register", "main_memory", "scratchpad", "mmr_data")

#: Valid fault types.
FAULT_TYPES = ("transient", "permanent")

#: Outcome classes of one injection run.
OUTCOMES = ("masked", "sdc", "crash", "hang")


class EmptyCampaignError(ValueError):
    """Raised when a rate is requested from a campaign with zero runs.

    Outcome rates of an empty campaign are undefined; silently answering
    0.0 would read as "this outcome never happened" in reliability
    summaries, so the contract is a typed error instead.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    Attributes:
        target: hardware structure (one of ``FAULT_TARGETS``).
        fault_type: ``"transient"`` or ``"permanent"``.
        location: structure-specific index (register index, word address,
            or data-register index).
        bit: bit position to flip / stick (0..31).
        cycle: injection cycle.
        stuck_value: for permanent faults, the value the bit is stuck at
            (0 or 1); ignored for transient faults.
    """

    target: str
    fault_type: str
    location: int
    bit: int
    cycle: int
    stuck_value: int = 1

    def __post_init__(self):
        if self.target not in FAULT_TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}")
        if self.fault_type not in FAULT_TYPES:
            raise ValueError(f"unknown fault type {self.fault_type!r}")
        if not 0 <= self.bit < 32:
            raise ValueError("bit must be in [0, 32)")
        if self.cycle < 0:
            raise ValueError("cycle must be non-negative")
        if self.stuck_value not in (0, 1):
            raise ValueError("stuck_value must be 0 or 1")


class FaultInjector:
    """Injects one fault specification into a running SoC."""

    def __init__(self, soc: PhotonicSoC, spec: FaultSpec, enforce_interval: int = 3):
        self.soc = soc
        self.spec = spec
        self.enforce_interval = max(1, int(enforce_interval))
        self.injected = False

    # ------------------------------------------------------------------ #
    # bit manipulation per target
    # ------------------------------------------------------------------ #
    def _read(self) -> int:
        spec = self.spec
        if spec.target == "cpu_register":
            return self.soc.cpu.registers[spec.location % 32]
        if spec.target == "main_memory":
            address = (spec.location * WORD_BYTES) % self.soc.main_memory.size_bytes
            return self.soc.main_memory.read_word(address)
        if spec.target == "scratchpad":
            accelerator = self.soc.accelerators[0]
            address = (spec.location * WORD_BYTES) % accelerator.input_spm.size_bytes
            return accelerator.input_spm.read_word(address)
        accelerator = self.soc.accelerators[0]
        return accelerator.mmr.data_register(spec.location % accelerator.mmr.n_data_registers)

    def _write(self, value: int) -> None:
        spec = self.spec
        value = to_unsigned(value)
        if spec.target == "cpu_register":
            index = spec.location % 32
            if index != 0:
                self.soc.cpu.registers[index] = value
            return
        if spec.target == "main_memory":
            address = (spec.location * WORD_BYTES) % self.soc.main_memory.size_bytes
            self.soc.main_memory.write_word(address, value)
            return
        if spec.target == "scratchpad":
            accelerator = self.soc.accelerators[0]
            address = (spec.location * WORD_BYTES) % accelerator.input_spm.size_bytes
            accelerator.input_spm.write_word(address, value)
            return
        accelerator = self.soc.accelerators[0]
        accelerator.mmr.set_data_register(
            spec.location % accelerator.mmr.n_data_registers, value
        )

    def _flip(self) -> None:
        self._write(self._read() ^ (1 << self.spec.bit))

    def _stick(self) -> None:
        current = self._read()
        if self.spec.stuck_value:
            self._write(current | (1 << self.spec.bit))
        else:
            self._write(current & ~(1 << self.spec.bit))

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def arm(self) -> None:
        """Schedule the injection (and, for permanent faults, enforcement)."""
        if self.spec.target in ("scratchpad", "mmr_data") and not self.soc.accelerators:
            raise ValueError("scratchpad/MMR faults need an attached accelerator")
        self.soc.scheduler.schedule_at(self.spec.cycle, self._inject, label="fault-inject")

    def _inject(self) -> None:
        self.injected = True
        if self.spec.fault_type == "transient":
            self._flip()
            return
        self._stick()
        self._schedule_enforcement()

    def _schedule_enforcement(self) -> None:
        def enforce():
            self._stick()
            # Keep enforcing while the simulation still has work queued.
            if self.soc.scheduler.pending > 0:
                self.soc.scheduler.schedule(
                    self.enforce_interval, enforce, label="fault-enforce"
                )

        self.soc.scheduler.schedule(self.enforce_interval, enforce, label="fault-enforce")


@dataclass
class CampaignResult:
    """Aggregate outcome of a fault-injection campaign.

    Attributes:
        outcomes: per-run outcome labels.
        specs: the injected fault specifications, aligned with ``outcomes``.
    """

    outcomes: List[str] = field(default_factory=list)
    specs: List[FaultSpec] = field(default_factory=list)

    def rate(self, outcome: str) -> float:
        """Fraction of runs with the given outcome.

        Raises :class:`EmptyCampaignError` on a zero-run campaign — an
        outcome rate over no runs is undefined, not 0.0.
        """
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        if not self.outcomes:
            raise EmptyCampaignError(
                f"cannot compute {outcome!r} rate of a campaign with zero runs"
            )
        return float(np.mean([o == outcome for o in self.outcomes]))

    def counts(self) -> Dict[str, int]:
        """Outcome histogram."""
        return {outcome: self.outcomes.count(outcome) for outcome in OUTCOMES}

    @property
    def n_runs(self) -> int:
        """Number of classified runs."""
        return len(self.outcomes)


def random_fault_spec(
    target: str,
    fault_type: str,
    max_cycle: int,
    rng: RngLike = None,
    location_range: int = 1024,
) -> FaultSpec:
    """Draw a uniformly random fault of the given target/type."""
    generator = ensure_rng(rng)
    return FaultSpec(
        target=target,
        fault_type=fault_type,
        location=int(generator.integers(0, location_range)),
        bit=int(generator.integers(0, 32)),
        cycle=int(generator.integers(1, max(2, max_cycle))),
        stuck_value=int(generator.integers(0, 2)),
    )


def run_fault_campaign(
    workload: Callable[[PhotonicSoC], WorkloadReport],
    soc_factory: Callable[[], PhotonicSoC],
    golden: np.ndarray,
    n_injections: int = 20,
    target: str = "cpu_register",
    fault_type: str = "transient",
    injection_window: Optional[int] = None,
    hang_multiplier: float = 10.0,
    rng: RngLike = 0,
) -> CampaignResult:
    """Run a fault-injection campaign and classify every outcome.

    ``workload`` runs a full workload on a freshly built SoC and returns its
    :class:`WorkloadReport`; ``golden`` is the fault-free result to compare
    against.  A run is *masked* when the output matches the golden result,
    *SDC* when it differs, *crash* when the CPU halts on an architectural
    fault, and *hang* when the run exceeds ``hang_multiplier`` times the
    golden cycle count.
    """
    generator = ensure_rng(rng)
    golden = np.asarray(golden)

    # Reference run to size the injection window and the hang watchdog.
    reference_soc = soc_factory()
    reference_report = workload(reference_soc)
    golden_cycles = max(1, reference_report.cycles)
    window = injection_window if injection_window is not None else golden_cycles

    result = CampaignResult()
    for _ in range(max(1, n_injections)):
        spec = random_fault_spec(
            target, fault_type, max_cycle=window, rng=generator
        )
        soc = soc_factory()
        soc.max_cycles = int(golden_cycles * hang_multiplier)
        injector = FaultInjector(soc, spec)
        injector.arm()
        try:
            report = workload(soc)
        except Exception:
            result.outcomes.append("crash")
            result.specs.append(spec)
            continue
        if soc.cpu.fault_cause:
            outcome = "crash"
        elif not soc.cpu.halted or report.cycles >= soc.max_cycles:
            outcome = "hang"
        elif report.result is not None and np.array_equal(np.asarray(report.result), golden):
            outcome = "masked"
        else:
            outcome = "sdc"
        result.outcomes.append(outcome)
        result.specs.append(spec)
    return result
