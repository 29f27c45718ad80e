"""RISC-V (RV32IM subset) host CPU model.

An in-order, single-issue core with a simple timing model: every
instruction costs its category's base latency plus, for loads and stores,
the latency reported by the bus for the access.  This is deliberately a
*system-level* CPU model in the gem5 "timing simple" spirit — accurate
enough to compare a software GeMM against the photonic accelerator
offload, cheap enough to run fault-injection campaigns with thousands of
simulated executions.

The CPU shares the :class:`repro.system.event.EventScheduler` with the DMA
engines, accelerators, interrupt controller and fault injectors, but it
does not spend one event per instruction.  :meth:`RiscvCPU.load_program`
predecodes every instruction once into a tuple (kind, registers,
immediate, bound ALU or branch function, latency, energy, category).  A
CPU event then *runs ahead*: it executes instructions in a local loop
while the next issue cycle is strictly below the scheduler's
:meth:`~repro.system.event.EventScheduler.horizon` (the earliest pending
event, or the end of the current ``run()``), and schedules one event at
the cycle where it stopped.  No other component acts between two events,
so every cycle count, joule, register value and the interleaving with DMA
transfers, accelerator completions, interrupts and injected faults are
exactly those of one event per instruction.  On a tie the pending event
runs first: it was scheduled earlier, so it holds the lower sequence
number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.system.assembler import Program
from repro.system.event import EventScheduler
from repro.system.bus import SystemBus
from repro.system.isa import BRANCH_OPS, Instruction, N_REGISTERS
from repro.system.memory import MemoryAccessError, WORD_MASK, to_signed, to_unsigned

#: Base latency (cycles) per instruction category.
DEFAULT_LATENCIES: Dict[str, int] = {
    "alu": 1,
    "mul": 3,
    "load": 1,      # plus bus/memory latency
    "store": 1,     # plus bus/memory latency
    "branch": 1,
    "jump": 1,
    "system": 1,
}

#: Dynamic energy per instruction category [J] (small in-order RISC-V core).
DEFAULT_ENERGIES: Dict[str, float] = {
    "alu": 5e-12,
    "mul": 15e-12,
    "load": 10e-12,
    "store": 10e-12,
    "branch": 4e-12,
    "jump": 4e-12,
    "system": 2e-12,
}


class CPUError(Exception):
    """Raised for architectural errors (bad pc, illegal instruction)."""


@dataclass
class CPUStats:
    """Execution statistics of one CPU."""

    instructions: int = 0
    cycles: int = 0
    loads: int = 0
    stores: int = 0
    branches_taken: int = 0
    stall_cycles: int = 0
    energy_j: float = 0.0
    per_category: Dict[str, int] = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions


# ---------------------------------------------------------------------- #
# predecoded operations
# ---------------------------------------------------------------------- #
# Register values are unsigned 32-bit words; every result is wrapped to a
# word when it is written back, so these functions may return any int.
def _div(lhs: int, rhs: int) -> int:
    divisor = to_signed(rhs)
    return -1 if divisor == 0 else int(to_signed(lhs) / divisor)


def _rem(lhs: int, rhs: int) -> int:
    dividend, divisor = to_signed(lhs), to_signed(rhs)
    return dividend if divisor == 0 else dividend - int(dividend / divisor) * divisor


#: ALU/MUL functions of ``(rs1 value, operand)``; the operand is the rs2
#: value or, for an immediate form, the immediate wrapped to a word.
#: ``mul`` keeps the low word, which is the same for signed and unsigned
#: operands, so it needs no sign conversion.
_ALU_FUNCTIONS: Dict[str, Callable[[int, int], int]] = {
    "add": lambda lhs, rhs: lhs + rhs,
    "sub": lambda lhs, rhs: lhs - rhs,
    "and": lambda lhs, rhs: lhs & rhs,
    "or": lambda lhs, rhs: lhs | rhs,
    "xor": lambda lhs, rhs: lhs ^ rhs,
    "slt": lambda lhs, rhs: 1 if to_signed(lhs) < to_signed(rhs) else 0,
    "sltu": lambda lhs, rhs: 1 if lhs < rhs else 0,
    "sll": lambda lhs, rhs: lhs << (rhs & 0x1F),
    "srl": lambda lhs, rhs: lhs >> (rhs & 0x1F),
    "sra": lambda lhs, rhs: to_signed(lhs) >> (rhs & 0x1F),
    "mul": lambda lhs, rhs: lhs * rhs,
    "mulh": lambda lhs, rhs: (to_signed(lhs) * to_signed(rhs)) >> 32,
    "div": _div,
    "rem": _rem,
}


#: register-register function behind each immediate mnemonic
_IMMEDIATE_BASE = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor", "slti": "slt",
    "sltiu": "sltu", "slli": "sll", "srli": "srl", "srai": "sra",
}


def _slt_immediate(lhs: int, imm: int) -> int:
    # slti compares against the immediate as written, not its 32-bit wrap
    return 1 if to_signed(lhs) < imm else 0


_BRANCH_FUNCTIONS: Dict[str, Callable[[int, int], bool]] = {
    "beq": lambda lhs, rhs: lhs == rhs,
    "bne": lambda lhs, rhs: lhs != rhs,
    "blt": lambda lhs, rhs: to_signed(lhs) < to_signed(rhs),
    "bge": lambda lhs, rhs: to_signed(lhs) >= to_signed(rhs),
    "bltu": lambda lhs, rhs: lhs < rhs,
    "bgeu": lambda lhs, rhs: lhs >= rhs,
}

# Instruction kinds, in dispatch order (most frequent first).
_ALU_IMM, _ALU_REG, _BRANCH, _LOAD, _JAL, _STORE, _JALR, _CONST, _HALT = range(9)

#: ``(kind, rd, rs1, rs2, imm, function, latency, energy, category)``; ``imm``
#: holds what the kind needs: the ALU operand, the load/store or jalr offset,
#: the lui/auipc result, or the absolute branch/jal target.
_Decoded = Tuple[int, int, int, int, int, Optional[Callable], int, float, str]


def _reg(index: Optional[int]) -> int:
    # an absent source reads x0 (always 0); an absent destination is x0
    return 0 if index is None else index


class RiscvCPU:
    """Predecoded, run-ahead RV32IM subset core.

    Attributes:
        scheduler: shared event queue.
        bus: system interconnect for loads/stores.
        clock_hz: core clock (converts cycles to seconds for reports).
        name: instance name (used by multi-core / cluster configurations).
        latencies / energies: per-category base latency and dynamic
            energy, bound into the predecoded program by
            :meth:`load_program`.
        registers: the architectural register file (unsigned 32-bit words;
            fault injectors write it between events).
        interrupt_pending: set by :meth:`raise_interrupt` when a subscribed
            interrupt line fires; cleared by :meth:`load_program`.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        bus: SystemBus,
        clock_hz: float = 1e9,
        name: str = "cpu0",
        latencies: Optional[Dict[str, int]] = None,
        energies: Optional[Dict[str, float]] = None,
    ):
        self.scheduler = scheduler
        self.bus = bus
        self.clock_hz = float(clock_hz)
        self.name = name
        self.latencies = dict(DEFAULT_LATENCIES, **(latencies or {}))
        self.energies = dict(DEFAULT_ENERGIES, **(energies or {}))
        self.registers = [0] * N_REGISTERS
        self.pc = 0
        self.program: Optional[Program] = None
        self.halted = False
        self.interrupt_pending = False
        self.stats = CPUStats()
        self._decoded: Dict[int, _Decoded] = {}
        self._max_instructions: Optional[int] = None

    # ------------------------------------------------------------------ #
    # register file
    # ------------------------------------------------------------------ #
    def read_register(self, index: int) -> int:
        """Value of register ``x<index>`` (``x0`` always reads 0)."""
        if not 0 <= index < N_REGISTERS:
            raise CPUError(f"register x{index} out of range")
        return 0 if index == 0 else self.registers[index]

    # ------------------------------------------------------------------ #
    # program control
    # ------------------------------------------------------------------ #
    def load_program(self, program: Program, max_instructions: Optional[int] = None) -> None:
        """Load and predecode a program and reset the architectural state."""
        self.program = program
        # predecoded instructions by byte address: a misaligned or
        # out-of-program pc is simply a missing key
        self._decoded = {
            4 * index: self._decode(instruction, 4 * index)
            for index, instruction in enumerate(program.instructions)
        }
        self.pc = 0
        self.registers = [0] * N_REGISTERS
        self.halted = False
        self.interrupt_pending = False
        self.stats = CPUStats()
        self._max_instructions = max_instructions

    def _decode(self, instruction: Instruction, pc: int) -> _Decoded:
        """Resolve everything about one instruction that does not depend on state."""
        op = instruction.op
        category = instruction.category
        rd, rs1, rs2 = _reg(instruction.rd), _reg(instruction.rs1), _reg(instruction.rs2)
        imm, function = instruction.imm, None
        if op in ("ecall", "ebreak"):
            kind = _HALT
        elif op == "lui":
            kind, imm = _CONST, imm << 12
        elif op == "auipc":
            kind, imm = _CONST, pc + (imm << 12)
        elif op == "jal":
            kind, imm = _JAL, pc + imm
        elif op == "jalr":
            kind = _JALR
        elif op in BRANCH_OPS:
            kind, imm, function = _BRANCH, pc + imm, _BRANCH_FUNCTIONS[op]
        elif op == "lw":
            kind = _LOAD
        elif op == "sw":
            kind = _STORE
        else:
            base = _IMMEDIATE_BASE.get(op, op)
            if instruction.rs2 is not None:
                kind, function = _ALU_REG, _ALU_FUNCTIONS[base]
            elif base == "slt":
                kind, function = _ALU_IMM, _slt_immediate
            else:
                kind, imm, function = _ALU_IMM, to_unsigned(imm), _ALU_FUNCTIONS[base]
        return (
            kind, rd, rs1, rs2, imm, function,
            self.latencies[category], self.energies[category], category,
        )

    def start(self, delay: int = 0) -> None:
        """Schedule the first instruction fetch."""
        if self.program is None:
            raise CPUError("no program loaded")
        self.scheduler.schedule(delay, self._execute_next, label=f"{self.name}-fetch")

    def raise_interrupt(self) -> None:
        """Record an external interrupt (the interrupt controller's subscriber)."""
        self.interrupt_pending = True

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _execute_next(self) -> None:
        """Run ahead from the current cycle up to the scheduler's horizon."""
        if self.halted:
            return
        scheduler = self.scheduler
        bus = self.bus
        regs = self.registers
        decoded = self._decoded
        stats = self.stats
        per_category = stats.per_category
        max_instructions = self._max_instructions
        if max_instructions is None:
            max_instructions = math.inf
        instructions, cycles, energy = stats.instructions, stats.cycles, stats.energy_j
        pc = self.pc
        issue = scheduler.current_cycle
        horizon = scheduler.horizon()
        sequence = scheduler.sequence
        try:
            while True:
                if instructions >= max_instructions:
                    self.halted = True
                    break
                try:
                    kind, rd, rs1, rs2, imm, function, latency, joules, category = decoded[pc]
                except KeyError:
                    raise CPUError(f"pc {pc:#x} outside program") from None
                next_pc = pc + 4
                if kind == _ALU_IMM:
                    if rd:
                        regs[rd] = function(regs[rs1], imm) & WORD_MASK
                elif kind == _ALU_REG:
                    if rd:
                        regs[rd] = function(regs[rs1], regs[rs2]) & WORD_MASK
                elif kind == _BRANCH:
                    if function(regs[rs1], regs[rs2]):
                        next_pc = imm
                        stats.branches_taken += 1
                        latency += 1  # simple taken-branch penalty
                elif kind == _LOAD or kind == _STORE:
                    # the bus may start a device: it sees the issue cycle
                    scheduler.current_cycle = issue
                    address = (regs[rs1] + imm) & WORD_MASK
                    if kind == _LOAD:
                        value, access_latency = bus.read_word(address)
                        if rd:
                            regs[rd] = int(value) & WORD_MASK
                        stats.loads += 1
                    else:
                        access_latency = bus.write_word(address, regs[rs2])
                        stats.stores += 1
                    latency += access_latency
                    stats.stall_cycles += access_latency
                    if scheduler.sequence != sequence:
                        # the access scheduled an event (e.g. a device start)
                        horizon = scheduler.horizon()
                        sequence = scheduler.sequence
                elif kind == _JAL:
                    if rd:
                        regs[rd] = next_pc
                    next_pc = imm
                elif kind == _JALR:
                    target = (regs[rs1] + imm) & ~1
                    if rd:
                        regs[rd] = next_pc
                    next_pc = target & WORD_MASK
                elif kind == _CONST:
                    if rd:
                        regs[rd] = imm & WORD_MASK
                else:
                    self.halted = True
                instructions += 1
                cycles += latency
                energy += joules
                try:
                    per_category[category] += 1
                except KeyError:
                    per_category[category] = 1
                pc = next_pc
                if kind == _HALT:
                    break
                if issue + latency >= horizon:
                    scheduler.current_cycle = issue
                    scheduler.schedule(latency, self._execute_next, label=f"{self.name}-exec")
                    break
                issue += latency
        except (CPUError, MemoryAccessError) as exc:
            # Architectural faults halt the core; the SoC records the cause.
            self.halted = True
            self.fault_cause = str(exc)
        finally:
            self.pc = pc
            stats.instructions, stats.cycles, stats.energy_j = instructions, cycles, energy
            scheduler.current_cycle = issue

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def runtime_seconds(self) -> float:
        """Wall-clock runtime of the executed instructions at the core clock."""
        return self.stats.cycles / self.clock_hz
