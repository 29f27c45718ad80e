"""RISC-V (RV32IM subset) host CPU model.

An in-order, single-issue core with a simple timing model: every
instruction costs its category's base latency plus, for loads and stores,
the latency reported by the bus for the access.  This is deliberately a
*system-level* CPU model in the gem5 "timing simple" spirit — accurate
enough to compare a software GeMM against the photonic accelerator
offload, cheap enough to run fault-injection campaigns with thousands of
simulated executions.

The core executes *translated basic blocks*.  The first time it enters a
block leader (pc 0, a branch or ``jal`` target, or the pc after a branch,
jump or halt) it generates one Python function for the straight-line run
of instructions from there through the next branch, ``jal``, ``jalr`` or
halt, or up to the next leader.  Register indices, immediates, latencies
and energies are literals in that function, and the registers it uses
are locals: loaded on entry, stored back to :attr:`RiscvCPU.registers`
at every exit.  A block whose terminator is a ``j`` or a branch back to
its own entry, or a branch whose not-taken run ends in one (a ``for``
loop's head), keeps looping inside the same call; the body of such a
``for`` loop is no leader.  An event that stops the core inside a block
resumes at a pc that is no leader; from there the core runs
one-instruction blocks up to the next leader, so translation stays
within twice the program length however often the core is stopped.
Translations are cached per assembled :class:`Program` and latency/energy
table in a bounded LRU (:data:`TRANSLATION_CACHE_SIZE`), so a program
that runs again, on this core or another, is not translated again.

Loads and stores reach main memory directly.  Once per CPU event the core
asks the bus for its main-memory window
(:meth:`~repro.system.bus.SystemBus.main_memory_window`): the base and
size of the lowest mapping whose target is exactly a
:class:`~repro.system.memory.MainMemory`, that memory's words and
counters, and its read and write latencies with the bus traversal.  An
aligned access inside the window indexes the words and counts exactly
what the bus would count: one memory read or write, one bus transfer and
the same latency.  It schedules nothing and reads no clock, so it skips
the ``current_cycle`` store and the horizon re-read.  Every other access
(register blocks, scratchpads, a misaligned or out-of-range address, a
``MainMemory`` subclass) calls ``bus.read_word``/``write_word`` and
faults with the same message and state as ever.  There is no window
while bus arbitration is on, so every access then pays its round-robin
delay through the bus.  The window is read again at every event: the
address map, the latencies and the arbitration setting may change
between events, never inside one.

The CPU shares the :class:`repro.system.event.EventScheduler` with the DMA
engines, accelerators, interrupt controller and fault injectors, but it
does not spend one event per instruction.  A CPU event *runs ahead*: it
calls block after block while the next issue cycle is strictly below the
scheduler's :meth:`~repro.system.event.EventScheduler.horizon` (the
earliest pending event, or the end of the current ``run()``), and
schedules one event at the cycle where it stopped.  Inside a block the
horizon is checked once per *pass* (the block once through, or one round
of its loop).  A pass runs only if its last instruction issues below the
horizon when every load and store in it costs the window's latency; the
loop's back edge checks the next pass the same way.  A pass that does not
fit runs its first instruction alone, and the event goes on in
one-instruction blocks, each followed by the dispatcher's check, up to
the next leader, whose block checks its pass again.  A load or store
outside the window moves the block's clock by its real latency, re-reads
the horizon if it scheduled an event, and leaves the block after itself
when the rest of the pass no longer fits.  So no other component acts
between two instructions of one event: every cycle count,
joule, register value and the interleaving with DMA transfers,
accelerator completions, interrupts and injected faults are exactly those
of one event per instruction.  On a tie the pending event runs first: it
was scheduled earlier, so it holds the lower sequence number.

A block adds each straight run of its instructions' energy literals in
one expression, ``energy + a + b + ...``: left to right, in program
order, so the float sum is the per-instruction one.  Every way out of a
block is an exit that holds the block's static counts up to there
(instructions, loads, stores, taken branch, base cycles and the
per-category counts in first-occurrence order); a loop counts each pass
that goes round as its back edge's exit.  When the event stops it folds
the exits it passed into :class:`CPUStats`; a run capped by
``max_instructions`` executes the same blocks without their loops, cut
to the remaining budget.  A load or store that raises leaves pc,
counters, cycles and ``current_cycle`` as they were before the faulting
instruction.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.system.assembler import Program
from repro.system.event import EventScheduler
from repro.system.bus import SystemBus
from repro.system.isa import BRANCH_OPS, N_REGISTERS
from repro.system.memory import MemoryAccessError, to_signed

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
# block translation
# ---------------------------------------------------------------------- #
#: translations kept per process, one per program and latency/energy table
TRANSLATION_CACHE_SIZE = 64


# Register values are unsigned 32-bit words, so ``x ^ 0x80000000`` orders
# words as signed values and ``(x ^ 0x80000000) - 0x80000000`` is
# ``to_signed(x)``.  ``div``/``rem`` truncate toward zero; by zero they
# give -1 and the dividend.
def _div(lhs: int, rhs: int) -> int:
    divisor = to_signed(rhs)
    return -1 if divisor == 0 else int(to_signed(lhs) / divisor)


def _rem(lhs: int, rhs: int) -> int:
    dividend, divisor = to_signed(lhs), to_signed(rhs)
    return dividend if divisor == 0 else dividend - int(dividend / divisor) * divisor


#: result of each ALU/MUL operation on ``{a}`` (rs1 value) and ``{b}`` (the
#: rs2 value or, for an immediate form, the immediate wrapped to a word)
_ALU_TEMPLATES: Dict[str, str] = {
    "add": "({a} + {b}) & 0xFFFFFFFF",
    "sub": "({a} - {b}) & 0xFFFFFFFF",
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "slt": "1 if {a} ^ 0x80000000 < {b} ^ 0x80000000 else 0",
    "sltu": "1 if {a} < {b} else 0",
    "sll": "({a} << ({b} & 31)) & 0xFFFFFFFF",
    "srl": "{a} >> ({b} & 31)",
    "sra": "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)) & 0xFFFFFFFF",
    "mul": "({a} * {b}) & 0xFFFFFFFF",
    "mulh": "((({a} ^ 0x80000000) - 0x80000000) * (({b} ^ 0x80000000) - 0x80000000)"
            " >> 32) & 0xFFFFFFFF",
    "div": "_div({a}, {b}) & 0xFFFFFFFF",
    "rem": "_rem({a}, {b}) & 0xFFFFFFFF",
}

#: slti compares against the immediate as written, not its 32-bit wrap
_SLTI_TEMPLATE = "1 if ({a} ^ 0x80000000) - 0x80000000 < {b} else 0"

#: register-register operation behind each immediate mnemonic
_IMMEDIATE_BASE = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor", "slti": "slt",
    "sltiu": "sltu", "slli": "sll", "srli": "srl", "srai": "sra",
}

_BRANCH_TEMPLATES: Dict[str, str] = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "{a} ^ 0x80000000 < {b} ^ 0x80000000",
    "bge": "{a} ^ 0x80000000 >= {b} ^ 0x80000000",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}


class _Exit:
    """One way out of a translated block: its static counts up to there."""

    __slots__ = ("instructions", "loads", "stores", "taken", "base_cycles", "per_category",
                 "halts")

    def __init__(self, instructions, loads, stores, taken, base_cycles, per_category, halts):
        self.instructions = instructions
        self.loads = loads
        self.stores = stores
        self.taken = taken
        #: cycles without bus latency; the rest of an event's cycles are stalls
        self.base_cycles = base_cycles
        #: ``(category, count)`` in first-occurrence order
        self.per_category = per_category
        self.halts = halts


#: what a block returns, having run nothing, when its pass does not fit
#: before the horizon: the core then runs its first instruction alone
_DECLINED = _Exit(0, 0, 0, 0, 0, (), False)


class _BlockFault(Exception):
    """A load or store raised inside a block (the cause is ``__cause__``).

    Carries the state before the faulting instruction: its pc and issue
    cycle, the energy so far, and the exit of the instructions the block
    executed before it (``None`` when it was the first).
    """

    def __init__(self, pc: int, issue: int, energy: float, executed: Optional[_Exit]):
        super().__init__(pc)
        self.pc = pc
        self.issue = issue
        self.energy = energy
        self.executed = executed


def _reg(index: Optional[int]) -> int:
    # an absent source reads x0 (always 0); an absent destination is x0
    return 0 if index is None else operator.index(index)


def _literal_tables(
    latencies: Dict[str, int], energies: Dict[str, float]
) -> Tuple[Dict[str, int], Dict[str, str]]:
    """Latencies as non-negative ints and energies as float literals (rejects anything else)."""
    cycles = {category: operator.index(value) for category, value in latencies.items()}
    for category, value in cycles.items():
        # a pass's cost is its longest prefix only if no latency is negative
        if value < 0:
            raise ValueError(f"{category} latency must be non-negative, got {value}")
    literals = {}
    for category, value in energies.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{category} energy must be finite, got {value!r}")
        literals[category] = repr(value)
    return cycles, literals


#: a translated block without a loop: ``(function, instruction count)``
_Block = Tuple[Callable, int]

_TERMINATORS = BRANCH_OPS | {"jal", "jalr", "ecall", "ebreak"}


def _straight_run(instructions, index: int, leaders, limit: Optional[int] = None) -> List[int]:
    """Instruction indices from ``index`` through the next terminator or up to the next leader."""
    run: List[int] = []
    while index < len(instructions) and len(run) != limit:
        run.append(index)
        if instructions[index].op in _TERMINATORS or 4 * index + 4 in leaders:
            break
        index += 1
    return run


def _leaders(instructions) -> frozenset:
    """Byte addresses where control flow starts a block.

    pc 0, every branch and ``jal`` target, and every pc after a branch,
    jump or halt (where a call returns and a not-taken branch falls
    through), but for the body of a ``for`` loop: the pc after its head's
    branch is entered only inside the loop's block (:func:`_plan`), unless
    it is a target too.  Every instruction thus belongs to the block of
    one leader and at most one loop.  An event that stops the core
    elsewhere resumes inside a block.
    """
    targets = {0}
    leaders = set()
    for index, instruction in enumerate(instructions):
        if instruction.op in BRANCH_OPS or instruction.op == "jal":
            targets.add(4 * index + instruction.imm)
        if instruction.op in _TERMINATORS:
            leaders.add(4 * index + 4)
    leaders |= targets
    bodies = set()
    for head in targets:
        if head % 4 == 0 and 0 <= head < 4 * len(instructions):
            path, _ = _plan(instructions, head, True, None, leaders)
            bodies.update(4 * index + 4 for index in path[:-1]
                          if instructions[index].op in BRANCH_OPS)
    return frozenset(leaders - (bodies - targets))


def _jumps_to(instructions, index: int, entry: int) -> bool:
    """Whether instruction ``index`` is a ``j`` or a branch to byte address ``entry``."""
    instruction = instructions[index]
    if instruction.op in BRANCH_OPS or (instruction.op == "jal" and not instruction.rd):
        return 4 * index + instruction.imm == entry
    return False


def _plan(
    instructions, pc: int, loop: bool, limit: Optional[int], leaders
) -> Tuple[List[int], bool]:
    """The instruction indices of the block at ``pc`` and whether they loop.

    A block is the straight run from ``pc`` through its terminator or up to
    the next leader; at a ``for`` loop's head (a branch whose not-taken run
    ends in a ``j`` or branch back to ``pc``) it is the head and that body.
    ``limit`` cuts it to that many instructions.  With ``loop`` an uncut
    block whose last instruction jumps back to ``pc`` runs again inside the
    same call.
    """
    run = _straight_run(instructions, pc // 4, leaders, limit)
    last = run[-1]
    if (len(run) != limit and instructions[last].op in BRANCH_OPS
            and not _jumps_to(instructions, last, pc)):
        rest = _straight_run(instructions, last + 1, leaders)
        if rest and _jumps_to(instructions, rest[-1], pc):
            run += rest
    if limit is not None and len(run) > limit:
        return run[:limit], False
    return run, loop and _jumps_to(instructions, run[-1], pc)


def _cycles(literal: int, reads: int, writes: int) -> str:
    """Source of ``literal`` cycles plus ``reads`` window read and ``writes`` write latencies."""
    terms = [str(literal)] if literal or not (reads or writes) else []
    for count, name in ((reads, "read_latency"), (writes, "write_latency")):
        if count:
            terms.append(name if count == 1 else f"{count} * {name}")
    return " + ".join(terms)


def _result(instruction, here: int, imm: Optional[int], a: str, b: str) -> str:
    """Source of an ALU/MUL/``lui``/``auipc`` result from operand sources ``a`` and ``b``."""
    op = instruction.op
    if op == "lui":
        return str((imm << 12) & 0xFFFFFFFF)
    if op == "auipc":
        return str((here + (imm << 12)) & 0xFFFFFFFF)
    base = _IMMEDIATE_BASE.get(op, op)
    if instruction.rs2 is not None:
        return _ALU_TEMPLATES[base].format(a=a, b=b)
    if base == "slt":
        return _SLTI_TEMPLATE.format(a=a, b=imm)
    return _ALU_TEMPLATES[base].format(a=a, b=imm & 0xFFFFFFFF)


#: energy literals added in one expression at most; a longer run is split
#: so that the generated expression stays shallow
_ENERGY_RUN = 32


def _translate_block(
    program: Program,
    pc: int,
    leaders: frozenset,
    latencies: Dict[str, int],
    energies: Dict[str, str],
    loop: bool = True,
    limit: Optional[int] = None,
) -> _Block:
    """Generate the function of the basic block that starts at ``pc``.

    The block runs through the next branch, ``jal``, ``jalr`` or halt (at
    a ``for`` loop's head, through its body), up to the next of
    ``leaders`` (:func:`_leaders`), to the end of the program, or to
    ``limit`` instructions; with ``loop`` it may also loop back to ``pc``
    (:func:`_plan`).  The function is
    ``block(regs, bus, scheduler, t, horizon, sequence, energy, visits, window)``
    with ``t`` the first instruction's issue cycle and ``window`` the bus's
    main-memory window (:data:`_NO_WINDOW` when it has none); ``energies``
    are float literals (:func:`_literal_tables`).  It returns ``(next pc, issue
    cycle of its last instruction, that instruction's latency, energy,
    exit)``.

    A pass (the block once through, or one round of its loop) checks the
    horizon once: it runs only if every instruction after its first issues
    before ``horizon`` when each load and store costs the window's latency.
    Otherwise the block returns :data:`_DECLINED` at entry, or its back
    edge's exit before the next pass.  A load or store outside the window
    goes through the bus, moves ``t`` by the difference and checks the rest
    of the pass again; a rest that no longer fits returns after it.  The
    registers the block uses are locals, stored back at every exit; energy
    literals are added left to right, as many as run straight.  The passes
    of a loop that went round are counted in ``visits`` as the back edge's
    exit (``DONE``) when the block leaves.  The source holds only integer
    and float literals and fixed templates.
    """
    instructions = program.instructions
    if pc % 4 or not 0 <= pc < 4 * len(instructions):
        raise CPUError(f"pc {pc:#x} outside program")
    path, loops = _plan(instructions, pc, loop, limit, leaders)
    steps = [instructions[index] for index in path]
    name = f"block_{pc:#x}"
    namespace: Dict[str, object] = {
        "_div": _div, "_rem": _rem, "_BlockFault": _BlockFault, "_DECLINED": _DECLINED,
    }
    per_category: Dict[str, int] = {}
    counts = {"instructions": 0, "loads": 0, "stores": 0, "base_cycles": 0}

    def exit_(taken: int = 0, halts: bool = False, label: Optional[str] = None) -> str:
        exit_name = label or f"X{len(namespace)}"
        namespace[exit_name] = _Exit(
            counts["instructions"], counts["loads"], counts["stores"], taken,
            counts["base_cycles"] + taken, tuple(per_category.items()), halts,
        )
        return exit_name

    # Registers in first-use order: those read before the block writes
    # them are loaded at entry, and a loop loads every register it writes
    # too, since its exits store them back from any pass.
    loaded: List[int] = []
    written: List[int] = []
    for instruction in steps:
        for source in (_reg(instruction.rs1), _reg(instruction.rs2)):
            if source and source not in written and source not in loaded:
                loaded.append(source)
        target = _reg(instruction.rd)
        if target and target not in written:
            written.append(target)
    if loops:
        loaded += [index for index in written if index not in loaded]

    # the cycles from the pass's first issue to its last one, and (a loop)
    # to the next pass's first issue, with every access in the window
    before_last = [0, 0, 0]
    for instruction in steps[:-1]:
        before_last[0] += latencies[instruction.category]
        before_last[1] += instruction.op == "lw"
        before_last[2] += instruction.op == "sw"
    fits = _cycles(*before_last)
    back = latencies[steps[-1].category] + (steps[-1].op in BRANCH_OPS)
    full, again = str(before_last[0] + back), str(2 * before_last[0] + back)

    lines = [f"def {name}(regs, bus, scheduler, t, horizon, sequence, energy, visits, window):"]
    if any(instruction.op in ("lw", "sw") for instruction in steps):
        lines.append("    mbase, msize, words, mstats, read_latency, write_latency = window")
        if not fits.isdigit():
            lines.append(f"    fits = {fits}")
            fits = "fits"
            if loops:
                lines += [f"    full = fits + {back}", "    again = full + fits"]
                full, again = "full", "again"
    if len(steps) > 1:
        lines += [f"    if t + {fits} >= horizon:", f"        return {pc}, t, 0, energy, _DECLINED"]
    lines += [f"    x{index} = regs[{index}]" for index in loaded]
    if loops:
        lines += ["    passes = 0", "    while True:"]
    depth = 2 if loops else 1

    def emit(*code: str, indent: int = 0) -> None:
        pad = "    " * (depth + indent)
        lines.extend(pad + line for line in code)

    # the energy literals added since the last ``energy = ...`` statement
    pending: List[str] = []

    def energy_sum() -> str:
        return " + ".join(["energy", *pending])

    def fold_energy() -> None:
        emit(f"energy = {energy_sum()}")
        pending.clear()

    #: registers written so far, in a block without a loop
    stored: List[int] = []

    def leave(statement: str, indent: int = 0) -> None:
        # an exit: registers back to the file, uncounted passes to ``visits``
        code = [f"regs[{index}] = x{index}" for index in (written if loops else stored)]
        if loops:
            code += ["if passes:", "    visits[DONE] = visits.get(DONE, 0) + passes"]
        emit(*code, statement, indent=indent)

    def go_round(issue: str, latency: int, taken: int, indent: int = 0) -> None:
        # the loop's back edge: one more pass if all of it fits
        exit_(taken=taken, label="DONE")
        emit(f"if t + {again} >= horizon:", indent=indent)
        leave(f"return {pc}, {issue}, {latency}, energy, DONE", indent=indent + 1)
        emit(f"t += {full}", "passes += 1", indent=indent)

    def store(index: int) -> None:
        if index and index not in stored:
            stored.append(index)

    # the cycles from the pass's first issue to this instruction's
    prefix = [0, 0, 0]
    for position, instruction in enumerate(steps):
        op, category = instruction.op, instruction.category
        here, next_pc = 4 * path[position], 4 * path[position] + 4
        final = position == len(steps) - 1
        rd, rs1, rs2 = _reg(instruction.rd), _reg(instruction.rs1), _reg(instruction.rs2)
        imm = None if instruction.imm is None else operator.index(instruction.imm)
        a, b = (f"x{index}" if index else "0" for index in (rs1, rs2))
        latency, joules = latencies[category], energies[category]
        issue = f"t + {_cycles(*prefix)}" if any(prefix) else "t"
        # a faulting load or store leaves the state after the instructions before it
        faulted = exit_() if op in ("lw", "sw") and counts["instructions"] else "None"
        before = energy_sum()
        counts["instructions"] += 1
        counts["base_cycles"] += latency
        per_category[category] = per_category.get(category, 0) + 1
        pending.append(joules)
        emit(f"# {here:#x}: {op}")
        if op in BRANCH_OPS:
            target = here + imm
            condition = _BRANCH_TEMPLATES[op].format(a=a, b=b)
            if loops and final:
                fold_energy()
                emit(f"if {condition}:")
                go_round(issue, latency + 1, taken=1, indent=1)
                emit("else:")
                leave(f"return {next_pc}, {issue}, {latency}, energy, {exit_()}", indent=1)
                break
            emit(f"if {condition}:")
            leave(f"return {target}, {issue}, {latency + 1}, {energy_sum()}, {exit_(taken=1)}",
                  indent=1)
            if final:
                leave(f"return {next_pc}, {issue}, {latency}, {energy_sum()}, {exit_()}")
                break
            # a branch inside a loop: the not-taken path stays in the block
        elif op == "jal":
            if rd:
                emit(f"x{rd} = {next_pc}")
                store(rd)
            if loops:
                fold_energy()
                go_round(issue, latency, taken=0)
            else:
                leave(f"return {here + imm}, {issue}, {latency}, {energy_sum()}, {exit_()}")
            break
        elif op == "jalr":
            emit(f"target = ({a} + {imm}) & 0xFFFFFFFE")
            if rd:
                emit(f"x{rd} = {next_pc}")
                store(rd)
            leave(f"return target, {issue}, {latency}, {energy_sum()}, {exit_()}")
            break
        elif op in ("ecall", "ebreak"):
            leave(f"return {next_pc}, {issue}, {latency}, {energy_sum()}, {exit_(halts=True)}")
            break
        elif op in ("lw", "sw"):
            emit(f"address = ({a} + {imm}) & 0xFFFFFFFF" if imm else f"address = {a}",
                 "offset = address - mbase",
                 # main memory: exactly what the bus counts, without its decode
                 "if 0 <= offset < msize and not offset & 3:")
            if op == "lw":
                counts["loads"] += 1
                prefix[1] += 1
                window_latency = "read_latency"
                if rd:
                    emit(f"x{rd} = words.item(offset >> 2)", indent=1)
                emit("mstats.reads += 1", "bus.transfers += 1", indent=1)
                access = ("value, access = bus.read_word(address)" if rd
                          else "access = bus.read_word(address)[1]")
            else:
                counts["stores"] += 1
                prefix[2] += 1
                window_latency = "write_latency"
                emit(f"words[offset >> 2] = {b} & 0xFFFFFFFF",
                     "mstats.writes += 1", "bus.transfers += 1", indent=1)
                access = f"access = bus.write_word(address, {b})"
            if final:
                emit(f"latency = {latency} + {window_latency}", indent=1)
            # Anywhere else the bus may start a device, so it sees the issue
            # cycle.  Any exception leaves with the state before this
            # instruction: the core halts on a MemoryAccessError and
            # re-raises anything else.
            emit("else:",
                 f"    issue = {issue}",
                 "    scheduler.current_cycle = issue",
                 "    try:",
                 f"        {access}",
                 "    except Exception as exc:")
            leave(f"raise _BlockFault({here}, issue, {before}, {faulted}) from exc", indent=2)
            if op == "lw" and rd:
                emit(f"x{rd} = int(value) & 0xFFFFFFFF", indent=1)
                store(rd)
            # an access that scheduled an event (a device start) moves the horizon
            emit("if scheduler.sequence != sequence:",
                 "    horizon = scheduler.horizon()",
                 "    sequence = scheduler.sequence", indent=1)
            if final:
                emit(f"latency = {latency} + access", indent=1)
                leave(f"return {next_pc}, {issue}, latency, {energy_sum()}, {exit_()}")
                break
            # the rest of the pass, from the cycle this access really took
            emit(f"t += access - {window_latency}", f"if t + {fits} >= horizon:", indent=1)
            leave(f"return {next_pc}, issue, {latency} + access, {energy_sum()}, {exit_()}",
                  indent=2)
        else:
            if rd:
                emit(f"x{rd} = {_result(instruction, here, imm, a, b)}")
                store(rd)
            if final:
                # the end of the program or of the instruction budget
                leave(f"return {next_pc}, {issue}, {latency}, {energy_sum()}, {exit_()}")
                break
        prefix[0] += latency
        if len(pending) == _ENERGY_RUN:
            fold_energy()
    filename = f"<riscv block {pc:#x}>" if limit is None else f"<riscv block {pc:#x}:{limit}>"
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace)
    return namespace[name], counts["instructions"]


class _Translation:
    """The translated blocks of one program under one latency/energy table.

    A block starts at a leader (:func:`_leaders`).  At any other pc, where
    an event stopped the core inside a block, the core runs one-instruction
    blocks up to the next leader; so does a pass that does not fit before
    the horizon, after its first instruction runs alone.  A run that is
    stopped after every instruction thus costs each pc its leader's block
    and one one-instruction block, not a tail block per resume pc.
    """

    __slots__ = ("program", "latencies", "energies", "leaders", "blocks", "_straight")

    def __init__(self, program: Program, latencies: Dict[str, int], energies: Dict[str, float]):
        #: held so that ``id(program)`` in the cache key stays this program's
        self.program = program
        self.latencies, self.energies = _literal_tables(latencies, energies)
        self.leaders = _leaders(program.instructions)
        #: entry pc -> block function
        self.blocks: Dict[int, Callable] = {}
        #: ``(entry pc, instruction limit or None)`` -> block without a loop
        self._straight: Dict[Tuple[int, Optional[int]], _Block] = {}

    def translate(self, pc: int) -> Callable:
        """Translate the block at ``pc`` and add it to :attr:`blocks`."""
        if pc in self.leaders:
            block, _ = _translate_block(
                self.program, pc, self.leaders, self.latencies, self.energies
            )
        else:
            block = self._unlooped(pc, 1)[0]
        self.blocks[pc] = block
        return block

    def capped(self, pc: int, budget: int) -> Callable:
        """The block at ``pc`` without its loop, cut to ``budget`` instructions."""
        if budget == 1 or pc not in self.leaders:
            return self._unlooped(pc, 1)[0]
        block, size = self._unlooped(pc, None)
        return block if size <= budget else self._unlooped(pc, budget)[0]

    def _unlooped(self, pc: int, limit: Optional[int]) -> _Block:
        entry = self._straight.get((pc, limit))
        if entry is None:
            entry = self._straight[pc, limit] = _translate_block(
                self.program, pc, self.leaders, self.latencies, self.energies,
                loop=False, limit=limit,
            )
        return entry


_TRANSLATIONS: "OrderedDict[tuple, _Translation]" = OrderedDict()

#: the window of a bus without one: every address falls outside it
_NO_WINDOW = (0, 0, None, None, 0, 0)


def _translation_for(
    program: Program, latencies: Dict[str, int], energies: Dict[str, float]
) -> _Translation:
    """The cached translation of ``program`` under these tables (LRU, bounded)."""
    key = (id(program), tuple(sorted(latencies.items())), tuple(sorted(energies.items())))
    translation = _TRANSLATIONS.get(key)
    if translation is None:
        translation = _TRANSLATIONS[key] = _Translation(program, latencies, energies)
        while len(_TRANSLATIONS) > TRANSLATION_CACHE_SIZE:
            _TRANSLATIONS.popitem(last=False)
    else:
        _TRANSLATIONS.move_to_end(key)
    return translation


class RiscvCPU:
    """Block-translating, run-ahead RV32IM subset core.

    Attributes:
        scheduler: shared event queue.
        bus: system interconnect for loads/stores.
        clock_hz: core clock (converts cycles to seconds for reports).
        name: instance name (used by multi-core / cluster configurations).
        latencies / energies: per-category base latency (int cycles) and
            dynamic energy (finite joules), read by :meth:`load_program`
            to pick the program's translation.
        registers: the architectural register file (unsigned 32-bit words;
            fault injectors write it between events).
        interrupt_pending: set by :meth:`raise_interrupt` when a subscribed
            interrupt line fires; cleared by :meth:`load_program`.
        fault_cause: why the loaded program stopped on an architectural
            fault (bad pc, rejected load or store), else ``None``.
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
        self.fault_cause: Optional[str] = None
        self.stats = CPUStats()
        self._translation: Optional[_Translation] = None
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
        """Load a program and reset the architectural state."""
        self.program = program
        self._translation = _translation_for(program, self.latencies, self.energies)
        self.pc = 0
        self.registers = [0] * N_REGISTERS
        self.halted = False
        self.interrupt_pending = False
        self.fault_cause = None
        self.stats = CPUStats()
        self._max_instructions = max_instructions

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
        """Run translated blocks from the current cycle up to the scheduler's horizon."""
        if self.halted:
            return
        scheduler = self.scheduler
        bus = self.bus
        regs = self.registers
        translation = self._translation
        blocks, fetch = translation.blocks, translation.translate
        stats = self.stats
        budget = None
        if self._max_instructions is not None:
            budget = self._max_instructions - stats.instructions
            # a capped run fetches every block cut to the remaining budget
            blocks = {}
        pc = self.pc
        energy = stats.energy_j
        start = t = scheduler.current_cycle
        # latency of the last instruction when the event stops after it
        pending = 0
        horizon = scheduler.horizon()
        sequence = scheduler.sequence
        visits: Dict[_Exit, int] = {}
        seen = visits.get
        window = bus.main_memory_window() or _NO_WINDOW
        exit_ = _DECLINED
        try:
            while True:
                block = blocks.get(pc)
                if block is None:
                    if budget is None:
                        block = fetch(pc)
                    else:
                        # what the last block ran: a branch may leave early
                        budget -= exit_.instructions
                        if budget <= 0:
                            self.halted = True
                            break
                        block = translation.capped(pc, budget)
                pc, t, latency, energy, exit_ = block(
                    regs, bus, scheduler, t, horizon, sequence, energy, visits, window
                )
                if exit_ is _DECLINED:
                    # The pass does not fit before the horizon: its first
                    # instruction runs alone, then the one-instruction
                    # blocks up to the next leader.
                    pc, t, latency, energy, exit_ = translation.capped(pc, 1)(
                        regs, bus, scheduler, t, horizon, sequence, energy, visits, window
                    )
                visits[exit_] = seen(exit_, 0) + 1
                if exit_.halts:
                    self.halted = True
                    pending = latency
                    break
                if scheduler.sequence != sequence:
                    horizon = scheduler.horizon()
                    sequence = scheduler.sequence
                if t + latency >= horizon:
                    pending = latency
                    scheduler.current_cycle = t
                    scheduler.schedule(latency, self._execute_next, label=f"{self.name}-exec")
                    break
                t += latency
        except _BlockFault as fault:
            pc, t, energy = fault.pc, fault.issue, fault.energy
            if fault.executed is not None:
                visits[fault.executed] = seen(fault.executed, 0) + 1
            cause = fault.__cause__
            if not isinstance(cause, MemoryAccessError):
                raise cause from None
            # Architectural faults halt the core; the SoC records the cause.
            self.halted = True
            self.fault_cause = str(cause)
        except CPUError as exc:
            self.halted = True
            self.fault_cause = str(exc)
        finally:
            self.pc = pc
            self._commit(visits, t + pending - start, energy)
            scheduler.current_cycle = t

    def _commit(self, visits: Dict[_Exit, int], cycles: int, energy: float) -> None:
        """Fold one event's block exits, cycles and energy into the statistics."""
        stats = self.stats
        per_category = stats.per_category
        instructions = loads = stores = taken = base_cycles = 0
        # first visits come in program order, so new categories are added
        # in the order they first executed
        for exit_, n in visits.items():
            instructions += n * exit_.instructions
            loads += n * exit_.loads
            stores += n * exit_.stores
            taken += n * exit_.taken
            base_cycles += n * exit_.base_cycles
            for category, count in exit_.per_category:
                per_category[category] = per_category.get(category, 0) + n * count
        stats.instructions += instructions
        stats.cycles += cycles
        stats.loads += loads
        stats.stores += stores
        stats.branches_taken += taken
        stats.stall_cycles += cycles - base_cycles
        stats.energy_j = energy

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def runtime_seconds(self) -> float:
        """Wall-clock runtime of the executed instructions at the core clock."""
        return self.stats.cycles / self.clock_hz
