"""The RISC-V core's basic-block translation, its cache and its main-memory path.

Blocks are translated on first entry and cached per assembled program and
latency/energy table, in a bounded LRU shared by every core of the
process.  Loads and stores inside the bus's main-memory window skip the
bus; every other access goes through it.  The simulated results
themselves are pinned by ``test_cpu_runahead.py``.
"""

import pytest

import repro.system.cpu as cpu_module
from repro.system.assembler import assemble
from repro.system.bus import SystemBus
from repro.system.cpu import RiscvCPU
from repro.system.event import EventScheduler
from repro.system.memory import MainMemory, Scratchpad
from repro.system.mmr import MemoryMappedRegisters
from repro.system.programs import vector_add_program
from test_cpu_runahead import TICKED_PROGRAMS, _soc_with_pe

MEMORY_BYTES = 1 << 16


def _cpu(**tables) -> RiscvCPU:
    scheduler = EventScheduler()
    bus = SystemBus()
    bus.attach(0, MEMORY_BYTES, MainMemory(MEMORY_BYTES), "mem")
    return RiscvCPU(scheduler, bus, **tables)


def _run(cpu: RiscvCPU, program) -> RiscvCPU:
    cpu.load_program(program)
    cpu.start()
    cpu.scheduler.run()
    return cpu


@pytest.fixture
def translations(monkeypatch):
    """An empty translation cache whose block translations are counted."""
    monkeypatch.setattr(cpu_module, "_TRANSLATIONS", type(cpu_module._TRANSLATIONS)())
    calls = []
    translate = cpu_module._translate_block

    def counting(program, pc, *args, **kwargs):
        calls.append(pc)
        return translate(program, pc, *args, **kwargs)

    monkeypatch.setattr(cpu_module, "_translate_block", counting)
    return calls


def test_a_reloaded_program_translates_each_block_once(translations):
    program = assemble(vector_add_program(0x100, 0x200, 0x300, 5))
    first = _run(_cpu(), program)
    translated = sorted(translations)
    assert translated and len(set(translated)) == len(translated)
    # the same program again, on the same core and on another one
    first_stats = first.stats
    again = _run(first, program)
    other = _run(_cpu(), program)
    assert sorted(translations) == translated
    assert again.stats == first_stats == other.stats


def test_a_different_latency_table_gets_its_own_translation(translations):
    program = assemble(vector_add_program(0x100, 0x200, 0x300, 5))
    default = _run(_cpu(), program)
    translated = len(translations)
    slow = _run(_cpu(latencies={"alu": 2}), program)
    assert len(translations) == 2 * translated
    assert len(cpu_module._TRANSLATIONS) == 2
    alu = default.stats.per_category["alu"]
    assert slow.stats.instructions == default.stats.instructions
    assert slow.stats.cycles == default.stats.cycles + alu


def test_the_cache_stays_within_its_bound(translations, monkeypatch):
    monkeypatch.setattr(cpu_module, "TRANSLATION_CACHE_SIZE", 3)
    programs = [assemble(f"li t0, {value}\nhalt") for value in range(5)]
    for program in programs:
        _run(_cpu(), program)
        assert len(cpu_module._TRANSLATIONS) <= 3
    # the most recent programs stay, each held by its entry
    assert [entry.program for entry in cpu_module._TRANSLATIONS.values()] == programs[2:]
    _run(_cpu(), programs[2])
    assert list(cpu_module._TRANSLATIONS.values())[-1].program is programs[2]


def test_a_max_instructions_cap_uses_a_truncated_block(translations):
    program = assemble("li t0, 1\nli t1, 2\nli t2, 3\nli t3, 4\nhalt")
    cpu = _cpu()
    cpu.load_program(program, max_instructions=2)
    cpu.start()
    cpu.scheduler.run()
    assert cpu.halted and cpu.fault_cause is None
    assert (cpu.stats.instructions, cpu.pc, cpu.registers[6], cpu.registers[7]) == (2, 8, 2, 0)
    assert translations == [0, 0]


#: a ``for`` loop: head branch at 0x8, body 0xc-0x14, ten passes
FOR_LOOP = "li t0, 0\nli t1, 10\nloop:\nbge t0, t1, done\naddi t2, t2, 3\naddi t0, t0, 1\n" \
    "j loop\ndone:\nhalt"


def test_a_capped_for_loop_runs_its_head_and_body_in_one_block(translations):
    program = assemble(FOR_LOOP)
    cpu = _cpu()
    # three passes, then the head and the first body instruction
    cpu.load_program(program, max_instructions=2 + 3 * 4 + 2)
    cpu.start()
    cpu.scheduler.run()
    assert cpu.halted and cpu.fault_cause is None
    assert (cpu.stats.instructions, cpu.pc, cpu.registers[5], cpu.registers[7]) == (16, 16, 3, 12)
    assert translations == [0, 8, 8]
    # the head's taken branch leaves after one instruction, so the budget
    # left for the halt is one, not the rest of the block
    cpu.load_program(program, max_instructions=2 + 10 * 4 + 2)
    cpu.start()
    cpu.scheduler.run()
    stats = cpu.stats
    assert (stats.instructions, stats.per_category["system"], cpu.registers[7]) == (44, 1, 30)


def test_generated_blocks_are_named_after_their_entry_pc(translations):
    program = assemble("li t0, 2\nloop:\naddi t0, t0, -1\nbnez t0, loop\nhalt")
    cpu = _run(_cpu(), program)
    names = {pc: block.__code__ for pc, block in cpu._translation.blocks.items()}
    assert names[4].co_filename == "<riscv block 0x4>"
    assert names[4].co_name == "block_0x4"


class _FailingRegisters(MemoryMappedRegisters):
    """An MMR block whose reads fail with an error that is not architectural."""

    def read_word(self, offset):
        raise RuntimeError("device failure")


def test_a_non_architectural_error_propagates_after_the_state_is_kept():
    cpu = _cpu()
    cpu.bus.attach(MEMORY_BYTES, 16, _FailingRegisters(), "failing")
    cpu.load_program(assemble(f"li t0, {MEMORY_BYTES}\naddi t1, t1, 1\nlw t2, 0(t0)\nhalt"))
    cpu.start()
    with pytest.raises(RuntimeError, match="device failure"):
        cpu.scheduler.run()
    assert (cpu.pc, cpu.stats.instructions, cpu.stats.cycles) == (8, 2, 2)
    assert cpu.fault_cause is None and not cpu.halted


def test_a_long_straight_run_adds_its_energy_in_program_order(translations):
    # one block of 3001 instructions; one expression of that many additions
    # would exceed the compiler's nesting limit
    program = assemble("\n".join(["addi t0, t0, 1", "mul t1, t0, t0"] * 1500) + "\nhalt")
    cpu = _run(_cpu(), program)
    energy = 0.0
    for _ in range(1500):
        energy += cpu_module.DEFAULT_ENERGIES["alu"]
        energy += cpu_module.DEFAULT_ENERGIES["mul"]
    energy += cpu_module.DEFAULT_ENERGIES["system"]
    assert translations == [0]
    assert repr(cpu.stats.energy_j) == repr(energy)
    assert (cpu.registers[5], cpu.registers[6]) == (1500, 1500 * 1500)


@pytest.mark.parametrize("tables", [{"latencies": {"alu": 1.5}},
                                    {"energies": {"alu": float("inf")}},
                                    {"latencies": {"alu": -1}}])
def test_tables_must_be_integer_latencies_and_finite_energies(tables):
    with pytest.raises((TypeError, ValueError)):
        _cpu(**tables).load_program(assemble("addi t0, t0, 1\nhalt"))


def test_a_counted_loop_runs_inside_one_block_call(translations):
    program = assemble("li t0, 1000\nloop:\naddi t0, t0, -1\nbnez t0, loop\nhalt")
    cpu = _run(_cpu(), program)
    calls = []
    blocks = cpu._translation.blocks

    def counted(block):
        def call(*args):
            calls.append(block.__name__)
            return block(*args)
        return call

    for pc, block in list(blocks.items()):
        blocks[pc] = counted(block)
    _run(cpu, program)
    # the entry run, every pass of the loop, and the halt
    assert calls == ["block_0x0", "block_0x4", "block_0xc"]
    assert cpu.stats.instructions == 1 + 2 * 1000 + 1
    assert cpu.stats.branches_taken == 999
    assert cpu.stats.per_category == {"alu": 1001, "branch": 1000, "system": 1}


#: a straight run of main-memory loads: one block, stopped after every instruction
STRAIGHT_LOADS = "li t0, 0x100\n" + "\n".join(
    f"lw t{1 + i % 2}, {4 * (i % 8)}(t0)\naddi t3, t3, 1" for i in range(100)
) + "\nhalt"


@pytest.mark.parametrize("max_instructions", [None, 1000])
def test_a_run_stopped_after_every_instruction_translates_linearly(
    translations, monkeypatch, max_instructions
):
    sizes, cuts = [], []
    translate = cpu_module._translate_block

    def sizing(*args, **kwargs):
        block = translate(*args, **kwargs)
        # a block cut to what is left of an instruction budget
        (sizes if kwargs.get("limit") in (None, 1) else cuts).append(block[1])
        return block

    monkeypatch.setattr(cpu_module, "_translate_block", sizing)

    def on_soc(build):
        def make():
            soc = _soc_with_pe()
            return soc.cpu, build(soc)
        return make

    programs = {"straight_loads": lambda: (_cpu(), STRAIGHT_LOADS)}
    programs.update((name, on_soc(build)) for name, build in TICKED_PROGRAMS.items())

    def run(make, ticks):
        cpu, source = make()
        program = assemble(source)
        # a no-op event at every cycle stops the core after every instruction
        for cycle in range(ticks):
            cpu.scheduler.schedule_at(cycle, lambda: None, label="tick")
        cpu.load_program(program, max_instructions=max_instructions)
        cpu.start()
        cpu.scheduler.run()
        return program, cpu.stats

    for name, make in programs.items():
        sizes.clear()
        cuts.clear()
        translations.clear()
        program, alone = run(make, 0)
        assert run(make, alone.cycles)[1] == alone, name
        # Each instruction is in one leader's block, and in one one-instruction
        # block where the core stopped before it or a pass there did not fit.
        assert len(program.instructions) < sum(sizes) <= 2 * len(program.instructions), name
        assert len(cuts) <= 1, name
        if name == "straight_loads":
            # its block, then a one-instruction block per pc, the first at
            # pc 0 where the block's pass did not fit
            assert translations.count(0) == 2
            assert sum(sizes) == 2 * len(program.instructions) and not cuts


# ---------------------------------------------------------------------- #
# the main-memory window
# ---------------------------------------------------------------------- #
class _TrackedMemory(MainMemory):
    """Main memory that counts its own word reads."""

    tracked = 0

    def read_word(self, address):
        self.tracked += 1
        return super().read_word(address)


def _bus_calls(monkeypatch, bus) -> list:
    """Record every ``read_word``/``write_word`` call that reaches ``bus``."""
    calls = []
    for name in ("read_word", "write_word"):
        method = getattr(bus, name)

        def counted(address, *args, method=method, name=name):
            calls.append((name, address))
            return method(address, *args)

        monkeypatch.setattr(bus, name, counted)
    return calls


def test_main_memory_accesses_inside_the_window_skip_the_bus(monkeypatch):
    cpu = _cpu()
    calls = _bus_calls(monkeypatch, cpu.bus)
    memory = cpu.bus.find(0).target
    memory.load_words(0x100, range(5))
    memory.load_words(0x200, range(10, 15))
    _run(cpu, assemble(vector_add_program(0x100, 0x200, 0x300, 5)))
    assert calls == []
    assert memory.dump_words(0x300, 5) == [10, 12, 14, 16, 18]
    # counted as the bus would have counted them
    assert (memory.stats.reads, memory.stats.writes) == (cpu.stats.loads, cpu.stats.stores)
    assert cpu.bus.transfers == cpu.stats.loads + cpu.stats.stores == 15


@pytest.mark.parametrize("address, cause", [
    # the mapping is larger than the memory behind it
    (0x1000, "address 0x1000 out of range"),
    (0x2000, "bus decode error: no target at 0x2000"),
    (0x102, "misaligned word access at 0x102"),
])
@pytest.mark.parametrize("op", ["lw", "sw"])
def test_an_access_outside_the_window_goes_through_the_bus(monkeypatch, address, cause, op):
    scheduler = EventScheduler()
    bus = SystemBus()
    bus.attach(0, 0x2000, MainMemory(0x1000), "mem")
    cpu = RiscvCPU(scheduler, bus)
    calls = _bus_calls(monkeypatch, bus)
    access = "lw t1, 0(t0)" if op == "lw" else "sw t1, 0(t0)"
    _run(cpu, assemble(f"li t0, {address}\nlw t2, 0x40(zero)\n{access}\nhalt"))
    name = "read_word" if op == "lw" else "write_word"
    assert calls == [(name, address)]
    assert cpu.halted and cpu.fault_cause == cause
    assert (cpu.pc, cpu.stats.instructions, bus.transfers) == (8, 2, 1)


def test_a_main_memory_subclass_goes_through_the_bus(monkeypatch):
    scheduler = EventScheduler()
    bus = SystemBus()
    memory = _TrackedMemory(MEMORY_BYTES)
    bus.attach(0, MEMORY_BYTES, memory, "mem")
    bus.attach(MEMORY_BYTES, 0x1000, Scratchpad(0x1000), "spm")
    calls = _bus_calls(monkeypatch, bus)
    cpu = _run(RiscvCPU(scheduler, bus),
               assemble(f"li t0, {MEMORY_BYTES}\nlw t1, 0(zero)\nsw t1, 0(t0)\nlw t2, 0(t0)\nhalt"))
    assert bus.main_memory_window() is None
    assert calls == [("read_word", 0), ("write_word", MEMORY_BYTES),
                     ("read_word", MEMORY_BYTES)]
    assert memory.tracked == 1 and cpu.fault_cause is None


def test_with_arbitration_on_every_access_goes_through_the_bus(monkeypatch):
    cpu = _cpu()
    cpu.bus.arbitration_penalty = 1
    assert cpu.bus.main_memory_window() is None
    calls = _bus_calls(monkeypatch, cpu.bus)
    _run(cpu, assemble(vector_add_program(0x100, 0x200, 0x300, 5)))
    assert len(calls) == cpu.stats.loads + cpu.stats.stores == 15
    # the window is read again at the next event
    cpu.bus.arbitration_penalty = 0
    calls.clear()
    _run(cpu, assemble(vector_add_program(0x100, 0x200, 0x300, 5)))
    assert calls == []
