"""The RISC-V core's basic-block translation and its cache.

Blocks are translated on first entry and cached per assembled program and
latency/energy table, in a bounded LRU shared by every core of the
process.  The simulated results themselves are pinned by
``test_cpu_runahead.py``.
"""

import pytest

import repro.system.cpu as cpu_module
from repro.system.assembler import assemble
from repro.system.bus import SystemBus
from repro.system.cpu import RiscvCPU
from repro.system.event import EventScheduler
from repro.system.memory import MainMemory
from repro.system.programs import vector_add_program

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


def test_generated_blocks_are_named_after_their_entry_pc(translations):
    program = assemble("li t0, 2\nloop:\naddi t0, t0, -1\nbnez t0, loop\nhalt")
    cpu = _run(_cpu(), program)
    names = {pc: block.__code__ for pc, block in cpu._translation.blocks.items()}
    assert names[4].co_filename == "<riscv block 0x4>"
    assert names[4].co_name == "block_0x4"


def test_a_non_architectural_error_propagates_after_the_state_is_kept(monkeypatch):
    cpu = _cpu()
    read_word = cpu.bus.read_word

    def failing(address, initiator=None):
        if address == 0x40:
            raise RuntimeError("device failure")
        return read_word(address, initiator)

    monkeypatch.setattr(cpu.bus, "read_word", failing)
    cpu.load_program(assemble("li t0, 0x40\naddi t1, t1, 1\nlw t2, 0(t0)\nhalt"))
    cpu.start()
    with pytest.raises(RuntimeError, match="device failure"):
        cpu.scheduler.run()
    assert (cpu.pc, cpu.stats.instructions, cpu.stats.cycles) == (8, 2, 2)
    assert cpu.fault_cause is None and not cpu.halted


@pytest.mark.parametrize("tables", [{"latencies": {"alu": 1.5}},
                                    {"energies": {"alu": float("inf")}}])
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
