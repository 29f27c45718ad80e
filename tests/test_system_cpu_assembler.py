"""Tests for the assembler and the RV32IM CPU model."""

import numpy as np
import pytest

from repro.system.assembler import AssemblyError, assemble
from repro.system.bus import SystemBus
from repro.system.cpu import RiscvCPU
from repro.system.event import EventScheduler
from repro.system.isa import Instruction, IllegalInstructionError, parse_register
from repro.system.memory import MainMemory
from repro.system.programs import dot_product_program, gemm_program, vector_add_program


def run_source(source, memory_size=1 << 16, preload=None, max_cycles=2_000_000):
    """Assemble and run a program on a minimal CPU + memory system."""
    scheduler = EventScheduler()
    bus = SystemBus()
    memory = MainMemory(memory_size)
    bus.attach(0, memory_size, memory, "mem")
    if preload:
        for address, words in preload.items():
            memory.load_words(address, words)
    cpu = RiscvCPU(scheduler, bus)
    cpu.load_program(assemble(source))
    cpu.start()
    scheduler.run(max_cycles=max_cycles)
    return cpu, memory


class TestISA:
    def test_parse_register_abi_and_numeric(self):
        assert parse_register("a0") == 10
        assert parse_register("x31") == 31
        assert parse_register("sp") == 2

    def test_parse_register_rejects_garbage(self):
        with pytest.raises(IllegalInstructionError):
            parse_register("y5")
        with pytest.raises(IllegalInstructionError):
            parse_register("x32")

    def test_instruction_category(self):
        assert Instruction(op="add", rd=1, rs1=2, rs2=3).category == "alu"
        assert Instruction(op="lw", rd=1, rs1=2, imm=0).category == "load"
        assert Instruction(op="beq", rs1=1, rs2=2, imm=8).category == "branch"
        assert Instruction(op="mul", rd=1, rs1=2, rs2=3).category == "mul"

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(IllegalInstructionError):
            Instruction(op="frobnicate")


class TestAssembler:
    def test_labels_and_branches(self):
        program = assemble("""
            li t0, 3
        loop:
            addi t0, t0, -1
            bnez t0, loop
            halt
        """)
        assert len(program) == 4
        assert "loop" in program.labels

    def test_assembly_is_memoized_into_a_read_only_program(self):
        source = "start:\n    addi x1, x0, 1\n    halt"
        program = assemble(source)
        assert assemble(source) is program
        with pytest.raises(TypeError):
            program.labels["start"] = 8
        assert program.labels["start"] == 0

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("""
            # a comment
            li a0, 1   ; trailing comment

            halt
        """)
        assert len(program) == 2

    def test_pseudo_instructions_expand(self):
        program = assemble("nop\nmv a0, a1\nj end\nend: halt")
        ops = [instruction.op for instruction in program.instructions]
        assert ops == ["addi", "addi", "jal", "ebreak"]

    def test_memory_operand_syntax(self):
        program = assemble("lw a0, 8(sp)\nsw a0, -4(sp)\nhalt")
        assert program.instructions[0].imm == 8
        assert program.instructions[1].imm == -4

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: halt")

    def test_unknown_label_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("j nowhere\nhalt")

    def test_wrong_operand_count_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("add a0, a1")

    def test_hex_immediates(self):
        program = assemble("li t0, 0x40000000\nhalt")
        assert program.instructions[0].imm == 0x40000000


class TestCPUExecution:
    def test_arithmetic_and_halt(self):
        cpu, _ = run_source("""
            li a0, 21
            li a1, 2
            mul a2, a0, a1
            addi a2, a2, -2
            halt
        """)
        assert cpu.halted
        assert cpu.read_register(12) == 40

    def test_x0_is_hardwired_zero(self):
        cpu, _ = run_source("li x0, 55\nhalt")
        assert cpu.read_register(0) == 0

    def test_branch_loop_counts_iterations(self):
        cpu, _ = run_source("""
            li t0, 0
            li t1, 10
        loop:
            addi t0, t0, 1
            blt t0, t1, loop
            halt
        """)
        assert cpu.read_register(5) == 10
        assert cpu.stats.branches_taken == 9

    def test_signed_comparison(self):
        cpu, _ = run_source("""
            li t0, -1
            li t1, 1
            slt t2, t0, t1
            sltu t3, t0, t1
            halt
        """)
        assert cpu.read_register(7) == 1   # signed: -1 < 1
        assert cpu.read_register(28) == 0  # unsigned: 0xffffffff > 1

    def test_shift_operations(self):
        cpu, _ = run_source("""
            li t0, -8
            srai t1, t0, 1
            srli t2, t0, 28
            slli t3, t0, 1
            halt
        """)
        assert cpu.read_register(6) == 0xFFFFFFFC
        assert cpu.read_register(7) == 0xF
        assert cpu.read_register(28) == 0xFFFFFFF0

    def test_loads_and_stores(self):
        cpu, memory = run_source(
            "li a0, 0x100\nlw t0, 0(a0)\naddi t0, t0, 5\nsw t0, 4(a0)\nhalt",
            preload={0x100: [37]},
        )
        assert memory.read_word(0x104) == 42
        assert cpu.stats.loads == 1
        assert cpu.stats.stores == 1

    def test_jal_and_ret(self):
        cpu, _ = run_source("""
            li a0, 0
            call set_five
            addi a0, a0, 1
            halt
        set_five:
            li a0, 5
            ret
        """)
        assert cpu.read_register(10) == 6

    def test_division_and_remainder(self):
        cpu, _ = run_source("""
            li t0, 17
            li t1, 5
            div t2, t0, t1
            rem t3, t0, t1
            halt
        """)
        assert cpu.read_register(7) == 3
        assert cpu.read_register(28) == 2

    def test_division_by_zero_follows_riscv_semantics(self):
        cpu, _ = run_source("""
            li t0, 9
            li t1, 0
            div t2, t0, t1
            halt
        """)
        assert cpu.read_register(7) == 0xFFFFFFFF

    def test_cpi_includes_memory_stalls(self):
        cpu, _ = run_source("li a0, 0x100\nlw t0, 0(a0)\nhalt")
        assert cpu.stats.cpi > 1.0

    def test_bad_memory_access_halts_with_fault(self):
        cpu, _ = run_source("li a0, 0x7fffff00\nlw t0, 0(a0)\nhalt")
        assert cpu.halted
        assert cpu.fault_cause

    def test_runtime_seconds(self):
        cpu, _ = run_source("halt")
        assert cpu.runtime_seconds() == pytest.approx(cpu.stats.cycles / cpu.clock_hz)


class TestGeneratedPrograms:
    def test_vector_add_program(self):
        a = [1, 2, 3, 4]
        b = [10, 20, 30, 40]
        cpu, memory = run_source(
            vector_add_program(0x100, 0x200, 0x300, 4),
            preload={0x100: a, 0x200: b},
        )
        assert memory.dump_words(0x300, 4) == [11, 22, 33, 44]

    def test_dot_product_program(self):
        cpu, memory = run_source(
            dot_product_program(0x100, 0x200, 0x300, 3),
            preload={0x100: [1, 2, 3], 0x200: [4, 5, 6]},
        )
        assert memory.read_word(0x300) == 32

    def test_gemm_program_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.integers(-4, 5, size=(3, 4))
        b = rng.integers(-4, 5, size=(4, 2))
        cpu, memory = run_source(
            gemm_program(0x100, 0x200, 0x300, 3, 4, 2),
            preload={
                0x100: [int(v) & 0xFFFFFFFF for v in a.reshape(-1)],
                0x200: [int(v) & 0xFFFFFFFF for v in b.reshape(-1)],
            },
        )
        expected = (a @ b).reshape(-1)
        got = [v - (1 << 32) if v & 0x80000000 else v for v in memory.dump_words(0x300, 6)]
        assert got == [int(v) for v in expected]
