"""Bitwise oracle of the RISC-V core's simulated results.

Every expected value below is a literal captured from an earlier
per-instruction model: the one-event-per-instruction interpreter, or the
predecoded interpreter that replaced it and matched it on every case they
share.  The block-translating, run-ahead core may execute many instructions
inside one generated function and one scheduler event, but it must not
move a single simulated cycle, joule, register or program counter: the
CPU statistics (energy as ``repr`` of the float sum, ``per_category`` in
insertion order), the architectural state, the lifetime cycle each run
returns and the SoC energy breakdown all stay identical, on fresh and
reused SoCs, with bus arbitration on, under the watchdog, under an
instruction cap, and under fault injection.

The bus and main-memory counters (``transfers``, ``memory_reads``,
``memory_writes`` and the arbitration counters) and the arbitrated
memory-loop case were captured later, from the block-translating core
whose every load and store called the bus.  The loop-pass cases at the end
(a register written between passes, a fault mid-pass, a device started
mid-pass) were captured from the block-translating core that checked the
horizon after every instruction.
"""

import numpy as np
import pytest

from repro.system.assembler import assemble
from repro.system.faults import (
    FAULT_TARGETS,
    FAULT_TYPES,
    FaultInjector,
    FaultSpec,
    run_fault_campaign,
)
from repro.system.mmr import CTRL_OFFSET, CTRL_START, DATA_OFFSET, STATUS_OFFSET
from repro.system.programs import (
    accelerator_offload_program,
    dot_product_program,
    gemm_program,
    vector_add_program,
)
from repro.system.soc import PhotonicSoC

A_ADDR, B_ADDR, C_ADDR = 0x1000, 0x4000, 0x8000


def _operands(shape=(4, 5, 3), seed=7):
    rows, inner, cols = shape
    rng = np.random.default_rng(seed)
    return rng.integers(-8, 9, size=(rows, inner)), rng.integers(-8, 9, size=(inner, cols))


def _soc_with_pe() -> PhotonicSoC:
    soc = PhotonicSoC()
    soc.add_photonic_accelerator()
    return soc


def _snapshot(soc: PhotonicSoC, end_cycle: int, result=None) -> dict:
    """Everything the interpreter decides, in a form that compares exactly."""
    cpu = soc.cpu
    stats = cpu.stats
    snapshot = {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "loads": stats.loads,
        "stores": stats.stores,
        "branches_taken": stats.branches_taken,
        "stall_cycles": stats.stall_cycles,
        "energy_j": repr(stats.energy_j),
        "per_category": list(stats.per_category.items()),
        "pc": cpu.pc,
        "registers": {i: value for i, value in enumerate(cpu.registers) if value},
        "halted": cpu.halted,
        "fault_cause": cpu.fault_cause,
        "end_cycle": int(end_cycle),
        "transfers": soc.bus.transfers,
        "memory_reads": soc.main_memory.stats.reads,
        "memory_writes": soc.main_memory.stats.writes,
        "contention_cycles": soc.bus.contention_cycles,
        "contention_events": soc.bus.contention_events,
        "energy_breakdown": {
            name: repr(value) for name, value in soc._energy_breakdown().items()
        },
    }
    if result is not None:
        snapshot["result"] = np.asarray(result).tolist()
    return snapshot


def _report_snapshot(soc, report) -> dict:
    return _snapshot(soc, report.cycles, report.result)


# ---------------------------------------------------------------------- #
# cases
# ---------------------------------------------------------------------- #
def case_reused_soc():
    """CPU GeMM, poll offload, IRQ offload and CPU GeMM again on one SoC."""
    soc = _soc_with_pe()
    weights, inputs = _operands()
    return [
        _report_snapshot(soc, soc.run_cpu_gemm(weights, inputs)),
        _report_snapshot(soc, soc.run_offloaded_gemm(weights, inputs)),
        _report_snapshot(soc, soc.run_offloaded_gemm(weights, inputs, use_interrupt=True)),
        _report_snapshot(soc, soc.run_cpu_gemm(weights, inputs)),
    ]


def case_arbitration():
    """A polling offload whose status reads pay round-robin arbitration."""
    soc = _soc_with_pe()
    soc.bus.arbitration_penalty = 3
    weights, inputs = _operands()
    return _report_snapshot(soc, soc.run_offloaded_gemm(weights, inputs))


#: where the arbitrated loop stores ``A[i] + B[i]``, clear of the offload's operands
SUM_ADDR = 0xC000


def case_arbitrated_memory_loop():
    """Main-memory loads and stores while the offload's DMA streams hold the bus."""
    soc = _soc_with_pe()
    soc.bus.arbitration_penalty = 3
    weights, inputs = _operands()
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    source = accelerator_offload_program(soc.accelerators[0].mmr_base, A_ADDR, B_ADDR, C_ADDR,
                                         *weights.shape, inputs.shape[1])
    wait = source.index("wait:")
    loop = f"""
        li   a0, {A_ADDR}
        li   a1, {B_ADDR}
        li   a2, {SUM_ADDR}
        li   a3, {inputs.size}
    sum:
        lw   t4, 0(a0)
        lw   t5, 0(a1)
        add  t4, t4, t5
        sw   t4, 0(a2)
        addi a0, a0, 4
        addi a1, a1, 4
        addi a2, a2, 4
        addi a3, a3, -1
        bnez a3, sum
    """
    end = soc.run_program(source[:wait] + loop + source[wait:])
    snapshot = _snapshot(soc, end, soc.read_matrix(C_ADDR, weights.shape[0], inputs.shape[1]))
    snapshot["sums"] = soc.read_matrix(SUM_ADDR, 1, inputs.size).tolist()
    return snapshot


def case_vector_add():
    soc = PhotonicSoC()
    a, b = np.arange(-5, 7), np.arange(12) * 3 - 4
    soc.write_matrix(A_ADDR, a)
    soc.write_matrix(B_ADDR, b)
    end = soc.run_program(vector_add_program(A_ADDR, B_ADDR, C_ADDR, a.size))
    return _snapshot(soc, end, soc.read_matrix(C_ADDR, 1, a.size))


def case_dot_product():
    soc = PhotonicSoC()
    a, b = np.arange(-5, 7), np.arange(12) * 3 - 4
    soc.write_matrix(A_ADDR, a)
    soc.write_matrix(B_ADDR, b)
    end = soc.run_program(dot_product_program(A_ADDR, B_ADDR, C_ADDR, a.size))
    return _snapshot(soc, end, soc.read_matrix(C_ADDR, 1, 1))


def case_watchdog_mid_gemm():
    """A GeMM cut by the watchdog, then a second program on the same SoC."""
    soc = _soc_with_pe()
    weights, inputs = _operands()
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    source = gemm_program(A_ADDR, B_ADDR, C_ADDR, *weights.shape, inputs.shape[1])
    cut = _snapshot(soc, soc.run_program(source, max_cycles=5000))
    a = np.arange(6)
    soc.write_matrix(0x10000, a)
    soc.write_matrix(0x10100, a)
    end = soc.run_program(vector_add_program(0x10000, 0x10100, 0x10200, a.size))
    return [cut, _snapshot(soc, end, soc.read_matrix(0x10200, 1, a.size))]


def case_spin_loop():
    """A program that never halts, stopped by ``max_cycles=777``."""
    soc = PhotonicSoC()
    end = soc.run_program("loop:\n    addi x5, x5, 1\n    j loop", max_cycles=777)
    return _snapshot(soc, end)


def _gemm_cpu(max_instructions=None):
    soc = PhotonicSoC()
    weights, inputs = _operands()
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    source = gemm_program(A_ADDR, B_ADDR, C_ADDR, *weights.shape, inputs.shape[1])
    soc.cpu.load_program(assemble(source), max_instructions=max_instructions)
    soc.cpu.start()
    return soc, soc.scheduler.run()


def case_max_instructions():
    soc, end = _gemm_cpu(max_instructions=250)
    return _snapshot(soc, end)


#: issue cycles of the 4x5x3 GeMM's dynamic instructions: every one of the
#: first 28 (the first two basic blocks, the first ``loop_k`` entry and the
#: first inner-loop body) and instruction 200
ISSUE_CYCLES = {
    0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10, 11: 11, 12: 12,
    13: 13, 14: 16, 15: 17, 16: 18, 17: 19, 18: 52, 19: 55, 20: 56, 21: 57, 22: 58,
    23: 91, 24: 94, 25: 95, 26: 96, 27: 97, 200: 1040,
}

#: dynamic instructions 11 (``li t3, 0``, the first accumulator reset) and
#: 200; an injection at 11 runs before the reset (the pending event wins
#: the tie) and is masked
FAULT_ISSUE_KS = (11, 200)


def case_fault_at_issue_cycle():
    """Transient flips of the accumulator at exactly an instruction's issue."""
    weights, inputs = _operands()
    snapshots = []
    for k in FAULT_ISSUE_KS:
        cycle = ISSUE_CYCLES[k]
        soc = PhotonicSoC()
        FaultInjector(soc, FaultSpec("cpu_register", "transient", 28, 4, cycle)).arm()
        snapshots.append(_report_snapshot(soc, soc.run_cpu_gemm(weights, inputs)))
    return snapshots


RESULTS_ADDR = 0x2000

#: one ALU/MUL result each, stored to consecutive words at ``RESULTS_ADDR``;
#: t0 = -7, t1 = 3, t2 = -1, t3 = INT_MIN, t5 = 35
EVERY_OPCODE_RESULTS = [
    "sra t4, t0, t1", "srl t4, t0, t1", "sll t4, t0, t1", "sra t4, t0, t2",
    "srl t4, t3, t5", "sll t4, t2, t5",
    "srai t4, t0, 1", "srli t4, t0, 1", "slli t4, t2, 31", "slli t4, t0, 33",
    "slt t4, t0, t1", "slt t4, t1, t0", "sltu t4, t0, t1", "sltu t4, t1, t0",
    "slti t4, t0, -3", "slti t4, t0, -8", "slti t4, t0, 4294967295",
    "sltiu t4, t0, -3", "sltiu t4, t1, -1", "sltiu t4, t0, 5",
    "add t4, t0, t3", "sub t4, t3, t1", "and t4, t0, t5", "or t4, t0, t5", "xor t4, t0, t2",
    "addi t4, t3, -1", "andi t4, t0, -4", "ori t4, t0, 0x100", "xori t4, t0, -1",
    "addi t4, t0, 0x100000000",
    "mul t4, t0, t1", "mul t4, t3, t3", "mulh t4, t0, t1", "mulh t4, t3, t3",
    "mulh t4, t3, t2", "mulh t4, t2, t2",
    "div t4, t0, t1", "rem t4, t0, t1", "div t4, t1, t0", "rem t4, t1, t0",
    "div t4, t0, zero", "rem t4, t0, zero", "div t4, t3, t2", "rem t4, t3, t2",
    "lui t4, 0x12345", "lui t4, -1", "auipc t4, 1", "auipc t4, 0",
]


def every_opcode_program() -> str:
    """Every mnemonic, both branch outcomes, links, x0 writes and a loop."""
    lines = [
        "li gp, 0x2000", "li t0, -7", "li t1, 3", "li t2, -1", "li t3, -2147483648",
        "li t5, 35",
    ]
    for index, line in enumerate(EVERY_OPCODE_RESULTS):
        lines += [line, f"sw t4, {4 * index}(gp)"]
    lines += [
        # writes to x0 are dropped; a load into x0 still reaches the bus
        "addi zero, t1, 5", "lui zero, 7", "auipc zero, 1", "mul zero, t0, t1",
        "lw zero, 0(gp)", "add s0, zero, zero",
        # loads with positive and negative offsets
        "addi s1, gp, 8", "lw s2, -4(s1)", "lw s3, 4(s1)",
        # branches on negative operands: each taken one skips a poison add
        "li s4, 0",
        "beq t0, t0, f_beq", "addi s4, s4, 1000",
        "f_beq:", "beq t0, t1, bad", "bne t0, t1, f_bne", "addi s4, s4, 1000",
        "f_bne:", "bne t1, t1, bad", "blt t0, t1, f_blt", "addi s4, s4, 1000",
        "f_blt:", "blt t1, t0, bad", "bge t1, t0, f_bge", "addi s4, s4, 1000",
        "f_bge:", "bge t0, t1, bad", "bltu t1, t0, f_bltu", "addi s4, s4, 1000",
        "f_bltu:", "bltu t0, t1, bad", "bgeu t0, t1, f_bgeu", "addi s4, s4, 1000",
        "f_bgeu:", "bgeu t1, t0, bad", "addi s4, s4, 1",
        # calls: jal and jalr with link registers, jalr with rd == rs1 and an
        # odd target, and j (jal x0)
        "call sub1", "mv s5, ra",
        "li s6, sub2", "jalr ra, s6, 0", "mv s7, ra",
        "li s8, sub3", "jalr s8, s8, 1", "mv s9, s8",
        "j loop_init",
        "sub1:", "addi s10, s10, 1", "ret",
        "sub2:", "addi s10, s10, 16", "jalr zero, ra, 0",
        "sub3:", "addi s10, s10, 256", "jalr zero, s8, 0",
        "bad:", "li s11, 0xbad", "halt",
        # a counted loop
        "loop_init:", "li a0, 5", "li a1, 0",
        "loop:", "addi a1, a1, 3", "addi a0, a0, -1", "bnez a0, loop",
        "halt",
    ]
    return "\n".join(lines)


#: programs that fault mid-block or run off their end, each on a fresh SoC
FAULTING_PROGRAMS = {
    "misaligned_lw": "li t0, 3\naddi t1, t1, 1\nlw t2, 0(t0)\naddi t3, t3, 1\nhalt",
    "unmapped_sw": "li t0, 1\nli t1, 0x7ffffff0\nsw t0, 0(t1)\naddi t2, t2, 1\nhalt",
    "runs_off_end": "li t0, 1\naddi t0, t0, 2",
    "jalr_to_misaligned_pc": "li t0, 6\naddi t1, t1, 1\njalr ra, t0, 0\nhalt",
    "branch_past_end": "li t0, 1\nbnez t0, 64\nhalt",
}


def case_every_opcode():
    soc = PhotonicSoC()
    end = soc.run_program(every_opcode_program())
    results = soc.read_matrix(RESULTS_ADDR, 1, len(EVERY_OPCODE_RESULTS))
    return _snapshot(soc, end, results)


def case_faulting_programs():
    snapshots = {}
    for name, source in FAULTING_PROGRAMS.items():
        soc = PhotonicSoC()
        snapshots[name] = _snapshot(soc, soc.run_program(source))
    return snapshots


#: (register, bit) flipped at every cycle of the first ``loop_k`` body of
#: the 4x5x3 GeMM: t4 (bit 1 makes its address misaligned) and t5 (the
#: loaded A element)
SWEEP_FAULTS = ((29, 1), (30, 3))
SWEEP_CYCLES = range(ISSUE_CYCLES[13], ISSUE_CYCLES[27] + 1)


def case_transient_fault_sweep():
    """Group the injection cycles by the snapshot each one produces."""
    weights, inputs = _operands()
    grouped = {}
    for register, bit in SWEEP_FAULTS:
        groups = []
        for cycle in SWEEP_CYCLES:
            soc = PhotonicSoC()
            spec = FaultSpec("cpu_register", "transient", register, bit, cycle)
            FaultInjector(soc, spec).arm()
            snapshot = _report_snapshot(soc, soc.run_cpu_gemm(weights, inputs))
            for cycles, seen in groups:
                if seen == snapshot:
                    cycles.append(cycle)
                    break
            else:
                groups.append(([cycle], snapshot))
        grouped[(register, bit)] = groups
    return grouped


CASES = {
    "reused_soc": case_reused_soc,
    "arbitration": case_arbitration,
    "arbitrated_memory_loop": case_arbitrated_memory_loop,
    "vector_add": case_vector_add,
    "dot_product": case_dot_product,
    "watchdog_mid_gemm": case_watchdog_mid_gemm,
    "spin_loop": case_spin_loop,
    "max_instructions": case_max_instructions,
    "fault_at_issue_cycle": case_fault_at_issue_cycle,
    "every_opcode": case_every_opcode,
    "faulting_programs": case_faulting_programs,
    "transient_fault_sweep": case_transient_fault_sweep,
}


#: operands inside the first 4 KiB, where ``main_memory`` faults land
CAMPAIGN_ADDRS = {"a_addr": 0x100, "b_addr": 0x200, "c_addr": 0x300}


def campaign_outcomes(workload_name, target, fault_type):
    weights, inputs = _operands((3, 4, 2))
    if workload_name == "cpu_gemm":
        def workload(soc):
            return soc.run_cpu_gemm(weights, inputs, **CAMPAIGN_ADDRS)
    else:
        def workload(soc):
            return soc.run_offloaded_gemm(
                weights, inputs, use_interrupt=True, **CAMPAIGN_ADDRS
            )
    return run_fault_campaign(
        workload, _soc_with_pe, weights @ inputs, n_injections=12,
        target=target, fault_type=fault_type, rng=11,
    ).outcomes


CAMPAIGNS = [
    (workload, target, fault_type)
    for workload in ("cpu_gemm", "irq_offload")
    for target in FAULT_TARGETS
    for fault_type in FAULT_TYPES
]


# ---------------------------------------------------------------------- #
# expected values
# ---------------------------------------------------------------------- #
EXPECTED = {
    "reused_soc": [
        {
            "instructions": 1061,
            "cycles": 5686,
            "loads": 120,
            "stores": 12,
            "branches_taken": 17,
            "stall_cycles": 4224,
            "energy_j": "7.712999999999958e-09",
            "per_category": [("alu", 567), ("branch", 93), ("mul", 192), ("load", 120),
                             ("jump", 76), ("store", 12), ("system", 1)],
            "pc": 148,
            "registers": {5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                          28: 4294967294, 29: 32812, 30: 4294967291, 31: 5},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 5685,
            "transfers": 132, "memory_reads": 120, "memory_writes": 12,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "7.712999999999958e-09", "main_memory": "2.64e-09",
                                 "bus": "1.32e-10", "photonic0": "0.0"},
            "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
        {
            "instructions": 135,
            "cycles": 314,
            "loads": 39,
            "stores": 8,
            "branches_taken": 38,
            "stall_cycles": 141,
            "energy_j": "8.679999999999985e-10",
            "per_category": [("alu", 48), ("store", 8), ("load", 39), ("branch", 39),
                             ("system", 1)],
            "pc": 84,
            "registers": {5: 1, 6: 2, 7: 2, 8: 1073741824},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 5998,
            "transfers": 226, "memory_reads": 155, "memory_writes": 24,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "8.679999999999985e-10",
                                 "main_memory": "3.5799999999999996e-09", "bus": "2.26e-10",
                                 "photonic0": "3.8491e-10"},
            "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
        {
            "instructions": 282,
            "cycles": 439,
            "loads": 2,
            "stores": 8,
            "branches_taken": 127,
            "stall_cycles": 30,
            "energy_j": "1.327000000000001e-09",
            "per_category": [("alu", 141), ("store", 8), ("branch", 130), ("load", 2),
                             ("system", 1)],
            "pc": 96,
            "registers": {5: 5, 6: 2, 7: 2, 8: 1073741824},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 6436,
            "transfers": 283, "memory_reads": 190, "memory_writes": 36,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "1.327000000000001e-09", "main_memory": "4.52e-09",
                                 "bus": "2.83e-10", "photonic0": "5.3366e-10"},
            "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
        {
            "instructions": 1061,
            "cycles": 5686,
            "loads": 120,
            "stores": 12,
            "branches_taken": 17,
            "stall_cycles": 4224,
            "energy_j": "7.712999999999958e-09",
            "per_category": [("alu", 567), ("branch", 93), ("mul", 192), ("load", 120),
                             ("jump", 76), ("store", 12), ("system", 1)],
            "pc": 148,
            "registers": {5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                          28: 4294967294, 29: 32812, 30: 4294967291, 31: 5},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 12121,
            "transfers": 415, "memory_reads": 310, "memory_writes": 48,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "7.712999999999958e-09",
                                 "main_memory": "7.159999999999999e-09", "bus": "4.15e-10",
                                 "photonic0": "5.3366e-10"},
            "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
    ],
    "arbitration": {
        "instructions": 102,
        "cycles": 318,
        "loads": 28,
        "stores": 8,
        "branches_taken": 27,
        "stall_cycles": 189,
        "energy_j": "6.589999999999992e-10",
        "per_category": [("alu", 37), ("store", 8), ("load", 28), ("branch", 28), ("system", 1)],
        "pc": 84,
        "registers": {5: 1, 6: 2, 7: 2, 8: 1073741824},
        "halted": True,
        "fault_cause": None,
        "end_cycle": 317,
        "transfers": 83, "memory_reads": 35, "memory_writes": 12,
        "energy_breakdown": {"cpu": "6.589999999999992e-10",
                             "main_memory": "9.399999999999999e-10", "bus": "8.3e-11",
                             "photonic0": "3.8491e-10"},
        "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        "contention_cycles": 81,
        "contention_events": 27,
    },
    "vector_add": {
        "instructions": 139,
        "cycles": 1292,
        "loads": 24,
        "stores": 12,
        "branches_taken": 1,
        "stall_cycles": 1152,
        "energy_j": "8.469999999999985e-10",
        "per_category": [("alu", 77), ("branch", 13), ("load", 24), ("store", 12), ("jump", 12),
                         ("system", 1)],
        "pc": 68,
        "registers": {5: 12, 6: 12, 7: 44, 10: 4096, 11: 16384, 12: 32768, 28: 32812, 29: 35,
                      30: 29},
        "halted": True,
        "fault_cause": None,
        "end_cycle": 1291,
        "transfers": 36, "memory_reads": 24, "memory_writes": 12,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "8.469999999999985e-10", "main_memory": "7.2e-10",
                             "bus": "3.6e-11"},
        "result": [[-9, -5, -1, 3, 7, 11, 15, 19, 23, 27, 31, 35]],
    },
    "dot_product": {
        "instructions": 129,
        "cycles": 954,
        "loads": 24,
        "stores": 1,
        "branches_taken": 1,
        "stall_cycles": 800,
        "energy_j": "8.619999999999985e-10",
        "per_category": [("alu", 66), ("branch", 13), ("load", 24), ("mul", 12), ("jump", 12),
                         ("store", 1), ("system", 1)],
        "pc": 72,
        "registers": {5: 12, 6: 12, 7: 44, 10: 4096, 11: 16384, 12: 32768, 28: 504, 29: 16428,
                      30: 174, 31: 29},
        "halted": True,
        "fault_cause": None,
        "end_cycle": 953,
        "transfers": 25, "memory_reads": 24, "memory_writes": 1,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "8.619999999999985e-10",
                             "main_memory": "4.999999999999999e-10", "bus": "2.5e-11"},
        "result": [[504]],
    },
    "watchdog_mid_gemm": [
        {
            "instructions": 936,
            "cycles": 5001,
            "loads": 106,
            "stores": 10,
            "branches_taken": 13,
            "stall_cycles": 3712,
            "energy_j": "6.811999999999955e-09",
            "per_category": [("alu", 502), ("branch", 82), ("mul", 170), ("load", 106),
                             ("jump", 66), ("store", 10)],
            "pc": 64,
            "registers": {5: 3, 6: 1, 7: 3, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                          28: 4294967252, 29: 72, 30: 4294967291, 31: 4294967295},
            "halted": False,
            "fault_cause": None,
            "end_cycle": 5000,
            "transfers": 116, "memory_reads": 106, "memory_writes": 10,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "6.811999999999955e-09", "main_memory": "2.32e-09",
                                 "bus": "1.16e-10", "photonic0": "0.0"},
        },
        {
            "instructions": 73,
            "cycles": 650,
            "loads": 12,
            "stores": 6,
            "branches_taken": 1,
            "stall_cycles": 576,
            "energy_j": "4.3899999999999983e-10",
            "per_category": [("alu", 41), ("branch", 7), ("load", 12), ("store", 6), ("jump", 6),
                             ("system", 1)],
            "pc": 68,
            "registers": {5: 6, 6: 6, 7: 20, 10: 65536, 11: 65792, 12: 66048, 28: 66068, 29: 10,
                          30: 5},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 5326,
            "transfers": 134, "memory_reads": 118, "memory_writes": 16,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "4.3899999999999983e-10", "main_memory": "2.68e-09",
                                 "bus": "1.34e-10", "photonic0": "0.0"},
            "result": [[0, 2, 4, 6, 8, 10]],
        },
    ],
    "spin_loop": {
        "instructions": 778,
        "cycles": 778,
        "loads": 0,
        "stores": 0,
        "branches_taken": 0,
        "stall_cycles": 0,
        "energy_j": "3.5009999999999808e-09",
        "per_category": [("alu", 389), ("jump", 389)],
        "pc": 0,
        "registers": {5: 389},
        "halted": False,
        "fault_cause": None,
        "end_cycle": 777,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "3.5009999999999808e-09", "main_memory": "0.0", "bus": "0.0"},
    },
    "max_instructions": {
        "instructions": 250,
        "cycles": 1334,
        "loads": 29,
        "stores": 2,
        "branches_taken": 2,
        "stall_cycles": 992,
        "energy_j": "1.8180000000000047e-09",
        "per_category": [("alu", 137), ("branch", 21), ("mul", 45), ("load", 29), ("jump", 16),
                         ("store", 2)],
        "pc": 72,
        "registers": {6: 2, 7: 4, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                      28: 4294967271, 29: 4112, 30: 1, 31: 1},
        "halted": True,
        "fault_cause": None,
        "end_cycle": 1334,
        "transfers": 31, "memory_reads": 29, "memory_writes": 2,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "1.8180000000000047e-09",
                             "main_memory": "6.199999999999999e-10",
                             "bus": "3.0999999999999996e-11"},
    },
    "fault_at_issue_cycle": [
        {
            "instructions": 1061,
            "cycles": 5686,
            "loads": 120,
            "stores": 12,
            "branches_taken": 17,
            "stall_cycles": 4224,
            "energy_j": "7.712999999999958e-09",
            "per_category": [("alu", 567), ("branch", 93), ("mul", 192), ("load", 120),
                             ("jump", 76), ("store", 12), ("system", 1)],
            "pc": 148,
            "registers": {5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                          28: 4294967294, 29: 32812, 30: 4294967291, 31: 5},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 5685,
            "transfers": 132, "memory_reads": 120, "memory_writes": 12,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "7.712999999999958e-09", "main_memory": "2.64e-09",
                                 "bus": "1.32e-10"},
            "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
        {
            "instructions": 1061,
            "cycles": 5686,
            "loads": 120,
            "stores": 12,
            "branches_taken": 17,
            "stall_cycles": 4224,
            "energy_j": "7.712999999999958e-09",
            "per_category": [("alu", 567), ("branch", 93), ("mul", 192), ("load", 120),
                             ("jump", 76), ("store", 12), ("system", 1)],
            "pc": 148,
            "registers": {5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                          28: 4294967294, 29: 32812, 30: 4294967291, 31: 5},
            "halted": True,
            "fault_cause": None,
            "end_cycle": 5685,
            "transfers": 132, "memory_reads": 120, "memory_writes": 12,
            "contention_cycles": 0, "contention_events": 0,
            "energy_breakdown": {"cpu": "7.712999999999958e-09", "main_memory": "2.64e-09",
                                 "bus": "1.32e-10"},
            "result": [[56, -4, -4], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
    ],
}

# captured from the block-translating core whose loads and stores all called
# the bus: 7 main-memory accesses of the loop paid a 3-cycle arbitration delay
EXPECTED["arbitrated_memory_loop"] = {
    "instructions": 160,
    "cycles": 1662,
    "loads": 31,
    "stores": 23,
    "branches_taken": 14,
    "stall_cycles": 1488,
    "energy_j": "1.050999999999999e-09",
    "per_category": [("alu", 89), ("store", 23), ("load", 31), ("branch", 16), ("system", 1)],
    "pc": 136,
    "registers": {5: 1, 6: 2, 7: 2, 8: 1073741824, 10: 4156, 11: 16444, 12: 49212, 29: 5,
                  30: 5},
    "halted": True,
    "fault_cause": None,
    "end_cycle": 1661,
    "transfers": 101, "memory_reads": 65, "memory_writes": 27,
    "contention_cycles": 21, "contention_events": 7,
    "energy_breakdown": {"cpu": "1.050999999999999e-09", "main_memory": "1.8399999999999998e-09",
                         "bus": "1.01e-10", "photonic0": "3.8491e-10"},
    "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
    "sums": [[13, -1, 0, 3, 5, 1, 14, -6, -8, -3, -3, 7, 7, 0, 5]],
}

# the every-opcode, faulting-program and fault-sweep cases, captured from the
# predecoded per-instruction interpreter
EXPECTED["every_opcode"] = {
    "instructions": 158,
    "cycles": 1830,
    "loads": 3,
    "stores": 48,
    "branches_taken": 10,
    "stall_cycles": 1632,
    "energy_j": "1.1680000000000016e-09",
    "per_category": [
        ("alu", 67), ("store", 48), ("mul", 15), ("load", 3), ("branch", 17), ("jump", 7),
        ("system", 1),
    ],
    "pc": 616,
    "registers": {
        1: 540, 3: 8192, 5: 4294967289, 6: 3, 7: 4294967295, 9: 8200, 11: 15, 18: 536870911,
        19: 4294967295, 20: 1, 21: 528, 22: 568, 23: 540, 24: 552, 25: 552, 26: 273,
        28: 2147483648, 29: 400, 30: 35,
    },
    "halted": True,
    "fault_cause": None,
    "end_cycle": 1829,
    "transfers": 51, "memory_reads": 3, "memory_writes": 48,
    "contention_cycles": 0, "contention_events": 0,
    "energy_breakdown": {
        "cpu": "1.1680000000000016e-09",
        "main_memory": "1.02e-09",
        "bus": "5.1e-11",
    },
    "result": [
        [
            -1, 536870911, -56, -1, 268435456, -8, -4, 2147483644, -2147483648, -14, 1, 0, 0, 1,
            1, 0, 1, 1, 1, 0, 2147483641, 2147483645, 33, -5, 6, 2147483647, -8, -7, 6, -7, -21,
            0, -1, 1073741824, 0, 0, -2, -1, 0, 3, -1, -7, -2147483648, 0, 305418240, -4096, 4488,
            400,
        ],
    ],
}

EXPECTED["faulting_programs"] = {
    "misaligned_lw": {
        "instructions": 2,
        "cycles": 2,
        "loads": 0,
        "stores": 0,
        "branches_taken": 0,
        "stall_cycles": 0,
        "energy_j": "1e-11",
        "per_category": [("alu", 2)],
        "pc": 8,
        "registers": {5: 3, 6: 1},
        "halted": True,
        "fault_cause": "misaligned word access at 0x3",
        "end_cycle": 2,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "1e-11", "main_memory": "0.0", "bus": "0.0"},
    },
    "unmapped_sw": {
        "instructions": 2,
        "cycles": 2,
        "loads": 0,
        "stores": 0,
        "branches_taken": 0,
        "stall_cycles": 0,
        "energy_j": "1e-11",
        "per_category": [("alu", 2)],
        "pc": 8,
        "registers": {5: 1, 6: 2147483632},
        "halted": True,
        "fault_cause": "bus decode error: no target at 0x7ffffff0",
        "end_cycle": 2,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "1e-11", "main_memory": "0.0", "bus": "0.0"},
    },
    "runs_off_end": {
        "instructions": 2,
        "cycles": 2,
        "loads": 0,
        "stores": 0,
        "branches_taken": 0,
        "stall_cycles": 0,
        "energy_j": "1e-11",
        "per_category": [("alu", 2)],
        "pc": 8,
        "registers": {5: 3},
        "halted": True,
        "fault_cause": "pc 0x8 outside program",
        "end_cycle": 2,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "1e-11", "main_memory": "0.0", "bus": "0.0"},
    },
    "jalr_to_misaligned_pc": {
        "instructions": 3,
        "cycles": 3,
        "loads": 0,
        "stores": 0,
        "branches_taken": 0,
        "stall_cycles": 0,
        "energy_j": "1.4e-11",
        "per_category": [("alu", 2), ("jump", 1)],
        "pc": 6,
        "registers": {1: 12, 5: 6, 6: 1},
        "halted": True,
        "fault_cause": "pc 0x6 outside program",
        "end_cycle": 3,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "1.4e-11", "main_memory": "0.0", "bus": "0.0"},
    },
    "branch_past_end": {
        "instructions": 2,
        "cycles": 3,
        "loads": 0,
        "stores": 0,
        "branches_taken": 1,
        "stall_cycles": 0,
        "energy_j": "9e-12",
        "per_category": [("alu", 1), ("branch", 1)],
        "pc": 68,
        "registers": {5: 1},
        "halted": True,
        "fault_cause": "pc 0x44 outside program",
        "end_cycle": 3,
        "transfers": 0, "memory_reads": 0, "memory_writes": 0,
        "contention_cycles": 0, "contention_events": 0,
        "energy_breakdown": {"cpu": "9e-12", "main_memory": "0.0", "bus": "0.0"},
    },
}

EXPECTED["transient_fault_sweep"] = {
    (29, 1): [
        (
            [
                13, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
                39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 59, 60, 61, 62, 63, 64,
                65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84,
                85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97,
            ],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
        (
            [14, 15, 16, 17],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[31, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
        (
            [18, 19],
            {
                "instructions": 17,
                "cycles": 19,
                "loads": 0,
                "stores": 0,
                "branches_taken": 0,
                "stall_cycles": 0,
                "energy_j": "9.199999999999999e-11",
                "per_category": [("alu", 13), ("branch", 3), ("mul", 1)],
                "pc": 68,
                "registers": {8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3, 29: 4098},
                "halted": True,
                "fault_cause": "misaligned word access at 0x1002",
                "end_cycle": 19,
                "transfers": 0, "memory_reads": 0, "memory_writes": 0,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "9.199999999999999e-11",
                    "main_memory": "0.0",
                    "bus": "0.0",
                },
                "result": [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
            },
        ),
        (
            [53, 54, 55, 56],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[-8, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
        (
            [57, 58],
            {
                "instructions": 22,
                "cycles": 58,
                "loads": 1,
                "stores": 0,
                "branches_taken": 0,
                "stall_cycles": 32,
                "energy_j": "1.3200000000000004e-10",
                "per_category": [("alu", 16), ("branch", 3), ("mul", 2), ("load", 1)],
                "pc": 88,
                "registers": {8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3, 29: 16386, 30: 8},
                "halted": True,
                "fault_cause": "misaligned word access at 0x4002",
                "end_cycle": 58,
                "transfers": 1, "memory_reads": 1, "memory_writes": 0,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "1.3200000000000004e-10",
                    "main_memory": "2e-11",
                    "bus": "1e-12",
                },
                "result": [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
            },
        ),
    ],
    (30, 3): [
        (
            [13, 14, 15, 16, 17, 18, 19, 95, 96, 97],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[56, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
        (
            [
                20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39,
                40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59,
                60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77, 78, 79,
                80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91,
            ],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[16, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
        (
            [92, 93, 94],
            {
                "instructions": 1061,
                "cycles": 5686,
                "loads": 120,
                "stores": 12,
                "branches_taken": 17,
                "stall_cycles": 4224,
                "energy_j": "7.712999999999958e-09",
                "per_category": [
                    ("alu", 567), ("branch", 93), ("mul", 192), ("load", 120), ("jump", 76),
                    ("store", 12), ("system", 1),
                ],
                "pc": 148,
                "registers": {
                    5: 4, 6: 3, 7: 5, 8: 4096, 9: 16384, 18: 32768, 19: 4, 20: 5, 21: 3,
                    28: 4294967294, 29: 32812, 30: 4294967291, 31: 5,
                },
                "halted": True,
                "fault_cause": None,
                "end_cycle": 5685,
                "transfers": 132, "memory_reads": 120, "memory_writes": 12,
                "contention_cycles": 0, "contention_events": 0,
                "energy_breakdown": {
                    "cpu": "7.712999999999958e-09",
                    "main_memory": "2.64e-09",
                    "bus": "1.32e-10",
                },
                "result": [[48, -4, -20], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
            },
        ),
    ],
}

EXPECTED_OUTCOMES = {
    ("cpu_gemm", "cpu_register", "transient"): ["sdc", "sdc", "masked", "masked", "masked",
                                                "masked", "masked", "masked", "masked", "masked",
                                                "masked", "masked"],
    ("cpu_gemm", "cpu_register", "permanent"): ["masked", "sdc", "masked", "masked", "masked",
                                                "masked", "masked", "masked", "crash", "masked",
                                                "masked", "masked"],
    ("cpu_gemm", "main_memory", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                               "masked", "masked", "masked", "masked", "masked",
                                               "masked", "masked"],
    ("cpu_gemm", "main_memory", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                               "masked", "masked", "masked", "masked", "masked",
                                               "masked", "masked"],
    ("cpu_gemm", "scratchpad", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                              "masked", "masked", "masked", "masked", "masked",
                                              "masked", "masked"],
    ("cpu_gemm", "scratchpad", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                              "masked", "masked", "masked", "masked", "masked",
                                              "masked", "masked"],
    ("cpu_gemm", "mmr_data", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                            "masked", "masked", "masked", "masked", "masked",
                                            "masked", "masked"],
    ("cpu_gemm", "mmr_data", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                            "masked", "masked", "masked", "masked", "masked",
                                            "masked", "masked"],
    ("irq_offload", "cpu_register", "transient"): ["masked", "hang", "masked", "masked", "masked",
                                                   "masked", "masked", "masked", "masked",
                                                   "masked", "masked", "masked"],
    ("irq_offload", "cpu_register", "permanent"): ["masked", "masked", "masked", "masked",
                                                   "masked", "masked", "masked", "masked",
                                                   "masked", "masked", "masked", "masked"],
    ("irq_offload", "main_memory", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                                  "masked", "masked", "masked", "masked", "masked",
                                                  "masked", "masked"],
    ("irq_offload", "main_memory", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                                  "masked", "masked", "masked", "masked", "masked",
                                                  "masked", "masked"],
    ("irq_offload", "scratchpad", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                                 "masked", "masked", "masked", "masked", "masked",
                                                 "masked", "masked"],
    ("irq_offload", "scratchpad", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                                 "masked", "masked", "masked", "masked", "masked",
                                                 "masked", "masked"],
    ("irq_offload", "mmr_data", "transient"): ["masked", "masked", "masked", "masked", "masked",
                                               "sdc", "masked", "masked", "masked", "masked",
                                               "masked", "masked"],
    ("irq_offload", "mmr_data", "permanent"): ["masked", "masked", "masked", "masked", "masked",
                                               "sdc", "masked", "masked", "masked", "masked",
                                               "masked", "masked"],
}


# ---------------------------------------------------------------------- #
# tests
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("name", list(CASES))
def test_simulated_results_are_bitwise_unchanged(name):
    assert CASES[name]() == EXPECTED[name]


@pytest.mark.parametrize("key", CAMPAIGNS, ids="-".join)
def test_fault_campaign_outcomes_are_unchanged(key):
    assert campaign_outcomes(*key) == EXPECTED_OUTCOMES[key]


@pytest.mark.parametrize("k", sorted(ISSUE_CYCLES))
def test_max_instructions_halts_at_the_next_issue_cycle(k):
    _, end = _gemm_cpu(max_instructions=k)
    assert end == ISSUE_CYCLES[k]


# ---------------------------------------------------------------------- #
# run-ahead behaviour
# ---------------------------------------------------------------------- #
def test_a_program_with_nothing_else_pending_runs_in_one_event():
    soc = PhotonicSoC()
    report = soc.run_cpu_gemm(*_operands())
    assert report.instructions == EXPECTED["reused_soc"][0]["instructions"]
    assert soc.scheduler.events_processed == 1


@pytest.mark.parametrize("use_interrupt", [False, True])
def test_an_offload_costs_events_per_device_phase_not_per_instruction(use_interrupt):
    soc = _soc_with_pe()
    report = soc.run_offloaded_gemm(*_operands(), use_interrupt=use_interrupt)
    assert report.instructions > 100
    # fetch, DMA-in, compute, DMA-out and the CPU resuming after each
    assert soc.scheduler.events_processed == 7


@pytest.mark.parametrize("use_interrupt", [False, True])
def test_only_an_irq_offload_leaves_an_interrupt_pending(use_interrupt):
    soc = _soc_with_pe()
    soc.run_offloaded_gemm(*_operands(), use_interrupt=use_interrupt)
    assert soc.cpu.interrupt_pending is use_interrupt
    soc.run_program("halt")
    assert soc.cpu.interrupt_pending is False


def _ticked_snapshot(build, ticks=0):
    """Run ``build(soc)``'s program on a fresh SoC, with a no-op event per cycle below ``ticks``."""
    soc = _soc_with_pe()
    source = build(soc)
    for cycle in range(ticks):
        soc.scheduler.schedule_at(cycle, lambda: None, label="tick")
    snapshot = _snapshot(soc, soc.run_program(source))
    return snapshot, soc.scheduler.events_processed


def _gemm_source(soc):
    weights, inputs = _operands()
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    return gemm_program(A_ADDR, B_ADDR, C_ADDR, *weights.shape, inputs.shape[1])


def _unrolled_poll_source(soc):
    """Start an offload, then sum 150 STATUS reads in one straight-line block.

    The START store schedules the accelerator's events mid-block, so the
    block must re-read the horizon to let them run between its reads.
    """
    source = accelerator_offload_program(soc.accelerators[0].mmr_base, A_ADDR, B_ADDR, C_ADDR,
                                         4, 5, 3)
    soc.write_matrix(A_ADDR, _operands()[0])
    soc.write_matrix(B_ADDR, _operands()[1])
    reads = [f"lw t1, {STATUS_OFFSET}(s0)\nadd t3, t3, t1" for _ in range(150)]
    return source[:source.index("wait:")] + "\n".join(reads) + "\nhalt"


#: 40 passes of one loop block; each pass loads a main-memory word and adds
#: it and s2 into s1
REGISTER_WRITE_LOOP = """
    li   a0, 0x100
    li   s2, 1
    li   t0, 40
loop:
    lw   t1, 0(a0)
    add  s1, s1, t1
    add  s1, s1, s2
    addi t0, t0, -1
    bnez t0, loop
    halt
"""

#: every cycle of the loop's third and fourth passes
REGISTER_WRITE_CYCLES = range(79, 155)


def _register_write_groups():
    """Flip bit 4 of s2 at each cycle; group the cycles by the snapshot they produce."""
    groups = []
    for cycle in REGISTER_WRITE_CYCLES:
        soc = PhotonicSoC()
        soc.main_memory.write_word(0x100, 7)
        FaultInjector(soc, FaultSpec("cpu_register", "transient", 18, 4, cycle)).arm()
        snapshot = _snapshot(soc, soc.run_program(REGISTER_WRITE_LOOP))
        for cycles, seen in groups:
            if seen == snapshot:
                cycles.append(cycle)
                break
        else:
            groups.append(([cycle], snapshot))
    return groups


#: the second pass faults on a misaligned load after its first two writes
FAULT_MID_PASS = """
    li   a0, 0x100
loop:
    addi s1, s1, 1
    slli s2, s1, 3
    lw   t1, 0(a0)
    add  s3, s3, t1
    addi a0, a0, 2
    j    loop
"""

#: STATUS polls per pass of the loop in :func:`_mmr_store_mid_pass_source`
POLLS_PER_PASS = 120


def _mmr_store_mid_pass_source(soc):
    """Poll STATUS in a two-pass loop whose first pass starts the offload mid-pass.

    Each pass polls once, stores t0 to CTRL (START on the first pass, 0 on
    the second), then sums ``POLLS_PER_PASS`` more STATUS reads into t3.
    The offload finishes inside the first pass, so the core must stop
    after the START store to let the device's events run between its
    reads.
    """
    weights, inputs = _operands()
    soc.write_matrix(A_ADDR, weights)
    soc.write_matrix(B_ADDR, inputs)
    config = [A_ADDR, B_ADDR, C_ADDR, *weights.shape, inputs.shape[1], 0]
    poll = f"lw t1, {STATUS_OFFSET}(s0)\nadd t3, t3, t1"
    return "\n".join([
        f"li s0, {soc.accelerators[0].mmr_base}",
        *[f"li t0, {value}\nsw t0, {DATA_OFFSET + 4 * index}(s0)"
          for index, value in enumerate(config)],
        f"li t0, {CTRL_START}", "li a0, 2",
        "loop:", poll, f"sw t0, {CTRL_OFFSET}(s0)", "li t0, 0",
        *[poll] * POLLS_PER_PASS,
        "addi a0, a0, -1", "bnez a0, loop", "halt",
    ])


TICKED_PROGRAMS = {
    "every_opcode": lambda soc: every_opcode_program(),
    "gemm": _gemm_source,
    "spin_then_halt": lambda soc: "li t0, 300\nloop:\naddi t0, t0, -1\nbnez t0, loop\nhalt",
    "misaligned_lw": lambda soc: FAULTING_PROGRAMS["misaligned_lw"],
    "unrolled_poll": _unrolled_poll_source,
    "register_write_loop": lambda soc: REGISTER_WRITE_LOOP,
    "fault_mid_pass": lambda soc: FAULT_MID_PASS,
    "mmr_store_mid_pass": _mmr_store_mid_pass_source,
}


@pytest.mark.parametrize("name", list(TICKED_PROGRAMS))
def test_an_event_at_every_cycle_moves_no_simulated_figure(name):
    """Stopping after every instruction is the one-event-per-instruction model."""
    build = TICKED_PROGRAMS[name]
    alone, alone_events = _ticked_snapshot(build)
    ticked, ticked_events = _ticked_snapshot(build, alone["end_cycle"])
    assert ticked == alone
    # every tick ran, and the core stopped after every instruction but the
    # last ones, which issue after the final tick
    assert ticked_events - alone["end_cycle"] >= alone["instructions"] - 1


#: captured from the predecoded per-instruction interpreter: 97 reads saw
#: BUSY (1) and 53 saw DONE (2)
UNROLLED_POLL = {
    "instructions": 318,
    "cycles": 792,
    "loads": 150,
    "stores": 8,
    "branches_taken": 0,
    "stall_cycles": 474,
    "energy_j": "2.3770000000000037e-09",
    "per_category": [("alu", 159), ("store", 8), ("load", 150), ("system", 1)],
    "pc": 1272,
    "registers": {5: 1, 6: 2, 8: 1073741824, 28: 247},
    "halted": True,
    "fault_cause": None,
    "end_cycle": 791,
    "transfers": 205, "memory_reads": 35, "memory_writes": 12,
    "contention_cycles": 0, "contention_events": 0,
    "energy_breakdown": {"cpu": "2.3770000000000037e-09", "main_memory": "9.399999999999999e-10",
                         "bus": "2.05e-10", "photonic0": "3.8491e-10"},
}


def test_a_device_started_mid_block_runs_between_its_instructions():
    snapshot, events = _ticked_snapshot(_unrolled_poll_source)
    assert snapshot == UNROLLED_POLL
    # fetch, DMA-in, compute, DMA-out and the core resuming after each
    assert events == 6



# ---------------------------------------------------------------------- #
# state that crosses the passes of a translated loop
# ---------------------------------------------------------------------- #
#: captured from the block-translating core that checked the horizon after
#: every instruction: a flip of s2 reaches the first pass whose
#: ``add s1, s1, s2`` issues at or after the injection cycle (a tie goes to
#: the injection), so only s1 (x9) tells the groups apart
REGISTER_WRITE_RUN = {
    "instructions": 204, "cycles": 1523, "loads": 40, "stores": 0, "branches_taken": 39,
    "stall_cycles": 1280, "energy_j": "1.177e-09",
    "per_category": [("alu", 123), ("load", 40), ("branch", 40), ("system", 1)],
    "pc": 36, "halted": True, "fault_cause": None, "end_cycle": 1522,
    "transfers": 40, "memory_reads": 40, "memory_writes": 1,
    "contention_cycles": 0, "contention_events": 0,
    "energy_breakdown": {"cpu": "1.177e-09", "main_memory": "8.2e-10", "bus": "4e-11"},
}
REGISTER_WRITE_GROUPS = [(range(79, 114), 928), (range(114, 152), 912), (range(152, 155), 896)]


def test_a_register_written_between_passes_is_read_by_the_next_pass():
    expected = [
        (list(cycles), dict(REGISTER_WRITE_RUN, registers={6: 7, 9: s1, 10: 256, 18: 17}))
        for cycles, s1 in REGISTER_WRITE_GROUPS
    ]
    assert _register_write_groups() == expected


#: captured from the block-translating core that checked the horizon after
#: every instruction
FAULT_MID_PASS_RUN = {
    "instructions": 9, "cycles": 41, "loads": 1, "stores": 0, "branches_taken": 0,
    "stall_cycles": 32, "energy_j": "4.9000000000000005e-11",
    "per_category": [("alu", 7), ("load", 1), ("jump", 1)],
    "pc": 12,
    # the second pass's s1 and s2, the first pass's t1 and s3
    "registers": {6: 7, 9: 2, 10: 258, 18: 16, 19: 7},
    "halted": True, "fault_cause": "misaligned word access at 0x102", "end_cycle": 41,
    "transfers": 1, "memory_reads": 1, "memory_writes": 1,
    "contention_cycles": 0, "contention_events": 0,
    "energy_breakdown": {"cpu": "4.9000000000000005e-11", "main_memory": "4e-11",
                         "bus": "1e-12"},
}


def test_a_fault_mid_pass_keeps_the_earlier_writes_of_that_pass():
    soc = PhotonicSoC()
    soc.main_memory.write_word(0x100, 7)
    assert _snapshot(soc, soc.run_program(FAULT_MID_PASS)) == FAULT_MID_PASS_RUN


#: captured from the block-translating core that checked the horizon after
#: every instruction: after the first poll (IDLE), 52 reads saw BUSY (1) and
#: 189 saw DONE (2)
MMR_STORE_MID_PASS_RUN = {
    "instructions": 510, "cycles": 1264, "loads": 242, "stores": 9, "branches_taken": 1,
    "stall_cycles": 753, "energy_j": "3.800000000000007e-09",
    "per_category": [("alu", 256), ("store", 9), ("load", 242), ("branch", 2), ("system", 1)],
    "pc": 1056, "registers": {6: 2, 8: 1073741824, 28: 430},
    "halted": True, "fault_cause": None, "end_cycle": 1263,
    "transfers": 298, "memory_reads": 35, "memory_writes": 12,
    "contention_cycles": 0, "contention_events": 0,
    "energy_breakdown": {"cpu": "3.800000000000007e-09", "main_memory": "9.399999999999999e-10",
                         "bus": "2.98e-10", "photonic0": "3.8491e-10"},
}


def test_a_device_started_mid_pass_runs_between_the_later_reads_of_that_pass():
    snapshot, events = _ticked_snapshot(_mmr_store_mid_pass_source)
    assert snapshot == MMR_STORE_MID_PASS_RUN
    # fetch, DMA-in, compute, DMA-out and the core resuming after each
    assert events == 7
