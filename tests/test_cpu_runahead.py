"""Bitwise oracle of the RISC-V interpreter's simulated results.

Every expected value below is a literal captured from the one-event-per-
instruction interpreter that the predecoded, run-ahead one replaced.  A
run-ahead interpreter may execute many instructions inside one scheduler
event, but it must not move a single simulated cycle, joule, register or
program counter: the CPU statistics (energy as ``repr`` of the float sum),
the architectural state, the lifetime cycle each run returns and the SoC
energy breakdown all stay identical, on fresh and reused SoCs, with bus
arbitration on, under the watchdog, and under fault injection.
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
from repro.system.programs import dot_product_program, gemm_program, vector_add_program
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
        "fault_cause": getattr(cpu, "fault_cause", None),
        "end_cycle": int(end_cycle),
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
    snapshot = _report_snapshot(soc, soc.run_offloaded_gemm(weights, inputs))
    snapshot["contention_cycles"] = soc.bus.contention_cycles
    snapshot["contention_events"] = soc.bus.contention_events
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


#: issue cycles of dynamic instructions 11 (``li t3, 0``, the first
#: accumulator reset) and 200 of the 4x5x3 GeMM; an injection at 11 runs
#: before the reset (the pending event wins the tie) and is masked
ISSUE_CYCLES = {11: 11, 200: 1040}


def case_fault_at_issue_cycle():
    """Transient flips of the accumulator at exactly an instruction's issue."""
    weights, inputs = _operands()
    snapshots = []
    for k, cycle in sorted(ISSUE_CYCLES.items()):
        soc = PhotonicSoC()
        FaultInjector(soc, FaultSpec("cpu_register", "transient", 28, 4, cycle)).arm()
        snapshots.append(_report_snapshot(soc, soc.run_cpu_gemm(weights, inputs)))
    return snapshots


CASES = {
    "reused_soc": case_reused_soc,
    "arbitration": case_arbitration,
    "vector_add": case_vector_add,
    "dot_product": case_dot_product,
    "watchdog_mid_gemm": case_watchdog_mid_gemm,
    "spin_loop": case_spin_loop,
    "max_instructions": case_max_instructions,
    "fault_at_issue_cycle": case_fault_at_issue_cycle,
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
            "energy_breakdown": {"cpu": "7.712999999999958e-09", "main_memory": "2.64e-09",
                                 "bus": "1.32e-10"},
            "result": [[56, -4, -4], [-39, -18, -62], [12, 21, -20], [89, -58, -2]],
        },
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
