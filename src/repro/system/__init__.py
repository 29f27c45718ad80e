"""gem5-style full-system simulation platform (paper Section 5).

A discrete-event simulator of a RISC-V host CPU, memory hierarchy, system
bus, DMA engines, interrupt controller and domain-specific accelerators
(photonic and digital), plus the fault-injection framework used for
reliability analysis — the Python counterpart of gem5-MARVEL.
"""

from repro.system.event import EventScheduler
from repro.system.memory import (
    MainMemory,
    Scratchpad,
    MemoryAccessError,
    to_signed,
    to_unsigned,
    words_to_signed,
    signed_to_words,
)
from repro.system.mmr import (
    MemoryMappedRegisters,
    CTRL_START,
    CTRL_RESET,
    CTRL_IRQ_ENABLE,
    CTRL_ENQUEUE,
    CTRL_IRQ_PER_TILE,
    STATUS_IDLE,
    STATUS_BUSY,
    STATUS_DONE,
    STATUS_ERROR,
)
from repro.system.bus import SystemBus, BusMapping
from repro.system.isa import Instruction, IllegalInstructionError, parse_register
from repro.system.assembler import assemble, AssemblyError, Program
from repro.system.cpu import RiscvCPU, CPUStats, CPUError
from repro.system.interrupt import InterruptController, InterruptLine
from repro.system.dma import DMADescriptor, DMAEngine, DMAStats
from repro.system.dfg import DataflowGraph, DFGNode, ScheduleResult, build_gemm_dfg, DataflowError
from repro.system.accelerator import (
    BaseMatrixAccelerator,
    MACArrayAccelerator,
    PhotonicMVMAccelerator,
    AcceleratorStats,
    TileDescriptor,
)
from repro.system.programs import (
    vector_add_program,
    gemm_program,
    dot_product_program,
    accelerator_offload_program,
)
from repro.system.soc import (
    KShardSlice,
    PhotonicSoC,
    WorkloadReport,
    plan_k_shards,
    plan_shards,
)
from repro.system.faults import (
    FaultSpec,
    FaultInjector,
    CampaignResult,
    EmptyCampaignError,
    random_fault_spec,
    run_fault_campaign,
    FAULT_TARGETS,
    FAULT_TYPES,
    OUTCOMES,
)

__all__ = [
    "EventScheduler",
    "MainMemory",
    "Scratchpad",
    "MemoryAccessError",
    "to_signed",
    "to_unsigned",
    "words_to_signed",
    "signed_to_words",
    "MemoryMappedRegisters",
    "CTRL_START",
    "CTRL_RESET",
    "CTRL_IRQ_ENABLE",
    "CTRL_ENQUEUE",
    "CTRL_IRQ_PER_TILE",
    "STATUS_IDLE",
    "STATUS_BUSY",
    "STATUS_DONE",
    "STATUS_ERROR",
    "SystemBus",
    "BusMapping",
    "Instruction",
    "IllegalInstructionError",
    "parse_register",
    "assemble",
    "AssemblyError",
    "Program",
    "RiscvCPU",
    "CPUStats",
    "CPUError",
    "InterruptController",
    "InterruptLine",
    "DMADescriptor",
    "DMAEngine",
    "DMAStats",
    "DataflowGraph",
    "DFGNode",
    "ScheduleResult",
    "build_gemm_dfg",
    "DataflowError",
    "BaseMatrixAccelerator",
    "MACArrayAccelerator",
    "PhotonicMVMAccelerator",
    "AcceleratorStats",
    "TileDescriptor",
    "vector_add_program",
    "gemm_program",
    "dot_product_program",
    "accelerator_offload_program",
    "KShardSlice",
    "PhotonicSoC",
    "WorkloadReport",
    "plan_k_shards",
    "plan_shards",
    "FaultSpec",
    "FaultInjector",
    "CampaignResult",
    "EmptyCampaignError",
    "random_fault_spec",
    "run_fault_campaign",
    "FAULT_TARGETS",
    "FAULT_TYPES",
    "OUTCOMES",
]
