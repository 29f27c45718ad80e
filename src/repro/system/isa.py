"""RISC-V (RV32IM subset) instruction definitions.

The NEUROPULS simulation platform ports gem5-SALAM from Arm to RISC-V; the
host processor of this reproduction is therefore a small RV32IM core.  The
ISA layer defines the instruction set as structured objects (rather than
binary encodings): the assembler produces :class:`Instruction` instances
and the CPU executes them directly.  This keeps the simulator readable
while preserving the architectural behaviour (register semantics, control
flow, memory access, multiply/divide) that the workloads and the fault
injector need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Architectural register count (x0..x31).
N_REGISTERS = 32

#: ABI register names accepted by the assembler, mapped to indices.
ABI_NAMES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7,
    "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15, "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23, "s8": 24, "s9": 25,
    "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

#: Instruction categories used for timing and fault models.
ALU_OPS = {
    "add", "sub", "and", "or", "xor", "slt", "sltu", "sll", "srl", "sra",
    "addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai",
    "lui", "auipc",
}
MUL_OPS = {"mul", "mulh", "div", "rem"}
LOAD_OPS = {"lw"}
STORE_OPS = {"sw"}
BRANCH_OPS = {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
JUMP_OPS = {"jal", "jalr"}
SYSTEM_OPS = {"ecall", "ebreak"}

ALL_OPS = ALU_OPS | MUL_OPS | LOAD_OPS | STORE_OPS | BRANCH_OPS | JUMP_OPS | SYSTEM_OPS


class IllegalInstructionError(Exception):
    """Raised when the CPU encounters an unknown or malformed instruction."""


@dataclass(frozen=True)
class Instruction:
    """One decoded RV32IM instruction.

    Attributes:
        op: mnemonic (lower case).
        rd / rs1 / rs2: register indices (None when unused).
        imm: immediate value (None when unused); branch/jump immediates are
            byte offsets relative to the instruction address, as in RISC-V.
        label: optional source-level label for debugging.
    """

    op: str
    rd: Optional[int] = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    imm: Optional[int] = None
    label: str = ""

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise IllegalInstructionError(f"unknown mnemonic {self.op!r}")
        for name, reg in (("rd", self.rd), ("rs1", self.rs1), ("rs2", self.rs2)):
            if reg is not None and not 0 <= reg < N_REGISTERS:
                raise IllegalInstructionError(f"{name} register index {reg} out of range")

    @property
    def category(self) -> str:
        """Timing category: alu, mul, load, store, branch, jump or system."""
        if self.op in ALU_OPS:
            return "alu"
        if self.op in MUL_OPS:
            return "mul"
        if self.op in LOAD_OPS:
            return "load"
        if self.op in STORE_OPS:
            return "store"
        if self.op in BRANCH_OPS:
            return "branch"
        if self.op in JUMP_OPS:
            return "jump"
        return "system"


def parse_register(token: str) -> int:
    """Parse a register token (``x7``, ``a0``, ``sp`` ...) to its index."""
    token = token.strip().lower().rstrip(",")
    if token in ABI_NAMES:
        return ABI_NAMES[token]
    if token.startswith("x"):
        try:
            index = int(token[1:])
        except ValueError as exc:
            raise IllegalInstructionError(f"bad register {token!r}") from exc
        if 0 <= index < N_REGISTERS:
            return index
    raise IllegalInstructionError(f"bad register {token!r}")
