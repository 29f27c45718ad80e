"""A small two-pass assembler for the RV32IM subset.

Accepts the usual assembly syntax with labels, comments (``#`` or ``;``),
decimal/hex immediates, ``offset(base)`` memory operands and a handful of
pseudo-instructions (``li``, ``mv``, ``j``, ``nop``, ``halt``, ``ret``,
``call``).  The output is a list of :class:`repro.system.isa.Instruction`
objects ready for the CPU model, plus the label table for debugging.

:func:`assemble` is a pure function of the source text, memoized per
process: host drivers regenerate the same program text for every offload
of a shape, and a :class:`Program` is immutable (its label table is a
read-only mapping), so one cached object can be shared by every caller.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

from repro.system.isa import (
    BRANCH_OPS,
    Instruction,
    IllegalInstructionError,
    parse_register,
)

#: Instruction size used for label arithmetic (matches RV32 word size).
INSTRUCTION_BYTES = 4

_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")


class AssemblyError(Exception):
    """Raised for syntax errors, unknown labels or malformed operands."""


@dataclass(frozen=True)
class Program:
    """An assembled program.

    Attributes:
        instructions: the decoded instruction list (index = pc / 4).
        labels: label name -> instruction byte address (read-only).
        source: the original assembly text.
    """

    instructions: Tuple[Instruction, ...]
    labels: Mapping[str, int]
    source: str

    def __len__(self) -> int:
        return len(self.instructions)


def _strip(line: str) -> str:
    for marker in ("#", ";", "//"):
        if marker in line:
            line = line.split(marker, 1)[0]
    return line.strip()


def _parse_immediate(token: str, labels: Dict[str, int], pc: int) -> int:
    token = token.strip().rstrip(",")
    if token in labels:
        return labels[token] - pc
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad immediate or unknown label {token!r}") from exc


def _parse_absolute(token: str, labels: Dict[str, int]) -> int:
    token = token.strip().rstrip(",")
    if token in labels:
        return labels[token]
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblyError(f"bad immediate or unknown label {token!r}") from exc


def _expand_pseudo(op: str, operands: List[str]) -> List[Tuple[str, List[str]]]:
    """Expand pseudo-instructions into base instructions."""
    if op == "nop":
        return [("addi", ["x0", "x0", "0"])]
    if op == "mv":
        return [("addi", [operands[0], operands[1], "0"])]
    if op == "li":
        # The CPU model holds immediates as Python ints, so a single addi
        # from x0 covers the full 32-bit range without lui/addi splitting.
        return [("addi", [operands[0], "x0", operands[1]])]
    if op == "j":
        return [("jal", ["x0", operands[0]])]
    if op == "call":
        return [("jal", ["ra", operands[0]])]
    if op == "ret":
        return [("jalr", ["x0", "ra", "0"])]
    if op == "halt":
        return [("ebreak", [])]
    if op == "beqz":
        return [("beq", [operands[0], "x0", operands[1]])]
    if op == "bnez":
        return [("bne", [operands[0], "x0", operands[1]])]
    return [(op, operands)]


@functools.lru_cache(maxsize=256)
def assemble(source: str) -> Program:
    """Assemble a program text into a :class:`Program` (memoized on the text)."""
    # ---- pass 1: collect labels -------------------------------------------
    lines = source.splitlines()
    labels: Dict[str, int] = {}
    pending: List[Tuple[str, List[str], int]] = []  # (op, operands, line_no)
    address = 0
    for line_no, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        while ":" in line:
            label, line = line.split(":", 1)
            label = label.strip()
            if not label.isidentifier():
                raise AssemblyError(f"line {line_no}: bad label {label!r}")
            if label in labels:
                raise AssemblyError(f"line {line_no}: duplicate label {label!r}")
            labels[label] = address
            line = line.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        op = parts[0].lower()
        operands = parts[1:]
        for expanded_op, expanded_operands in _expand_pseudo(op, operands):
            pending.append((expanded_op, expanded_operands, line_no))
            address += INSTRUCTION_BYTES

    # ---- pass 2: encode ----------------------------------------------------
    instructions: List[Instruction] = []
    for index, (op, operands, line_no) in enumerate(pending):
        pc = index * INSTRUCTION_BYTES
        try:
            instructions.append(_encode(op, operands, labels, pc))
        except (AssemblyError, IllegalInstructionError) as exc:
            raise AssemblyError(f"line {line_no}: {exc}") from exc
    return Program(
        instructions=tuple(instructions), labels=MappingProxyType(labels), source=source
    )


def _encode(op: str, operands: List[str], labels: Dict[str, int], pc: int) -> Instruction:
    if op in ("ecall", "ebreak"):
        return Instruction(op=op)
    if op in ("lui", "auipc"):
        _require(operands, 2, op)
        return Instruction(op=op, rd=parse_register(operands[0]),
                           imm=_parse_absolute(operands[1], labels))
    if op in ("jal",):
        _require(operands, 2, op)
        return Instruction(op=op, rd=parse_register(operands[0]),
                           imm=_parse_immediate(operands[1], labels, pc))
    if op in ("jalr",):
        _require(operands, 3, op)
        return Instruction(op=op, rd=parse_register(operands[0]),
                           rs1=parse_register(operands[1]),
                           imm=_parse_absolute(operands[2], labels))
    if op in BRANCH_OPS:
        _require(operands, 3, op)
        return Instruction(op=op, rs1=parse_register(operands[0]),
                           rs2=parse_register(operands[1]),
                           imm=_parse_immediate(operands[2], labels, pc))
    if op in ("lw",):
        _require(operands, 2, op)
        offset, base = _parse_memory_operand(operands[1], labels)
        return Instruction(op=op, rd=parse_register(operands[0]), rs1=base, imm=offset)
    if op in ("sw",):
        _require(operands, 2, op)
        offset, base = _parse_memory_operand(operands[1], labels)
        return Instruction(op=op, rs2=parse_register(operands[0]), rs1=base, imm=offset)
    if op in ("addi", "andi", "ori", "xori", "slti", "sltiu", "slli", "srli", "srai"):
        _require(operands, 3, op)
        return Instruction(op=op, rd=parse_register(operands[0]),
                           rs1=parse_register(operands[1]),
                           imm=_parse_absolute(operands[2], labels))
    if op in ("add", "sub", "and", "or", "xor", "slt", "sltu", "sll", "srl", "sra",
              "mul", "mulh", "div", "rem"):
        _require(operands, 3, op)
        return Instruction(op=op, rd=parse_register(operands[0]),
                           rs1=parse_register(operands[1]),
                           rs2=parse_register(operands[2]))
    raise AssemblyError(f"unknown instruction {op!r}")


def _require(operands: List[str], count: int, op: str) -> None:
    if len(operands) != count:
        raise AssemblyError(f"{op} expects {count} operands, got {len(operands)}")


def _parse_memory_operand(token: str, labels: Dict[str, int]) -> Tuple[int, int]:
    match = _MEM_OPERAND.match(token.strip())
    if not match:
        raise AssemblyError(f"bad memory operand {token!r}; expected offset(base)")
    offset_token, base_token = match.groups()
    offset = _parse_absolute(offset_token, labels)
    return offset, parse_register(base_token)
