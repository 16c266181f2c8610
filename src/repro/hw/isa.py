"""The instruction set the simulated CPU executes.

This is a deliberately small Alpha-flavoured ISA — just enough to express
every initiation sequence in the paper verbatim:

* ``LOAD`` / ``STORE`` with base-register + displacement addressing
  (Figs. 1–4, 7 are sequences of exactly these),
* ``MB`` — the memory barrier footnote 6 requires for repeated passing,
* ``CEX`` — an atomic compare-and-exchange-style access for the SHRIMP-1
  single-instruction initiation (§2.4),
* ``CALL_PAL`` — uninterruptible PAL calls (§2.7),
* ``SYSCALL`` — trap to the kernel (the Fig. 1 baseline),
* moves, adds, compares and conditional branches for the Fig. 7 retry loop.

Programs are flat instruction lists; labels are pseudo-instructions
resolved by :func:`assemble`.  Register names follow Alpha conventions:
``v0`` (return value), ``a0``–``a5`` (arguments), ``t0``–``t11`` (temps),
``zero``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigError

#: An operand is either an immediate integer or a register name.
Operand = Union[int, str]

REGISTER_NAMES = (
    ("v0",)
    + tuple(f"a{i}" for i in range(6))
    + tuple(f"t{i}" for i in range(12))
    + tuple(f"s{i}" for i in range(7))
    + ("zero", "ra", "sp")
)

#: The same names, for membership tests.
_REGISTER_SET = frozenset(REGISTER_NAMES)

#: The canonical limit on PAL call length (the paper: "PAL code is
#: organized in 16-instruction long PAL calls").
PAL_MAX_INSTRUCTIONS = 16


@dataclass(frozen=True)
class Addr:
    """A base-register + displacement effective address.

    ``Addr(None, 0x1000)`` is an absolute address; ``Addr("a0", 8)`` is
    ``8(a0)`` in Alpha syntax.
    """

    base: Optional[str] = None
    disp: int = 0

    def __post_init__(self) -> None:
        if self.base is not None and self.base not in _REGISTER_SET:
            raise ConfigError(f"unknown base register {self.base!r}")

    def __repr__(self) -> str:
        if self.base is None:
            return f"[{self.disp:#x}]"
        return f"[{self.base}+{self.disp:#x}]"


class Instruction:
    """Marker base class for all instructions."""

    __slots__ = ()


@dataclass(frozen=True)
class Load(Instruction):
    """``dst <- MEM[addr]`` (64-bit, through the MMU)."""

    dst: str
    addr: Addr


@dataclass(frozen=True)
class Store(Instruction):
    """``MEM[addr] <- src`` (64-bit, through the MMU and write buffer)."""

    addr: Addr
    src: Operand


@dataclass(frozen=True)
class CompareExchange(Instruction):
    """Atomic read-modify-write access used by SHRIMP-1 (§2.4).

    The address names the source page, the data operand carries the size,
    and the old value (the initiation status) lands in *dst* — one single
    indivisible bus transaction.
    """

    dst: str
    addr: Addr
    src: Operand


@dataclass(frozen=True)
class Mb(Instruction):
    """Memory barrier: drain the write buffer before proceeding."""


@dataclass(frozen=True)
class Mov(Instruction):
    """``dst <- src`` (register or immediate)."""

    dst: str
    src: Operand


@dataclass(frozen=True)
class Add(Instruction):
    """``dst <- a + b``."""

    dst: str
    a: Operand
    b: Operand


@dataclass(frozen=True)
class Beq(Instruction):
    """Branch to *target* when ``a == b``."""

    a: Operand
    b: Operand
    target: str


@dataclass(frozen=True)
class Bne(Instruction):
    """Branch to *target* when ``a != b``."""

    a: Operand
    b: Operand
    target: str


@dataclass(frozen=True)
class Jump(Instruction):
    """Unconditional branch to *target*."""

    target: str


@dataclass(frozen=True)
class Label(Instruction):
    """A branch target; assembles to nothing."""

    name: str


@dataclass(frozen=True)
class CallPal(Instruction):
    """Invoke the installed PAL function *name* uninterruptibly (§2.7)."""

    name: str


@dataclass(frozen=True)
class Syscall(Instruction):
    """Trap into the kernel handler *name* (args in a0.., result in v0)."""

    name: str


@dataclass(frozen=True)
class Halt(Instruction):
    """End the program."""


@dataclass(frozen=True)
class Nop(Instruction):
    """Do nothing (pipeline filler)."""


@dataclass
class Program:
    """An assembled program: label-free instructions + branch table.

    Attributes:
        instructions: the executable stream (no Label pseudo-ops).
        labels: label name -> instruction index.
        name: optional display name.
    """

    instructions: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)
    name: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def target(self, label: str) -> int:
        """Resolve *label* to an instruction index."""
        if label not in self.labels:
            raise ConfigError(
                f"program {self.name!r}: unknown label {label!r}")
        return self.labels[label]


def assemble(source: Sequence[Instruction], name: str = "") -> Program:
    """Resolve labels and validate a raw instruction sequence.

    Raises:
        ConfigError: on duplicate labels, dangling branch targets, or
            unknown register names.
    """
    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    for item in source:
        if isinstance(item, Label):
            if item.name in labels:
                raise ConfigError(f"duplicate label {item.name!r}")
            labels[item.name] = len(instructions)
        else:
            instructions.append(item)
    program = Program(instructions, labels, name)
    _validate(program)
    return program


def _validate(program: Program) -> None:
    shapes = _SHAPES
    for index, instr in enumerate(program.instructions):
        cls = type(instr)
        shape = shapes.get(cls)
        if shape is None:
            shape = shapes[cls] = _shape(cls)
        operands, has_addr, has_target = shape
        for attr in operands:
            reg = getattr(instr, attr)
            if isinstance(reg, str) and reg not in _REGISTER_SET:
                raise ConfigError(
                    f"{program.name!r}[{index}]: unknown register {reg!r}")
        if has_addr:
            addr = instr.addr
            if (addr is not None and addr.base is not None
                    and addr.base not in _REGISTER_SET):
                raise ConfigError(f"{program.name!r}[{index}]: unknown "
                                  f"register {addr.base!r}")
        if has_target:
            target = instr.target
            if target is not None and target not in program.labels:
                raise ConfigError(
                    f"{program.name!r}[{index}]: dangling label {target!r}")


#: :func:`_shape` of each instruction class seen so far (a dict probe
#: per instruction, for the initiation programs built on every request).
_SHAPES: Dict[type, Tuple[Tuple[str, ...], bool, bool]] = {}


def _shape(cls: type) -> Tuple[Tuple[str, ...], bool, bool]:
    """The fields :func:`_validate` reads for an instruction class: the
    operands that may name a register, whether it has an ``addr``,
    whether it has a branch ``target``."""
    fields = getattr(cls, "__dataclass_fields__", {})
    return (tuple(a for a in ("dst", "src", "a", "b") if a in fields),
            "addr" in fields, "target" in fields)


def count_memory_accesses(program: Program) -> int:
    """Number of LOAD/STORE/CEX instructions in *program*.

    Used to report the paper's "2 to 5 assembly instructions" claim.
    """
    return sum(
        1 for instr in program.instructions
        if isinstance(instr, (Load, Store, CompareExchange)))


def _fmt_operand(operand: Operand) -> str:
    if isinstance(operand, str):
        return operand
    if operand > 0xFFFF:
        return f"{operand:#x}"
    return str(operand)


def format_instruction(instr: Instruction) -> str:
    """Render one instruction in Alpha-flavoured assembly syntax.

    Examples::

        stq   a2, [a1+0x100000000000]
        ldq   v0, [0x40000000000]
        call_pal user_level_dma
    """
    if isinstance(instr, Load):
        return f"ldq   {instr.dst}, {instr.addr!r}"
    if isinstance(instr, Store):
        return f"stq   {_fmt_operand(instr.src)}, {instr.addr!r}"
    if isinstance(instr, CompareExchange):
        return (f"cex   {instr.dst}, {_fmt_operand(instr.src)}, "
                f"{instr.addr!r}")
    if isinstance(instr, Mb):
        return "mb"
    if isinstance(instr, Mov):
        return f"mov   {instr.dst}, {_fmt_operand(instr.src)}"
    if isinstance(instr, Add):
        return (f"addq  {instr.dst}, {_fmt_operand(instr.a)}, "
                f"{_fmt_operand(instr.b)}")
    if isinstance(instr, Beq):
        return (f"beq   {_fmt_operand(instr.a)}, "
                f"{_fmt_operand(instr.b)}, {instr.target}")
    if isinstance(instr, Bne):
        return (f"bne   {_fmt_operand(instr.a)}, "
                f"{_fmt_operand(instr.b)}, {instr.target}")
    if isinstance(instr, Jump):
        return f"br    {instr.target}"
    if isinstance(instr, Label):
        return f"{instr.name}:"
    if isinstance(instr, CallPal):
        return f"call_pal {instr.name}"
    if isinstance(instr, Syscall):
        return f"syscall {instr.name}"
    if isinstance(instr, Halt):
        return "halt"
    if isinstance(instr, Nop):
        return "nop"
    return repr(instr)


def format_program(program: Program, indent: str = "    ") -> str:
    """Multi-line assembly listing of *program* with label lines.

    Labels are re-interleaved at their target indices so the listing
    reads like the source the sequence builders produced.
    """
    by_index: Dict[int, List[str]] = {}
    for name, index in program.labels.items():
        by_index.setdefault(index, []).append(name)
    lines: List[str] = []
    for index, instr in enumerate(program.instructions):
        for name in by_index.get(index, []):
            lines.append(f"{name}:")
        lines.append(indent + format_instruction(instr))
    for name in by_index.get(len(program.instructions), []):
        lines.append(f"{name}:")
    return "\n".join(lines)
