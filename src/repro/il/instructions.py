"""IL instruction and operand model.

IL programs are in (infinite) virtual-register form: ``r0, r1, ...``.  The
CAL-compiler stand-in (:mod:`repro.compiler`) later maps virtual registers
onto the finite general-purpose register file, clause temporaries and the
``PV``/``PS`` previous-result registers described in §II-A of the paper.
"""

from __future__ import annotations

import enum
import functools
import operator
from dataclasses import dataclass

from repro.il.opcodes import ILOp


class RegisterFile(enum.Enum):
    """Register namespaces visible at the IL level."""

    TEMP = "r"  #: virtual temporary
    CONST = "cb0"  #: constant-buffer entry
    LITERAL = "l"  #: literal constant
    POSITION = "v"  #: interpolated position (pixel) / thread id (compute)
    OUTPUT = "o"  #: pixel-shader output (color buffer)


# Registers are dict/set keys on every verifier hot path,
# and their rendered names appear once per instruction in emitted IL.
# Enum attribute access goes through Python-level descriptors, so each
# member gets a plain-int ordinal and a precomputed name prefix here.
for _ordinal, _member in enumerate(RegisterFile):
    _member._code = _ordinal
    _member._prefix = _member.value


@dataclass(frozen=True)
class Register:
    """A register reference such as ``r12`` or ``cb0[3]``."""

    file: RegisterFile
    index: int

    def __hash__(self) -> int:
        # Process-independent (no str/id hashing): safe to pickle
        # alongside cached state, and a perfect hash for small indices.
        return self.index * 8 + self.file._code

    # Memos on the interned instance (plain attribute reads once set):
    # emitted IL renders a register per operand, builders coerce them.
    @functools.cached_property
    def text(self) -> str:
        if self.file is RegisterFile.CONST:
            return f"cb0[{self.index}]"
        return f"{self.file._prefix}{self.index}"

    @functools.cached_property
    def as_operand(self) -> "Operand":
        """The plain (non-negated) operand reading this register."""
        return Operand(self)

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Operand:
    """A source operand: a register with an optional negate modifier."""

    register: Register
    negate: bool = False

    @functools.cached_property
    def text(self) -> str:
        text = self.register.text
        return f"-{text}" if self.negate else text

    @functools.cached_property  # def-use, IL checks, IL executor: per source
    def temp_index(self) -> int | None:
        """The index of the temporary read; None for any other register."""
        reg = self.register
        return reg.index if reg.file is RegisterFile.TEMP else None

    @property
    def as_operand(self) -> "Operand":
        """Itself: registers and operands coerce alike."""
        return self

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class ILInstruction:
    """Base class for all IL instructions."""

    def defined_registers(self) -> tuple[Register, ...]:
        """Registers written by this instruction."""
        return ()

    def used_registers(self) -> tuple[Register, ...]:
        """Registers read by this instruction."""
        return ()


@dataclass(frozen=True)
class SampleInstruction(ILInstruction):
    """``sample_resource(n)_sampler(n) dst, coord`` — a texture fetch.

    ``resource`` identifies the bound input texture; ``coord`` is normally
    the position register (pixel mode) or a computed 2-D address (compute
    mode, where the 1D->2D conversion is manual — §IV).
    """

    dest: Register
    resource: int
    coord: Operand

    def __str__(self) -> str:
        return (
            f"sample_resource({self.resource})_sampler({self.resource}) "
            f"{self.dest.text}, {self.coord.text}"
        )

    def defined_registers(self) -> tuple[Register, ...]:
        return (self.dest,)

    def used_registers(self) -> tuple[Register, ...]:
        return (self.coord.register,)


@dataclass(frozen=True)
class GlobalLoadInstruction(ILInstruction):
    """``mov dst, g[addr + offset]`` — an uncached global-memory read."""

    dest: Register
    address: Operand
    offset: int = 0

    def __str__(self) -> str:
        suffix = f" + {self.offset}" if self.offset else ""
        return f"mov {self.dest.text}, g[{self.address.text}{suffix}]"

    def defined_registers(self) -> tuple[Register, ...]:
        return (self.dest,)

    def used_registers(self) -> tuple[Register, ...]:
        return (self.address.register,)


@dataclass(frozen=True)
class GlobalStoreInstruction(ILInstruction):
    """``mov g[addr + offset], src`` — an uncached global-memory write."""

    address: Operand
    source: Operand
    offset: int = 0

    def __str__(self) -> str:
        suffix = f" + {self.offset}" if self.offset else ""
        return f"mov g[{self.address.text}{suffix}], {self.source.text}"

    def used_registers(self) -> tuple[Register, ...]:
        return (self.address.register, self.source.register)


@dataclass(frozen=True)
class ExportInstruction(ILInstruction):
    """``mov oN, src`` — a pixel-shader color-buffer (streaming) store."""

    target: int
    source: Operand

    def __str__(self) -> str:
        return f"mov o{self.target}, {self.source.text}"

    def used_registers(self) -> tuple[Register, ...]:
        return (self.source.register,)


@dataclass(frozen=True, init=False)
class ALUInstruction(ILInstruction):
    """An arithmetic instruction, e.g. ``add r3, r1, r2``."""

    op: ILOp
    dest: Register
    sources: tuple[Operand, ...] = ()

    def __init__(
        self, op: ILOp, dest: Register, sources: tuple[Operand, ...] = ()
    ) -> None:
        # Hand-written: generators build tens of thousands of these, and
        # the generated frozen ``__init__`` plus a check cost far more.
        # (Writing ``self.__dict__`` is quicker per call but builds a real
        # dict per instance: more memory and collector work.)
        if len(sources) != op.arity:
            raise ValueError(
                f"{op.mnemonic} expects {op.arity} sources, got {len(sources)}"
            )
        _setattr(self, "op", op)
        _setattr(self, "dest", dest)
        _setattr(self, "sources", sources)

    def __str__(self) -> str:
        # Emitted IL renders every instruction, nearly all binary ops.
        sources = self.sources
        if len(sources) == 2:
            a, b = sources
            return f"{self.op.mnemonic} {self.dest.text}, {a.text}, {b.text}"
        return ", ".join(
            [f"{self.op.mnemonic} {self.dest.text}", *map(_text, sources)]
        )

    def defined_registers(self) -> tuple[Register, ...]:
        return (self.dest,)

    def used_registers(self) -> tuple[Register, ...]:
        return tuple([s.register for s in self.sources])


_setattr = object.__setattr__
_text = operator.attrgetter("text")


@functools.lru_cache(maxsize=None)
def temp(index: int) -> Register:
    """Shorthand for a virtual temporary register ``r<index>``.

    Interned: kernels reuse the same low-numbered temporaries, and a
    shared object amortizes the cached ``__str__``/operand wrappers.
    """
    return Register(RegisterFile.TEMP, index)


@functools.lru_cache(maxsize=None)
def const(index: int) -> Register:
    """Shorthand for constant-buffer entry ``cb0[<index>]``."""
    return Register(RegisterFile.CONST, index)


@functools.lru_cache(maxsize=None)
def position() -> Register:
    """The position/thread-id register (``v0``)."""
    return Register(RegisterFile.POSITION, 0)


def operand(value: Operand | Register, negate: bool = False) -> Operand:
    """Coerce a register to an operand, optionally negated."""
    op = value.as_operand
    if negate:
        return Operand(op.register, negate=not op.negate)
    return op
