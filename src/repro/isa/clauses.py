"""Clause and instruction records of the lowered ISA form.

Values in the ISA live in one of three places (§II-A, Figure 2):

* a **general-purpose register** (``R0..R255``) — survives across clauses;
* a **clause temporary** (``T0``/``T1``) — live only within one clause, two
  per wavefront slot;
* the **previous vector** (``PV``) — the implicit result of the immediately
  preceding VLIW bundle.

VLIW bundles have four general slots (x, y, z, w) and one transcendental
slot (t); instructions in the same bundle execute in the same cycles, so no
instruction may read a value produced inside its own bundle.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from repro.il.opcodes import ILOp
from repro.il.types import MemorySpace


class ValueLocation(enum.Enum):
    """Storage class of an ISA operand/result."""

    GPR = "R"
    CLAUSE_TEMP = "T"
    PREVIOUS_VECTOR = "PV"
    PREVIOUS_SCALAR = "PS"
    CONSTANT = "KC"
    LITERAL = "L"
    POSITION = "R0IN"  #: the pre-loaded position/thread-id register


_SLOT_LETTERS = ("x", "y", "z", "w", "t")


@dataclass(frozen=True)
class Value:
    """A located value: location class plus index within that class.

    For ``PREVIOUS_VECTOR`` the index is the *slot* (0..3 for x..w) of the
    producing operation in the previous bundle — the paper's Figure 2
    writes these as ``PV1.x`` etc.
    """

    location: ValueLocation
    index: int = 0
    negate: bool = False  #: source modifier: read as the negated value

    @functools.cached_property
    def code(self) -> tuple[str, int, bool]:
        """The value's encoding: ``(location name, index, negate)``."""
        return (self.location.name, self.index, self.negate)

    def __str__(self) -> str:
        sign = "-" if self.negate else ""
        if self.location is ValueLocation.PREVIOUS_VECTOR:
            return f"{sign}PV.{_SLOT_LETTERS[self.index]}"
        if self.location is ValueLocation.PREVIOUS_SCALAR:
            return f"{sign}PS"
        if self.location is ValueLocation.POSITION:
            return f"{sign}R0"
        return f"{sign}{self.location.value}{self.index}"


@functools.lru_cache(maxsize=None)
def interned_value(location: ValueLocation, index: int, negate: bool) -> Value:
    """The one shared :class:`Value` with these fields.

    Values are frozen and compare by fields, so sharing instances is
    observationally identical.  A program is mostly the same few dozen
    operands referenced thousands of times, and compiled programs stay
    alive in the compile cache for a whole run, so the compiler and the
    deserializer build every operand through here.  The field space is
    a few hundred registers per location, so the memo stays unbounded.
    """
    return Value(location, index, negate)


_SLOT_NAMES = ("x", "y", "z", "w", "t")


@dataclass(frozen=True)
class ALUOp:
    """One scalar/vector operation within a VLIW bundle."""

    slot: str  #: one of x, y, z, w, t
    op: ILOp
    dest: Value | None  #: None when the result goes only to PV
    sources: tuple[Value, ...]

    def __post_init__(self) -> None:
        if self.slot not in _SLOT_NAMES:
            raise ValueError(f"invalid VLIW slot {self.slot!r}")
        if self.op.transcendental and self.slot != "t":
            raise ValueError(
                f"{self.op.mnemonic} is transcendental and must use the t slot"
            )

    def __str__(self) -> str:
        dest = str(self.dest) if self.dest is not None else "____"
        srcs = ", ".join(str(s) for s in self.sources)
        return f"{self.slot}: {self.op.mnemonic.upper():<4} {dest}, {srcs}"


@dataclass(frozen=True)
class Bundle:
    """A VLIW instruction: up to five co-issued operations."""

    ops: tuple[ALUOp, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("empty VLIW bundle")
        if len(self.ops) > 5:
            raise ValueError("VLIW bundle exceeds 5 slots")
        slots = [op.slot for op in self.ops]
        if len(set(slots)) != len(slots):
            raise ValueError(f"duplicate VLIW slots in bundle: {slots}")

    @property
    def width(self) -> int:
        return len(self.ops)

    @functools.cached_property
    def code(self) -> tuple:
        """The bundle's encoding, one ``(slot, mnemonic, dest, sources)``
        tuple per op, operands as :attr:`Value.code` (``dest`` may be
        ``None``): the key of :func:`interned_bundle` and an entry of a
        serialized program's bundle table.  Computed once per bundle."""
        return tuple(
            (
                op.slot,
                op.op.mnemonic,
                None if op.dest is None else op.dest.code,
                tuple([s.code for s in op.sources]),
            )
            for op in self.ops
        )


#: the bundle intern table, keyed by canonical encoding; see
#: :func:`interned_bundle`.
_BUNDLES: dict[tuple, Bundle] = {}
_BUNDLES_MAX = 8192


def interned_bundle(code: tuple) -> Bundle:
    """The one shared :class:`Bundle` whose encoding is ``code``.

    Generated kernels are long chains of a few op shapes (the default
    sweep's 240 programs hold ~31k ALU bundles but ~110 distinct ones),
    so the register allocator and the program decoder build every
    bundle through here: a repeat is one dict probe, and the
    :class:`ALUOp`/:class:`Bundle` constructor checks run on the first
    sighting of each distinct encoding.  ``code`` must be hashable (the
    decoder turns JSON lists into tuples); a code that is equal to a
    canonical one but not identical, such as an index ``1.0``, decodes
    to the same bundle.  Bundles are frozen and compare by fields, so
    sharing them is observationally identical.  The table is dropped
    when it reaches ``_BUNDLES_MAX`` entries.
    """
    bundle = _BUNDLES.get(code)
    if bundle is None:
        bundle = Bundle(
            tuple(
                ALUOp(
                    slot,
                    ILOp.from_mnemonic(mnemonic),
                    value_from_code(dest),
                    tuple([value_from_code(s) for s in sources]),
                )
                for slot, mnemonic, dest, sources in code
            )
        )
        if len(_BUNDLES) >= _BUNDLES_MAX:
            _BUNDLES.clear()
        bundle = _BUNDLES.setdefault(bundle.code, bundle)
    return bundle


def value_from_code(code) -> Value | None:
    """The interned :class:`Value` whose :attr:`~Value.code` is ``code``
    (``None`` for ``None``)."""
    if code is None:
        return None
    location, index, negate = code
    return interned_value(ValueLocation[location], int(index), bool(negate))


@dataclass(frozen=True)
class Clause:
    """Base class of the three clause kinds."""


@dataclass(frozen=True)
class FetchInstr:
    """One fetch within a TEX clause (texture sample or global read)."""

    dest: Value
    resource: int
    space: MemorySpace  #: TEXTURE or GLOBAL

    def __post_init__(self) -> None:
        if self.space not in (MemorySpace.TEXTURE, MemorySpace.GLOBAL):
            raise ValueError(f"fetch from invalid space {self.space}")


@dataclass(frozen=True)
class TEXClause(Clause):
    """A fetch clause: issued as one unit, switched at the boundary."""

    fetches: tuple[FetchInstr, ...]

    def __post_init__(self) -> None:
        if not self.fetches:
            raise ValueError("empty TEX clause")

    @property
    def count(self) -> int:
        return len(self.fetches)

    @property
    def space(self) -> MemorySpace:
        spaces = {f.space for f in self.fetches}
        if len(spaces) != 1:
            raise ValueError("TEX clause mixes texture and global fetches")
        return next(iter(spaces))


@dataclass(frozen=True)
class ALUClause(Clause):
    """An ALU clause: a run of VLIW bundles."""

    bundles: tuple[Bundle, ...]

    def __post_init__(self) -> None:
        if not self.bundles:
            raise ValueError("empty ALU clause")

    @property
    def count(self) -> int:
        """Number of VLIW bundles (= issue slots consumed)."""
        return len(self.bundles)

    @property
    def op_count(self) -> int:
        """Total scalar operations across all bundles."""
        return sum(b.width for b in self.bundles)


@dataclass(frozen=True)
class StoreInstr:
    """One output write within an export clause."""

    target: int
    space: MemorySpace  #: COLOR_BUFFER (streaming store) or GLOBAL
    source: Value

    def __post_init__(self) -> None:
        if self.space not in (MemorySpace.COLOR_BUFFER, MemorySpace.GLOBAL):
            raise ValueError(f"store to invalid space {self.space}")


@dataclass(frozen=True)
class ExportClause(Clause):
    """The terminal export clause (``EXP_DONE`` in Figure 2)."""

    stores: tuple[StoreInstr, ...]
    done: bool = True

    def __post_init__(self) -> None:
        if not self.stores:
            raise ValueError("empty export clause")

    @property
    def count(self) -> int:
        return len(self.stores)

    @property
    def space(self) -> MemorySpace:
        spaces = {s.space for s in self.stores}
        if len(spaces) != 1:
            raise ValueError("export clause mixes color-buffer and global stores")
        return next(iter(spaces))
