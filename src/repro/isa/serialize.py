"""Stable JSON serialization for compiled :class:`ISAProgram` values.

The compiled-program cache (:mod:`repro.compiler.cache`) persists
programs across processes, so the round-trip must be *exact*: the
deserialized program executes bitwise-identically in the ISA
interpreter and reports the same ``gpr_count``/clause structure.  Two
properties make that hold:

* the kernel travels as its canonical IL text (``cached_il_text`` →
  ``parse_il``), the same text the compile cache keys on;
* clauses are encoded field-by-field from the frozen dataclasses in
  :mod:`repro.isa.clauses` — enums by name, never by Python identity —
  and rebuilt through the same constructors, so ``__post_init__``
  validation re-runs on load and a corrupt payload fails loudly instead
  of simulating garbage.

VLIW bundles are stored once per program: the payload's ``bundles``
table lists each distinct :attr:`Bundle.code`, and an ALU clause lists
indices into it.  Decoding goes through
:func:`~repro.isa.clauses.interned_bundle`, so a bundle shape the
process has seen before is a dict probe, and the constructor checks run
on the first sighting of each distinct encoding.

:data:`SCHEMA_VERSION` is baked into both the payload and the cache key:
changing the encoding orphans old entries rather than misreading them.
:func:`program_digest` hashes the canonical encoding — the program's
content identity.
"""

from __future__ import annotations

import hashlib
import json

from repro.il.text import cached_il_text
from repro.il.types import MemorySpace
from repro.isa.clauses import (
    ALUClause,
    Bundle,
    Clause,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    interned_bundle,
    value_from_code,
)
from repro.isa.program import ISAProgram

#: bump when the encoding below changes shape; participates in the
#: compiled-program cache key, so old entries become unreachable, not wrong.
SCHEMA_VERSION = 2


class SerializationError(ValueError):
    """A payload does not decode to a valid :class:`ISAProgram`."""


# ---- values and clauses ------------------------------------------------------

def _bundle_code(entry: list) -> tuple:
    """A bundle-table entry as a hashable encoding (JSON gives lists)."""
    return tuple(
        (
            slot,
            mnemonic,
            None if dest is None else tuple(dest),
            tuple([tuple(source) for source in sources]),
        )
        for slot, mnemonic, dest, sources in entry
    )


def _encode_clause(clause: Clause, table: dict[tuple, int]) -> dict:
    if isinstance(clause, TEXClause):
        return {
            "kind": "tex",
            "fetches": [
                [f.dest.code, f.resource, f.space.name]
                for f in clause.fetches
            ],
        }
    if isinstance(clause, ALUClause):
        # setdefault evaluates len(table) first: a new encoding takes
        # the next index.
        return {
            "kind": "alu",
            "bundles": [
                table.setdefault(bundle.code, len(table))
                for bundle in clause.bundles
            ],
        }
    if isinstance(clause, ExportClause):
        return {
            "kind": "exp",
            "done": clause.done,
            "stores": [
                [s.target, s.space.name, s.source.code]
                for s in clause.stores
            ],
        }
    raise SerializationError(f"unknown clause kind {type(clause).__name__}")


def _decode_clause(data: dict, bundles: list[Bundle]) -> Clause:
    kind = data.get("kind")
    if kind == "tex":
        return TEXClause(
            tuple(
                FetchInstr(
                    value_from_code(dest), int(resource), MemorySpace[space]
                )
                for dest, resource, space in data["fetches"]
            )
        )
    if kind == "alu":
        indices = data["bundles"]
        # A negative index would silently read from the table's end.
        if min(indices) < 0:
            raise SerializationError(f"negative bundle index {min(indices)}")
        return ALUClause(tuple([bundles[i] for i in indices]))
    if kind == "exp":
        return ExportClause(
            tuple(
                StoreInstr(
                    int(target), MemorySpace[space], value_from_code(source)
                )
                for target, space, source in data["stores"]
            ),
            done=bool(data.get("done", True)),
        )
    raise SerializationError(f"unknown clause kind {kind!r}")


# ---- programs ----------------------------------------------------------------

def program_to_json(program: ISAProgram) -> dict:
    """Encode ``program`` as a JSON-safe dict (see :func:`program_from_json`).

    Operands and bundle-table entries are tuples (JSON writes them as
    arrays).  The table lists each distinct bundle encoding once, in
    order of first use, so equal programs encode equally whether or not
    their bundles are shared objects.
    """
    table: dict[tuple, int] = {}
    clauses = [_encode_clause(c, table) for c in program.clauses]
    return {
        "schema": SCHEMA_VERSION,
        "il": cached_il_text(program.kernel),
        "gpr_count": program.gpr_count,
        "clause_temp_count": program.clause_temp_count,
        "bundles": list(table),
        "clauses": clauses,
    }


def program_from_json(data: dict, kernel=None) -> ISAProgram:
    """Rebuild a program; raises :class:`SerializationError` on any defect.

    ``kernel`` skips re-parsing the payload's IL text and attaches the
    given :class:`~repro.il.module.ILKernel` instead.  Only pass a kernel
    whose canonical IL text matches the payload's — the compiled-program
    cache does exactly this on a hit (its key contains the IL hash), and
    it is what makes a warm load parse-free.
    """
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise SerializationError(
            f"unsupported program schema {data.get('schema') if isinstance(data, dict) else data!r}"
        )
    try:
        if kernel is None:
            from repro.il.parser import parse_il

            kernel = parse_il(data["il"])
        bundles = [
            interned_bundle(_bundle_code(entry)) for entry in data["bundles"]
        ]
        return ISAProgram(
            kernel=kernel,
            clauses=tuple(_decode_clause(c, bundles) for c in data["clauses"]),
            gpr_count=int(data["gpr_count"]),
            clause_temp_count=int(data["clause_temp_count"]),
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise SerializationError(f"malformed program payload: {exc}") from exc


def program_digest(program: ISAProgram) -> str:
    """Content hash of the canonical encoding (hex, 40 chars).

    Memoized on the program instance, so the same program is hashed
    once, not per use.
    """
    digest = program.__dict__.get("_digest")
    if digest is None:
        payload = json.dumps(program_to_json(program), sort_keys=True)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:40]
        object.__setattr__(program, "_digest", digest)
    return digest


__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "program_digest",
    "program_from_json",
    "program_to_json",
]
