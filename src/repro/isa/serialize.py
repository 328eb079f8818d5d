"""Stable JSON serialization for compiled :class:`ISAProgram` values.

The compiled-program cache (:mod:`repro.compiler.cache`) persists
programs across processes, so the round-trip must be *exact*: the
deserialized program executes bitwise-identically in the ISA
interpreter and reports the same ``gpr_count``/clause structure.  Two
properties make that hold:

* the kernel travels as its canonical IL text (``emit_il`` →
  ``parse_il``), the same representation the work-unit cache keys on;
* clauses are encoded field-by-field from the frozen dataclasses in
  :mod:`repro.isa.clauses` — enums by name, never by Python identity —
  and rebuilt through the same constructors, so ``__post_init__``
  validation re-runs on load and a corrupt blob fails loudly instead of
  simulating garbage.

:data:`SCHEMA_VERSION` is baked into both the payload and the cache key:
changing the encoding orphans old blobs rather than misreading them.
:func:`program_digest` hashes the canonical encoding — the program's
content identity.
"""

from __future__ import annotations

import hashlib
import json

from repro.il.opcodes import ILOp
from repro.il.text import emit_il
from repro.il.types import MemorySpace
from repro.isa.clauses import (
    ALUClause,
    ALUOp,
    Bundle,
    Clause,
    ExportClause,
    FetchInstr,
    StoreInstr,
    TEXClause,
    Value,
    ValueLocation,
    interned_value,
)
from repro.isa.program import ISAProgram

#: bump when the encoding below changes shape; participates in the
#: compiled-program cache key, so old blobs become unreachable, not wrong.
SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """A payload does not decode to a valid :class:`ISAProgram`."""


# ---- values and instructions -------------------------------------------------

def _encode_value(value: Value | None) -> list | None:
    if value is None:
        return None
    return [value.location.name, value.index, value.negate]


def _decode_value(data: list | None) -> Value | None:
    if data is None:
        return None
    location, index, negate = data
    return interned_value(ValueLocation[location], int(index), bool(negate))


_BUNDLE_CACHE: dict[tuple, Bundle] = {}


def _decode_bundle(bundle: list) -> Bundle:
    """Decode one VLIW bundle, interning the result.

    Generated kernels are long chains of a few op shapes (a fig16 store
    holds ~10k bundle encodings with <100 distinct), so decoding by
    dict hit instead of reconstruction is the difference between a warm
    program load being parse-bound or I/O-bound.  Bundles are frozen and
    compare by fields; sharing instances is observationally identical,
    and a real reconstruction (with ``__post_init__`` validation)
    still guards the first sighting of every distinct encoding.
    """
    key = tuple(
        (
            slot,
            mnemonic,
            None if dest is None else (dest[0], dest[1], dest[2]),
            tuple((s[0], s[1], s[2]) for s in sources),
        )
        for slot, mnemonic, dest, sources in bundle
    )
    cached = _BUNDLE_CACHE.get(key)
    if cached is None:
        if len(_BUNDLE_CACHE) >= 8192:
            _BUNDLE_CACHE.clear()
        cached = Bundle(
            tuple(
                ALUOp(
                    slot,
                    ILOp.from_mnemonic(mnemonic),
                    _decode_value(dest),
                    tuple(_decode_value(s) for s in sources),
                )
                for slot, mnemonic, dest, sources in bundle
            )
        )
        _BUNDLE_CACHE[key] = cached
    return cached


def _encode_clause(clause: Clause) -> dict:
    if isinstance(clause, TEXClause):
        return {
            "kind": "tex",
            "fetches": [
                [_encode_value(f.dest), f.resource, f.space.name]
                for f in clause.fetches
            ],
        }
    if isinstance(clause, ALUClause):
        return {
            "kind": "alu",
            "bundles": [
                [
                    [
                        op.slot,
                        op.op.mnemonic,
                        _encode_value(op.dest),
                        [_encode_value(s) for s in op.sources],
                    ]
                    for op in bundle.ops
                ]
                for bundle in clause.bundles
            ],
        }
    if isinstance(clause, ExportClause):
        return {
            "kind": "exp",
            "done": clause.done,
            "stores": [
                [s.target, s.space.name, _encode_value(s.source)]
                for s in clause.stores
            ],
        }
    raise SerializationError(f"unknown clause kind {type(clause).__name__}")


def _decode_clause(data: dict) -> Clause:
    kind = data.get("kind")
    if kind == "tex":
        return TEXClause(
            tuple(
                FetchInstr(
                    _decode_value(dest), int(resource), MemorySpace[space]
                )
                for dest, resource, space in data["fetches"]
            )
        )
    if kind == "alu":
        return ALUClause(
            tuple(_decode_bundle(bundle) for bundle in data["bundles"])
        )
    if kind == "exp":
        return ExportClause(
            tuple(
                StoreInstr(
                    int(target), MemorySpace[space], _decode_value(source)
                )
                for target, space, source in data["stores"]
            ),
            done=bool(data.get("done", True)),
        )
    raise SerializationError(f"unknown clause kind {kind!r}")


# ---- programs ----------------------------------------------------------------

def program_to_json(program: ISAProgram) -> dict:
    """Encode ``program`` as a JSON-safe dict (see :func:`program_from_json`)."""
    return {
        "schema": SCHEMA_VERSION,
        "il": emit_il(program.kernel),
        "gpr_count": program.gpr_count,
        "clause_temp_count": program.clause_temp_count,
        "clauses": [_encode_clause(c) for c in program.clauses],
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
        return ISAProgram(
            kernel=kernel,
            clauses=tuple(_decode_clause(c) for c in data["clauses"]),
            gpr_count=int(data["gpr_count"]),
            clause_temp_count=int(data["clause_temp_count"]),
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
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
