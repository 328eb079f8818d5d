#!/usr/bin/env python3
"""One digest over every program the full figure sweep compiles.

Runs ``run_suite(fast=False)`` with ``CompileCache.get_or_compile``
wrapped, collects the ``(IL text, program_to_json)`` pair of each
distinct compiled program, and prints one SHA-256 over the sorted pairs
together with the number of programs.  The compiler's output for every
paper kernel is therefore pinned by one value: a change that moves any
register, slot or clause of any program changes the digest.

Usage::

    python tools/program_digest.py          # print digest and count
    python tools/program_digest.py --check  # exit 1 unless both match the pin

A deliberate compiler change updates ``EXPECTED`` below, the way the
pins in ``tests/test_golden.py`` are updated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (sha256, distinct programs) of the full sweep, serialized with
#: program schema 2 (the bundle table).  Under schema 1 the same
#: programs digest to 9d98151ac2c97a75...; a change of encoding alone
#: moves this pin, so check the compiler's output against the old
#: encoder before re-pinning.
EXPECTED = (
    "d84e9e3ab6c8c9e8700e7329a5aa62d6b2170c9c3747dfa9a55a0e361dc6046d",
    570,
)


def sweep_digest() -> tuple[str, int]:
    """Run the full sweep; digest the distinct programs it compiled."""
    from repro.compiler.cache import CompileCache
    from repro.il.text import emit_il
    from repro.isa.serialize import program_to_json
    from repro.suite import run_suite

    pairs: set[tuple[str, str]] = set()
    original = CompileCache.get_or_compile

    def recording(self, kernel, *args, **kwargs):
        program = original(self, kernel, *args, **kwargs)
        pairs.add(
            (
                emit_il(kernel),
                json.dumps(program_to_json(program), sort_keys=True),
            )
        )
        return program

    CompileCache.get_or_compile = recording
    try:
        run_suite(fast=False)
    finally:
        CompileCache.get_or_compile = original
    digest = hashlib.sha256()
    for il_text, program in sorted(pairs):
        digest.update(il_text.encode())
        digest.update(b"\0")
        digest.update(program.encode())
        digest.update(b"\n")
    return digest.hexdigest(), len(pairs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="fail unless the pin matches"
    )
    args = parser.parse_args(argv)
    digest, count = sweep_digest()
    print(f"{digest} {count} programs")
    if args.check and (digest, count) != EXPECTED:
        print(
            f"expected {EXPECTED[0]} {EXPECTED[1]} programs; update EXPECTED "
            "only for a deliberate compiler change",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
