#!/usr/bin/env python3
"""One digest over every program the full figure sweep compiles, and
one over what those programs compute.

Runs ``run_suite(fast=False)`` with ``CompileCache.get_or_compile``
wrapped, collects the ``(IL text, program_to_json)`` pair of each
distinct compiled program, and prints one SHA-256 over the sorted pairs
together with the number of programs.  The compiler's output for every
paper kernel is therefore pinned by one value: a change that moves any
register, slot or clause of any program changes the digest.

It then runs each distinct kernel on its seeded differential inputs
(``repro.verify.differential.seeded_case``) through the IL executor,
requires every program compiled from it to give bitwise the same
outputs in the ISA interpreter, and prints one SHA-256 over the IL
outputs.  The differential check compares the two executors with each
other, so this pin is what catches a change that moves both alike.

Usage::

    python tools/program_digest.py          # print both digests
    python tools/program_digest.py --check  # exit 1 unless both match the pins

A deliberate compiler change updates ``EXPECTED`` below, and a
deliberate change of ALU semantics ``EXPECTED_OUTPUTS``, the way the
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
#: sha256 over every distinct kernel's seeded IL-executor outputs.
EXPECTED_OUTPUTS = (
    "c9e990f78d6b3411a3f2824ee2b43bf6f613670e2c1c06d7cfa130ba2961b4eb"
)


def sweep_digest() -> tuple[str, int, str]:
    """Run the full sweep; digest the distinct programs it compiled and
    their seeded outputs.  Raises ``SystemExit`` if the two executors
    disagree on one."""
    from repro.compiler.cache import CompileCache
    from repro.il.text import emit_il
    from repro.isa.serialize import program_to_json
    from repro.suite import run_suite

    pairs: set[tuple[str, str]] = set()
    #: IL text -> (the kernel, one program per distinct serialization)
    compiled: dict[str, tuple] = {}
    original = CompileCache.get_or_compile

    def recording(self, kernel, *args, **kwargs):
        program = original(self, kernel, *args, **kwargs)
        il_text = emit_il(kernel)
        serialized = json.dumps(program_to_json(program), sort_keys=True)
        pairs.add((il_text, serialized))
        compiled.setdefault(il_text, (kernel, {}))[1][serialized] = program
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
    return digest.hexdigest(), len(pairs), outputs_digest(compiled)


def outputs_digest(compiled: dict[str, tuple]) -> str:
    """SHA-256 over each kernel's seeded IL-executor output bytes, in IL
    text order; exits if a program's ISA-interpreter outputs differ."""
    from repro.isa.interp import execute_program
    from repro.sim.functional import execute_kernel
    from repro.verify.differential import seeded_case

    digest = hashlib.sha256()
    for il_text in sorted(compiled):
        kernel, programs = compiled[il_text]
        case = seeded_case(kernel)
        run = (case.inputs, case.domain, case.constants)
        outputs = execute_kernel(kernel, *run)
        blobs = {key: array.tobytes() for key, array in outputs.items()}
        for program in programs.values():
            isa = execute_program(program, *run)
            if {key: array.tobytes() for key, array in isa.items()} != blobs:
                raise SystemExit(
                    f"kernel {kernel.name!r}: the ISA interpreter's outputs "
                    "differ from the IL executor's"
                )
        for key in sorted(blobs):
            digest.update(f"{kernel.name}:{key}:".encode())
            digest.update(blobs[key])
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="fail unless the pin matches"
    )
    args = parser.parse_args(argv)
    digest, count, outputs = sweep_digest()
    print(f"{digest} {count} programs")
    print(f"{outputs} outputs")
    failed = False
    if args.check and (digest, count) != EXPECTED:
        print(
            f"expected {EXPECTED[0]} {EXPECTED[1]} programs; update EXPECTED "
            "only for a deliberate compiler change",
            file=sys.stderr,
        )
        failed = True
    if args.check and outputs != EXPECTED_OUTPUTS:
        print(
            f"expected outputs {EXPECTED_OUTPUTS}; update EXPECTED_OUTPUTS "
            "only for a deliberate change of what kernels compute",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
