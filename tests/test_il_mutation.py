"""Property test over IL text: no kernel that parses crashes the CLI.

Generated kernels are mutated as text: a line is deleted, duplicated or
swapped with another, a register or stream index is renumbered, or a
format is changed.  Each mutant goes through ``repro lint``, ``compile``
and ``time`` in-process.  Every call must exit 0 or 1 without raising,
and print nothing on stderr or exactly one ``repro:`` line.  Each crash
the property found is kept below as a named regression, the way
``test_compiler_fuzz.py`` keeps its own.
"""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.il.text import emit_il
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.kernels import (
    KernelParams,
    generate_clause_usage,
    generate_generic,
    generate_register_usage,
)

#: every shape the generators emit: constants and two outputs, compute
#: mode with global streams and float4, clause and register usage.
SEEDS = [
    emit_il(kernel).splitlines()
    for kernel in (
        generate_generic(KernelParams(inputs=2, outputs=2, constants=1)),
        generate_generic(
            KernelParams(
                inputs=2,
                dtype=DataType.FLOAT4,
                mode=ShaderMode.COMPUTE,
                input_space=MemorySpace.GLOBAL,
            )
        ),
        generate_clause_usage(KernelParams(inputs=3, alu_fetch_ratio=2.0)),
        generate_register_usage(KernelParams(inputs=16, space=4, step=2)),
    )
]

NUMBER = re.compile(r"\d+")
FORMAT = re.compile(r"\bfloat[24]?\b")
FORMATS = ("float", "float2", "float4")

#: a small launch: the property is about the verbs' failure paths.
VERBS = (
    ["lint"],
    ["compile"],
    ["time", "--domain", "64", "64", "--iterations", "1"],
)


def _tokens(lines: list[str], pattern: re.Pattern) -> list[tuple[int, re.Match]]:
    return [
        (i, match)
        for i, line in enumerate(lines)
        for match in pattern.finditer(line)
    ]


def _replace(lines: list[str], at: tuple[int, re.Match], text: str) -> None:
    i, match = at
    lines[i] = lines[i][: match.start()] + text + lines[i][match.end() :]


@st.composite
def mutants(draw) -> str:
    """The IL text of one generated kernel with one mutation applied."""
    lines = list(draw(st.sampled_from(SEEDS)))
    line = st.integers(0, len(lines) - 1)
    kind = draw(
        st.sampled_from(("delete", "duplicate", "swap", "renumber", "format"))
    )
    if kind == "delete":
        del lines[draw(line)]
    elif kind == "duplicate":
        i = draw(line)
        lines.insert(i, lines[i])
    elif kind == "swap":
        i, j = draw(line), draw(line)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "renumber":
        at = draw(st.sampled_from(_tokens(lines, NUMBER)))
        _replace(lines, at, str(draw(st.integers(0, 20))))
    else:
        at = draw(st.sampled_from(_tokens(lines, FORMAT)))
        _replace(lines, at, draw(st.sampled_from(FORMATS)))
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """``main``'s exit code, stdout and stderr; anything it raises escapes."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_handled(path, text: str) -> None:
    """Every verb exits 0, or 1 with its reason, and never raises."""
    path.write_text(text)
    for verb in VERBS:
        code, out, err = run([verb[0], "--il", str(path), *verb[1:]])
        lines = err.splitlines()
        assert code in (0, 1), (verb, text)
        assert lines == [] or (
            len(lines) == 1 and lines[0].startswith("repro: ")
        ), (verb, text, err)
        if code == 1:
            assert lines or "error(s)" in out, (verb, text)


@pytest.fixture(scope="module")
def il_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.il"


# Capped so tier-1 stays quick; raise max_examples locally to search harder.
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=mutants())
def test_mutated_kernels_never_crash_the_cli(il_path, text):
    assert_handled(il_path, text)


# ---- regressions the mutations found ----------------------------------------

class TestRegressions:
    def test_an_input_read_only_by_dead_code(self, il_path):
        # ``mov o0, r2`` -> ``mov o0, r1`` left input 0 feeding only dead
        # ALU code, so DCE drops its fetch.  The DCE check raised
        # PassValidationError out of every verb but ``lint``, which said
        # the sampled input was "never sampled".
        from tests.test_verify import DEAD_INPUT_ERROR, DEAD_INPUT_IL

        assert_handled(il_path, DEAD_INPUT_IL)
        for verb in VERBS[1:]:
            assert run([verb[0], "--il", str(il_path), *verb[1:]])[2] == (
                f"repro: {DEAD_INPUT_ERROR}\n"
            )
