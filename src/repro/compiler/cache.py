"""Content-addressed compiled-program cache (the JIT-kernel-cache analog).

PR 3 made *simulation* content-addressed; this module does the same for
compilation, the last uncached stage.  A :class:`CompileCache` fronts
:func:`~repro.compiler.pipeline.compile_kernel` with two tiers:

1. an **in-process LRU** of live :class:`~repro.isa.program.ISAProgram`
   objects — the compile-once guarantee inside a run or pool batch;
2. an optional **on-disk program log** (:class:`ProgramStore`, one
   line per program in ``programs.jsonl``) holding the stable JSON
   serialization from :mod:`repro.isa.serialize` — warm-start across
   processes and runs.

Keys hash exactly what the compiler reads: the canonical IL text, the
clause-size options, :data:`~repro.jobs.units.CODE_SALT` (which covers
the compiler's and the verifier's source) and the serialization schema.
The GPU is not in the key — ``compile_kernel`` reads only its clause
limits, which the options already carry — so one kernel compiles once
for every chip with the same limits.  Every compile verifies, so a
cache hit *is* the verified compile it replaces, and the differential
round-trip tests prove deserialized programs execute bitwise-identically.

A cache takes effect only where installed with
:func:`compile_cache_scope`; plain ``compile_kernel`` calls stay
uncached.  The jobs engine scopes its own cache around each run, so
every sweep it runs (``run_suite`` and ``run_benchmark`` included)
compiles each program once, and pool workers scope one per batch of
units.  Traffic is observable through the
``compile.cache.hit{layer=memory|disk}`` / ``compile.cache.miss`` /
``compile.cache.serialize`` counters (docs/telemetry.md).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import telemetry
from repro.il.text import cached_il_text
from repro.jobs.ledger import RunLedger
from repro.jobs.units import CODE_SALT
from repro.isa.serialize import (
    SCHEMA_VERSION,
    program_from_json,
    program_to_json,
)

if TYPE_CHECKING:
    from repro.arch.specs import GPUSpec
    from repro.compiler.pipeline import CompileOptions
    from repro.il.module import ILKernel
    from repro.isa.program import ISAProgram

#: in-process LRU capacity; the default sweep has 240 distinct programs
#: and ``--full`` 570, so the default holds either run without eviction.
DEFAULT_CAPACITY = 512


def compile_cache_key(kernel: "ILKernel", options: "CompileOptions") -> str:
    """The compiled program's content address (hex, 40 chars).  The
    SHA-256 of the kernel's IL text is memoized on it beside the text."""
    il = kernel.__dict__.get("_il_digest")
    if il is None:
        il = hashlib.sha256(cached_il_text(kernel).encode()).hexdigest()
        object.__setattr__(kernel, "_il_digest", il)
    # Every part is a hex digest or an int, so spaces separate them
    # unambiguously; a hit builds no JSON.
    material = (
        f"{CODE_SALT} {SCHEMA_VERSION} {il} "
        f"{options.max_tex_per_clause} {options.max_alu_per_clause}"
    )
    return hashlib.sha256(material.encode()).hexdigest()[:40]


class ProgramStore:
    """On-disk compiled programs: one :class:`~repro.jobs.ledger.RunLedger`
    log, ``<root>/programs.jsonl``, under a ``program`` body.

    Lookup, repair and maintenance are the ledger's (docs/jobs.md,
    "Storage layout"), so pool workers find each other's programs.
    Shares the result cache's root by default (``results/cache/``), so
    ``repro cache stats/gc/clear`` maintain both logs together.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.log = RunLedger(self.root / "programs.jsonl", "program")
        self.log_path = self.log.path
        #: the pre-log layout: one blob per program, read by nothing.
        (self.legacy_dir,) = self.log.legacy

    def load(
        self, key: str, kernel: "ILKernel | None" = None
    ) -> "ISAProgram | None":
        """Deserialize the stored program, or ``None`` (counted a miss).

        ``kernel`` attaches the caller's kernel instead of re-parsing the
        payload's IL text (sound whenever ``key`` was derived from that
        kernel's IL hash); this is what makes a warm load parse-free.
        """
        return self.log.get(
            key, lambda body: program_from_json(body, kernel=kernel)
        )

    def save(self, key: str, program: "ISAProgram") -> None:
        """Append ``program`` under ``key`` as one log line."""
        self.log.append(key, program_to_json(program), None)

    # ---- maintenance -----------------------------------------------------
    def scan(self) -> tuple[int, int, int]:
        """``(entries, bytes, stale)``: distinct keys with a fresh line,
        the log's size, and the lines ``gc`` would drop plus legacy blobs."""
        latest, size, stale = self.log.scan()
        return len(latest), size, stale

    def gc(self) -> int:
        """Drop stale lines and legacy blobs (``RunLedger.gc``)."""
        return self.log.gc()

    def clear(self) -> int:
        """Delete every entry; returns the removed count."""
        return self.log.clear()


class CompileCache:
    """Two-tier compile cache; one instance per run or pool batch."""

    def __init__(self, store: ProgramStore | None = None) -> None:
        self.store = store
        self._memory: OrderedDict[str, "ISAProgram"] = OrderedDict()
        # Session traffic, mirrored into telemetry counters when enabled.
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.serialized = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def __len__(self) -> int:
        return len(self._memory)

    # ---- the compile front door ------------------------------------------
    def get_or_compile(
        self,
        kernel: "ILKernel",
        gpu: "GPUSpec | None" = None,
        options: "CompileOptions | None" = None,
    ) -> "ISAProgram":
        """A verified program for ``kernel``, compiling at most once per key.

        Resolves ``options`` exactly like ``compile_kernel`` so the key
        matches what an uncached compile would have done.  A hit (either
        tier) skips the compile *and* its verification: every compile
        verifies, so the cached entry was verified when it was made.
        """
        from repro.compiler.pipeline import CompileOptions, compile_kernel

        if options is None:
            options = (
                CompileOptions.for_gpu(gpu) if gpu is not None
                else CompileOptions()
            )
        key = compile_cache_key(kernel, options)

        program = self._memory.get(key)
        if program is not None:
            self._memory.move_to_end(key)
            self.memory_hits += 1
            self._count("compile.cache.hit", layer="memory")
            return program

        if self.store is not None:
            program = self.store.load(key, kernel=kernel)
            if program is not None:
                self._remember(key, program)
                self.disk_hits += 1
                self._count("compile.cache.hit", layer="disk")
                return program

        self.misses += 1
        self._count("compile.cache.miss")
        program = compile_kernel(kernel, gpu, options)
        self._remember(key, program)
        if self.store is not None:
            self.store.save(key, program)
            self.serialized += 1
            self._count("compile.cache.serialize")
        return program

    def _remember(self, key: str, program: "ISAProgram") -> None:
        self._memory[key] = program
        self._memory.move_to_end(key)
        while len(self._memory) > DEFAULT_CAPACITY:
            self._memory.popitem(last=False)

    @staticmethod
    def _count(name: str, **labels) -> None:
        if telemetry.enabled():
            telemetry.metrics().counter(name, **labels).inc()


# ---- the ambient (scoped) cache ----------------------------------------------

_active: CompileCache | None = None


def active_cache() -> CompileCache | None:
    """The cache installed for this process, if any (default: none)."""
    return _active


def install_cache(cache: CompileCache | None) -> CompileCache | None:
    """Install ``cache`` process-wide; returns the previous one."""
    global _active
    previous = _active
    _active = cache
    return previous


@contextmanager
def compile_cache_scope(cache: CompileCache) -> Iterator[CompileCache]:
    """Route ``Context.load_module`` compiles through ``cache`` within the
    block (serial suite runs and each jobs-engine run are wrapped in this)."""
    previous = install_cache(cache)
    try:
        yield cache
    finally:
        install_cache(previous)


__all__ = [
    "DEFAULT_CAPACITY",
    "CompileCache",
    "ProgramStore",
    "active_cache",
    "compile_cache_key",
    "compile_cache_scope",
    "install_cache",
]
