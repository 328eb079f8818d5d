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
uncached.  Every suite path installs one: ``run_suite`` and
``run_benchmark`` scope an in-memory cache around a serial run, the
jobs engine scopes its own around each run, and pool workers scope one
per batch of units.  Traffic is observable through the
``compile.cache.hit{layer=memory|disk}`` / ``compile.cache.miss`` /
``compile.cache.serialize`` counters (docs/telemetry.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import telemetry
from repro.il.text import cached_il_text
from repro.jobs.ledger import (
    append_line,
    compact,
    count_blobs,
    reap_tree,
    scan_lines,
)
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
    """On-disk compiled programs: one append-only log, ``<root>/programs.jsonl``.

    Each save appends one line through :func:`repro.jobs.ledger.append_line`
    (the result log's writer)::

        {"version": "<salt>", "key": "<key>", "created": ..., "program": {...}}

    The store indexes the log by each line's salt and key, read from the
    line's leading bytes without decoding the program.  On a miss it
    indexes only the complete lines appended past the last one it read,
    so concurrent pool workers find each other's programs.  A hit reads
    its one line and validates it fully (JSON, salt, key, decode); a
    corrupt, torn or stale line reads as a miss, and the fresh ``save``
    repairs it, because for a key the last line wins.  Shares the result
    cache's root by default (``results/cache/``), so
    ``repro cache stats/gc/clear`` maintain both tiers together.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.log_path = self.root / "programs.jsonl"
        #: the pre-log layout: one blob per program, read by nothing.
        self.legacy_dir = self.root / "programs"
        #: the leading bytes of every line written under this salt.
        self._prefix = f'{{"version": {json.dumps(CODE_SALT)}, "key": "'.encode()
        self._index: dict[str, tuple[int, int]] = {}  #: key -> (offset, length)
        self._scanned = 0  #: bytes of the log indexed so far
        self._inode = -1  #: the indexed log file (``gc`` replaces it)

    def load(
        self, key: str, kernel: "ILKernel | None" = None
    ) -> "ISAProgram | None":
        """Deserialize the stored program, or ``None`` (counted a miss).

        ``kernel`` attaches the caller's kernel instead of re-parsing the
        payload's IL text (sound whenever ``key`` was derived from that
        kernel's IL hash); this is what makes a warm load parse-free.
        """
        entry = self._index.get(key)
        if entry is None:
            self._index_tail()
            entry = self._index.get(key)
            if entry is None:
                return None
        offset, length = entry
        try:
            fd = os.open(self.log_path, os.O_RDONLY)
            try:
                line = json.loads(os.pread(fd, length, offset))
            finally:
                os.close(fd)
            if line["version"] == CODE_SALT and line["key"] == key:
                return program_from_json(line["program"], kernel=kernel)
        except (OSError, ValueError, KeyError, TypeError):
            pass  # SerializationError and JSON errors are ValueErrors
        # A later line for this key (the repairing save) is indexed by
        # the next tail scan.
        del self._index[key]
        return None

    def save(self, key: str, program: "ISAProgram") -> None:
        """Append ``program`` under ``key`` as one log line."""
        append_line(
            self.log_path,
            {
                "version": CODE_SALT,
                "key": key,
                "created": time.time(),
                "program": program_to_json(program),
            },
        )

    def _index_tail(self) -> None:
        """Index the complete lines past the last one read."""
        try:
            with open(self.log_path, "rb") as fh:
                st = os.fstat(fh.fileno())
                if st.st_ino != self._inode or st.st_size < self._scanned:
                    self._forget()  # a new, rewritten or truncated log
                    self._inode = st.st_ino
                fh.seek(self._scanned)
                tail = fh.read()
        except OSError:
            self._forget()
            return
        prefix, skip = self._prefix, len(self._prefix)
        end = tail.rfind(b"\n") + 1  # a torn or in-flight line waits
        pos = 0
        while pos < end:
            stop = tail.index(b"\n", pos)
            if tail.startswith(prefix, pos):
                close = tail.find(b'"', pos + skip, stop)
                if close > 0:
                    key = tail[pos + skip:close].decode("latin-1")
                    self._index[key] = (self._scanned + pos, stop - pos)
            pos = stop + 1
        self._scanned += end

    def _forget(self) -> None:
        self._index.clear()
        self._scanned = 0
        self._inode = -1

    # ---- maintenance -----------------------------------------------------
    def scan(self) -> tuple[int, int, int]:
        """``(entries, bytes, stale)``: distinct keys with a fresh line,
        the log's size, and the lines ``gc`` would drop plus legacy blobs."""
        latest, dropped = scan_lines(self.log_path, "program")
        try:
            size = self.log_path.stat().st_size
        except OSError:
            size = 0
        return len(latest), size, dropped + count_blobs(self.legacy_dir)

    def gc(self) -> int:
        """Keep the last fresh line per key and reap the legacy blob tree;
        returns the lines and blobs dropped.  Run it between runs."""
        removed = compact(self.log_path, "program") + reap_tree(self.legacy_dir)
        self._forget()
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the removed count."""
        latest, dropped = scan_lines(self.log_path, "program")
        self.log_path.unlink(missing_ok=True)
        self._forget()
        return len(latest) + dropped + reap_tree(self.legacy_dir)


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
