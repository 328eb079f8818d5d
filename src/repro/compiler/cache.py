"""Content-addressed compiled-program cache (the JIT-kernel-cache analog).

PR 3 made *simulation* content-addressed; this module does the same for
compilation, the last uncached stage.  A :class:`CompileCache` fronts
:func:`~repro.compiler.pipeline.compile_kernel` with two tiers:

1. an **in-process LRU** of live :class:`~repro.isa.program.ISAProgram`
   objects — the compile-once guarantee inside a run or pool batch;
2. an optional **on-disk shard store** (:class:`ProgramStore`, one
   blob per program) holding the stable JSON serialization from
   :mod:`repro.isa.serialize` — warm-start across processes and runs.

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
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro import telemetry
from repro.il.text import cached_il_text
from repro.jobs.units import CODE_SALT
from repro.isa.serialize import (
    SCHEMA_VERSION,
    SerializationError,
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


def compile_cache_key(il_text: str, options: "CompileOptions") -> str:
    """The compiled program's content address (hex, 40 chars)."""
    material = {
        "version": CODE_SALT,
        "schema": SCHEMA_VERSION,
        "il": hashlib.sha256(il_text.encode()).hexdigest(),
        "max_tex_per_clause": options.max_tex_per_clause,
        "max_alu_per_clause": options.max_alu_per_clause,
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    return digest[:40]


class ProgramStore:
    """On-disk compiled programs: ``<root>/programs/ab/<key>.json``.

    One small JSON blob per key, sharded by key prefix.  Writes are
    atomic (temp file + ``os.replace``, so a killed process leaves no
    half-written blob), a corrupt blob reads as a miss, and maintenance
    is salt-aware (``gc`` reaps blobs recorded under another
    ``CODE_SALT``).  Concurrent pool workers write and load each
    other's programs through it.  Shares the result cache's root by
    default (``results/cache/``), in its own subtree, so
    ``repro cache stats/gc/clear`` maintain both tiers together.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ---- paths -----------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / "programs"

    def blob_path(self, key: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.json"

    # ---- blob I/O --------------------------------------------------------
    def read(self, key: str) -> dict | None:
        """The stored blob for ``key``, or ``None`` (missing or corrupt)."""
        try:
            blob = json.loads(self.blob_path(key).read_text())
        except (OSError, ValueError):
            return None
        return blob if isinstance(blob, dict) else None

    def write(self, key: str, blob: dict) -> None:
        """Store ``blob`` under ``key`` atomically (temp file + rename)."""
        path = self.blob_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(blob, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def fresh(blob: dict | None) -> bool:
        """Whether ``blob`` was recorded under the current code salt."""
        return blob is not None and blob.get("version") == CODE_SALT

    def load(
        self, key: str, kernel: "ILKernel | None" = None
    ) -> "ISAProgram | None":
        """Deserialize the stored program, or ``None`` (counted a miss).

        A corrupt or stale blob reads as a miss — the caller recompiles
        and the fresh ``save`` repairs the entry.  ``kernel`` attaches
        the caller's kernel instead of re-parsing the payload's IL text
        (sound whenever ``key`` was derived from that kernel's IL hash);
        this is what makes a warm load parse-free.
        """
        blob = self.read(key)
        if not self.fresh(blob):
            return None
        try:
            return program_from_json(blob["program"], kernel=kernel)
        except (KeyError, SerializationError):
            return None

    def save(self, key: str, program: "ISAProgram") -> None:
        self.write(
            key,
            {
                "key": key,
                "version": CODE_SALT,
                "created": time.time(),
                "program": program_to_json(program),
            },
        )

    # ---- maintenance -----------------------------------------------------
    def iter_blobs(self) -> Iterator[tuple[Path, dict | None]]:
        """Yield ``(path, blob | None)`` for every stored program."""
        if not self.objects_dir.is_dir():
            return
        for path in sorted(self.objects_dir.glob("*/*.json")):
            try:
                blob = json.loads(path.read_text())
            except (OSError, ValueError):
                blob = None
            yield path, blob if isinstance(blob, (dict, type(None))) else None

    def scan(self) -> tuple[int, int, int]:
        """``(entries, bytes, stale)`` over the whole store."""
        entries = size = stale = 0
        for path, blob in self.iter_blobs():
            entries += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
            if not self.fresh(blob):
                stale += 1
        return entries, size, stale

    def gc(self) -> int:
        """Delete unreadable blobs and ones recorded under another salt."""
        removed = 0
        for path, blob in self.iter_blobs():
            if not self.fresh(blob):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Delete every entry; returns the removed count."""
        removed = 0
        for path, _blob in self.iter_blobs():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class CompileCache:
    """Two-tier compile cache; one instance per run or pool batch."""

    def __init__(
        self,
        store: ProgramStore | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.store = store
        self.capacity = capacity
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
        key = compile_cache_key(cached_il_text(kernel), options)

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
        while len(self._memory) > self.capacity:
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
