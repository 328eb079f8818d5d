"""Generic content-addressed blob store (the caches' shared machinery).

Both on-disk caches — simulated-unit records (:mod:`repro.jobs.cache`)
and compiled programs (:mod:`repro.compiler.cache`) — store small JSON
blobs sharded by key prefix::

    <root>/<subdir>/ab/<key>.json

:class:`BlobStore` owns everything that must behave identically across
them: the sharded layout, atomic writes (temp file + ``os.replace`` so a
killed process leaves no half-written blob), corrupt-blob tolerance, and
salt-aware maintenance (``gc`` reaps blobs recorded under a different
salt, ``scan`` reports entries/bytes/stale).

A blob is any JSON object; stores that want salt invalidation include a
``"version"`` field, which :meth:`fresh` checks.  This module is
deliberately stdlib-only — it sits below every repro layer, so both the
jobs package and the compiler can import it without cycles.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator


class BlobStore:
    """Sharded, atomically-written JSON blobs under one directory."""

    def __init__(
        self, root: str | Path, subdir: str = "objects", salt: int = 0
    ) -> None:
        self.root = Path(root)
        self.subdir = subdir
        self.salt = salt
        #: shard directories this instance has already created.
        self._shards: set[Path] = set()

    # ---- paths -----------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.root / self.subdir

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
        shard = path.parent
        if shard not in self._shards:
            shard.mkdir(parents=True, exist_ok=True)
            self._shards.add(shard)
        try:
            fd, tmp = self._temp_file(shard, key)
        except FileNotFoundError:
            # Removed since this store made it (a cache clear mid-run):
            # make it again and retry once.
            shard.mkdir(parents=True, exist_ok=True)
            fd, tmp = self._temp_file(shard, key)
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
    def _temp_file(shard: Path, key: str) -> tuple[int, str]:
        return tempfile.mkstemp(dir=shard, prefix=f".{key[:8]}-", suffix=".tmp")

    def fresh(self, blob: dict | None) -> bool:
        """Whether ``blob`` was recorded under this store's salt."""
        return blob is not None and blob.get("version") == self.salt

    # ---- maintenance -----------------------------------------------------
    def iter_blobs(self) -> Iterator[tuple[Path, dict | None]]:
        """Yield ``(path, blob | None)`` for every stored object."""
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
        """Delete unreadable blobs and ones salted under another version."""
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
