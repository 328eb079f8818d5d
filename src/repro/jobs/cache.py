"""On-disk result cache: one append-only record log plus an index.

Layout (default root ``results/cache/``)::

    results/cache/
      records.jsonl  # one line per unit record, in the run ledger's format
      index.json     # entry metadata, rewritten from the log

A ``put`` appends one line (:mod:`repro.jobs.ledger`); the first ``get``
or ``put`` reads the log into a ``key -> record`` dict, so a lookup is a
dict probe.  For a key the last valid line wins: a corrupt line reads as
a miss and the fresh ``put`` repairs it.  The index is a tooling aid, not
a lookup dependency.

Because :data:`~repro.jobs.units.CODE_SALT` participates in the key
and stamps every line, an edit to any salted source file makes old
entries unreachable rather than wrong; ``gc`` rewrites the log without them and
deletes the one-blob-per-record ``objects/`` tree of older caches.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.jobs.ledger import append_line, scan_lines
from repro.jobs.units import CODE_SALT

#: default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"


@dataclass
class CacheStats:
    """Aggregate cache state plus this session's traffic."""

    entries: int = 0  #: distinct keys with a fresh record
    bytes: int = 0
    stale: int = 0  #: log lines ``gc`` would drop, plus legacy blobs
    hits: int = 0
    misses: int = 0
    puts: int = 0
    by_figure: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "stale": self.stale,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "by_figure": dict(sorted(self.by_figure.items())),
        }


class ResultCache:
    """get/put/stats/gc over one record log.

    Session hit/miss/put counts live on the instance; one instance is
    shared across every figure of a run so ``repro suite`` reports one
    coherent traffic summary.  An instance reads the log once, so it
    misses lines other processes append later (at worst a unit
    simulates twice).
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.log_path = self.root / "records.jsonl"
        self.index_path = self.root / "index.json"
        #: the pre-log layout: one blob per record, read by nothing.
        self.legacy_dir = self.root / "objects"
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._records: dict[str, dict] | None = None

    # ---- core API --------------------------------------------------------
    def _loaded(self) -> dict[str, dict]:
        if self._records is None:
            latest, _dropped = scan_lines(self.log_path)
            self._records = {k: line["record"] for k, line in latest.items()}
        return self._records

    def get(self, key: str) -> dict | None:
        """The cached record for ``key``, or ``None`` (counted as a miss)."""
        record = self._loaded().get(key)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: dict, figure: str | None = None) -> None:
        """Append ``record`` under ``key`` as one log line."""
        records = self._loaded()
        append_line(
            self.log_path,
            {
                "version": CODE_SALT,
                "key": key,
                "figure": figure,
                "created": time.time(),
                "record": record,
            },
        )
        records[key] = record
        self.puts += 1

    # ---- maintenance -----------------------------------------------------
    def stats(self) -> CacheStats:
        """Scan the log and fold in this session's traffic counters."""
        latest, dropped = scan_lines(self.log_path)
        stats = CacheStats(
            entries=len(latest),
            bytes=self.log_path.stat().st_size if latest or dropped else 0,
            stale=dropped + len(list(self.legacy_dir.glob("*/*.json"))),
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
        )
        for line in latest.values():
            figure = line.get("figure") or "?"
            stats.by_figure[figure] = stats.by_figure.get(figure, 0) + 1
        return stats

    def write_index(self) -> Path:
        """Snapshot entry metadata to ``index.json`` (human/tooling aid)."""
        entries = {
            key: {k: line.get(k) for k in ("version", "figure", "created")}
            for key, line in scan_lines(self.log_path)[0].items()
        }
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path.write_text(
            json.dumps(
                {"salt": CODE_SALT, "entries": entries}, sort_keys=True
            )
        )
        return self.index_path

    def _reap_legacy(self) -> int:
        """Delete the legacy blob tree; returns how many blobs it held."""
        count = len(list(self.legacy_dir.glob("*/*.json")))
        shutil.rmtree(self.legacy_dir, ignore_errors=True)
        return count

    def gc(self) -> int:
        """Keep the last fresh line per key and reap the legacy tree;
        returns the lines and blobs dropped.  Lines a run appends while
        the log is rewritten are lost, so run it between runs."""
        latest, dropped = scan_lines(self.log_path)
        if dropped:
            tmp = self.root / "records.jsonl.tmp"
            tmp.write_text("".join(json.dumps(x) + "\n" for x in latest.values()))
            os.replace(tmp, self.log_path)
        self._records = None
        removed = dropped + self._reap_legacy()
        if self.index_path.exists():
            self.write_index()
        return removed

    def clear(self) -> int:
        """Delete every entry (and the index); returns the removed count."""
        latest, dropped = scan_lines(self.log_path)
        self.log_path.unlink(missing_ok=True)
        self.index_path.unlink(missing_ok=True)
        self._records = None
        return len(latest) + dropped + self._reap_legacy()
