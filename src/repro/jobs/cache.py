"""On-disk result cache: one append-only record log plus an index.

Layout (default root ``results/cache/``)::

    results/cache/
      records.jsonl  # the record log: one line per unit record
      index.json     # entry metadata, rewritten from the log

The log is read and appended through one
:class:`~repro.jobs.ledger.RunLedger`: a ``put`` appends one line, and
the first ``get`` or ``put`` reads the log into a ``key -> record`` dict
of validated records, so a lookup is a dict probe.  For a key the last
valid line wins: a corrupt line or record reads as a miss and the fresh
``put`` repairs it.  The index is a tooling aid, not a lookup
dependency.

Because :data:`~repro.jobs.units.CODE_SALT` participates in the key
and stamps every line, an edit to any salted source file makes old
entries unreachable rather than wrong; ``gc`` rewrites the log without them and
deletes what older caches left: the one-blob-per-record ``objects/``
tree and the run ledger ``ledger.jsonl``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.jobs.ledger import (
    RunLedger,
    compact,
    count_blobs,
    reap_tree,
    scan_lines,
)
from repro.jobs.units import CODE_SALT

#: default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"


@dataclass
class CacheStats:
    """Aggregate cache state plus this session's traffic."""

    entries: int = 0  #: distinct keys with a fresh record
    bytes: int = 0
    stale: int = 0  #: log lines ``gc`` would drop, plus legacy entries
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
        self.log = RunLedger(self.root / "records.jsonl")
        self.log_path = self.log.path
        self.index_path = self.root / "index.json"
        #: what older versions left, read by nothing: one blob per
        #: record, and the run ledger (a second log of finished units).
        self.legacy_dir = self.root / "objects"
        self.legacy_ledger = self.root / "ledger.jsonl"
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._records: dict[str, dict] | None = None

    # ---- core API --------------------------------------------------------
    def _loaded(self) -> dict[str, dict]:
        if self._records is None:
            self._records = self.log.load()
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
        self.log.append(key, record, figure)
        records[key] = record
        self.puts += 1

    # ---- maintenance -----------------------------------------------------
    def stats(self) -> CacheStats:
        """Scan the log and fold in this session's traffic counters."""
        latest, dropped = scan_lines(self.log_path)
        stats = CacheStats(
            entries=len(latest),
            bytes=self.log_path.stat().st_size if latest or dropped else 0,
            stale=dropped + self._legacy(reap=False),
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

    def gc(self) -> int:
        """Keep the last fresh line per key and reap the legacy entries;
        returns how many were dropped.  Lines a run appends while the
        log is rewritten are lost, so run it between runs."""
        removed = compact(self.log_path) + self._legacy(reap=True)
        self._records = None
        if self.index_path.exists():
            self.write_index()
        return removed

    def clear(self) -> int:
        """Delete every entry (and the index); returns the removed count."""
        latest, dropped = scan_lines(self.log_path)
        self.log_path.unlink(missing_ok=True)
        self.index_path.unlink(missing_ok=True)
        self._records = None
        return len(latest) + dropped + self._legacy(reap=True)

    def _legacy(self, reap: bool) -> int:
        """The blobs and ledger lines older versions left; ``reap``
        deletes them."""
        latest, dropped = scan_lines(self.legacy_ledger)
        if reap:
            self.legacy_ledger.unlink(missing_ok=True)
            return reap_tree(self.legacy_dir) + len(latest) + dropped
        return count_blobs(self.legacy_dir) + len(latest) + dropped
