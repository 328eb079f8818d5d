"""Append-only keyed JSONL logs: the record log and the program log.

Every line is one entry, stamped with the code salt
(:data:`~repro.jobs.units.CODE_SALT`)::

    {"version": "<salt>", "key": "<key>", "figure": ..., "created": ..., "<body>": {...}}

:class:`RunLedger` is the one reader, writer and maintainer of such a
log.  The result cache keeps its records in ``<root>/records.jsonl``
under a ``record`` body; the compiled-program store
(:class:`repro.compiler.cache.ProgramStore`) keeps its programs in
``<root>/programs.jsonl`` under a ``program`` body.

A lookup indexes the log by the salt and key that lead each line,
without decoding the body, and reads only the line it needs; a miss
indexes the complete lines appended since the last one, so a reader
finds what other processes append after its first lookup.  For a key
the last line under the current salt wins.  A torn tail (the expected
artifact of a kill), a corrupt line or one under another salt reads as
a miss, and the next write for that key repairs it.

The scheduler appends a record line the moment a unit finishes, so
killing a run loses at most the units in flight.  Rerunning it on the
same cache root replays every finished unit as a cache hit and only
simulates the remainder.
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import time
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

from repro.jobs.units import CODE_SALT

T = TypeVar("T")

_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT

#: what older layouts left beside each log, read by nothing: trees of
#: one blob per key (``<dir>/ab/<key>.json``) and the run ledger (a
#: second log of finished units).
LEGACY = {"record": ("objects", "ledger.jsonl"), "program": ("programs",)}


class RunLedger:
    """Reader, appender and maintainer of one keyed log.

    ``body`` names the field that holds each line's value (``record``
    or ``program``) and selects the legacy paths that ``scan``, ``gc``
    and ``clear`` count and reap.
    """

    def __init__(self, path: str | Path, body: str) -> None:
        self.path = Path(path)
        self.body = body
        self.legacy = [self.path.parent / name for name in LEGACY[body]]
        #: the leading bytes of every line written under this salt.
        self._prefix = f'{{"version": {json.dumps(CODE_SALT)}, "key": "'.encode()
        self._index: dict[str, tuple[int, int]] = {}  #: key -> (offset, length)
        self._scanned = 0  #: bytes of the log indexed so far
        self._inode = -1  #: the indexed log file (``gc`` replaces it)

    def append(self, key: str, record: dict, figure: str | None) -> None:
        """Log ``record`` under ``key`` with one ``O_APPEND`` write; the
        line is in the file on return.

        A log that does not end in a newline has a torn tail (a writer
        was killed mid-line); the write then starts with a newline, so
        the fragment stays a line of its own and this line reads whole.
        The check and the write hold an exclusive ``flock`` on the log,
        so a line another process is still writing is never taken for a
        torn one.
        """
        line = {
            "version": CODE_SALT,
            "key": key,
            "figure": figure,
            "created": time.time(),
            self.body: record,
        }
        data = (json.dumps(line) + "\n").encode()
        try:
            fd = os.open(self.path, _APPEND, 0o666)
        except FileNotFoundError:
            # No directory (yet, or since a cache clear): make it, retry once.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, _APPEND, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data
            written = os.write(fd, data)
        finally:
            os.close(fd)
        if written != len(data):
            raise OSError(
                f"short write to {self.path}: {written} of {len(data)} bytes"
            )

    def get(self, key: str, decode: Callable[[dict], T]) -> T | None:
        """``decode`` of the body logged last under ``key``, or ``None``.

        A line that is not JSON, names another salt or key, or that
        ``decode`` rejects reads as a miss, and its index entry is
        dropped so the line that repairs it is found.
        """
        entry = self._index.get(key)
        if entry is None:
            self._index_tail()
            entry = self._index.get(key)
            if entry is None:
                return None
        offset, length = entry
        try:
            fd = os.open(self.path, os.O_RDONLY)
            try:
                line = json.loads(os.pread(fd, length, offset))
            finally:
                os.close(fd)
            if line["version"] == CODE_SALT and line["key"] == key:
                return decode(line[self.body])
        except (OSError, ValueError, KeyError, TypeError):
            pass  # JSON and decode errors are ValueErrors
        del self._index[key]
        return None

    def _index_tail(self) -> None:
        """Index the complete lines past the last one read; a log that
        has not changed since costs one ``stat``."""
        try:
            st = os.stat(self.path)
            if st.st_ino == self._inode and st.st_size == self._scanned:
                return
            with open(self.path, "rb") as fh:
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
    def scan(self) -> tuple[dict[str, dict], int, int]:
        """``(latest, bytes, stale)``: the last valid line per key, the
        log's size, and the lines ``gc`` would drop plus the legacy
        entries.  A valid line is a JSON object under the current salt
        with a string ``key`` and an object body."""
        latest, size, dropped = self._read()
        return latest, size, dropped + self._legacy(reap=False)

    def gc(self) -> int:
        """Keep the last valid line per key and reap the legacy paths;
        returns how many lines and legacy entries were dropped.  Lines
        appended during the rewrite are lost, so run it between runs."""
        latest, _, dropped = self._read()
        if dropped:
            tmp = self.path.with_name(self.path.name + ".tmp")
            tmp.write_text("".join(json.dumps(x) + "\n" for x in latest.values()))
            os.replace(tmp, self.path)
        self._forget()
        return dropped + self._legacy(reap=True)

    def clear(self) -> int:
        """Delete the log and the legacy paths; returns the removed count."""
        latest, _, dropped = self._read()
        self.path.unlink(missing_ok=True)
        self._forget()
        return len(latest) + dropped + self._legacy(reap=True)

    def _read(self) -> tuple[dict[str, dict], int, int]:
        """The last valid line per key, the log's size, and how many
        other lines it holds."""
        data = _read_bytes(self.path)
        lines = data.splitlines()
        latest: dict[str, dict] = {}
        for raw in lines:
            try:
                line = json.loads(raw)
            except ValueError:
                continue
            if (
                isinstance(line, dict)
                and line.get("version") == CODE_SALT
                and isinstance(line.get("key"), str)
                and isinstance(line.get(self.body), dict)
            ):
                latest[line["key"]] = line
        return latest, len(data), len(lines) - len(latest)

    def _legacy(self, reap: bool) -> int:
        """How many blobs and lines the legacy paths hold; ``reap``
        deletes them."""
        count = 0
        for path in self.legacy:
            if path.suffix == ".jsonl":
                count += len(_read_bytes(path).splitlines())
                if reap:
                    path.unlink(missing_ok=True)
            else:
                count += sum(1 for _ in path.glob("*/*.json"))
                if reap:
                    shutil.rmtree(path, ignore_errors=True)
        return count


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError:
        return b""
