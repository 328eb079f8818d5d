"""Append-only JSONL logs: the record log and the program store.

Every line is one entry, stamped with the code salt
(:data:`~repro.jobs.units.CODE_SALT`)::

    {"version": "<salt>", "key": "<key>", "figure": ..., "created": ..., "record": {...}}

:class:`RunLedger` reads and appends the record log
(``<root>/records.jsonl``, the result cache's store); the
compiled-program log (``<root>/programs.jsonl``,
:class:`repro.compiler.cache.ProgramStore`) shares the writer and, for
maintenance, the reader, with a ``program`` body instead of a
``record``.  :func:`append_line` writes one whole line per call and
holds no descriptor after it; :func:`scan_lines` skips a torn tail (the
expected artifact of a kill), a corrupt line or one under another salt,
and for a key the last valid line wins.

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
from pathlib import Path

from repro.jobs.units import CODE_SALT, record_point

_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT


def append_line(path: Path, line: dict) -> None:
    """Append ``line`` to the log at ``path`` with one ``O_APPEND`` write.

    A log that does not end in a newline has a torn tail (a writer was
    killed mid-line); the write then starts with a newline, so the
    fragment stays a line of its own and this line reads whole.  The
    check and the write hold an exclusive ``flock`` on the log, so a
    line another process is still writing is never taken for a torn
    one.
    """
    data = (json.dumps(line) + "\n").encode()
    try:
        fd = os.open(path, _APPEND, 0o666)
    except FileNotFoundError:
        # No directory (yet, or since a cache clear): make it, retry once.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _APPEND, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to {path}: {written} of {len(data)} bytes")


def scan_lines(path: Path, body: str = "record") -> tuple[dict[str, dict], int]:
    """The last valid line per key, and how many other lines there are.

    A valid line is a JSON object under the current salt with a string
    ``key`` and an object under ``body``.
    """
    try:
        lines = path.read_bytes().splitlines()
    except OSError:
        return {}, 0
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
            and isinstance(line.get(body), dict)
        ):
            latest[line["key"]] = line
    return latest, len(lines) - len(latest)


def compact(path: Path, body: str = "record") -> int:
    """Rewrite the log keeping the last valid line per key; returns how
    many lines were dropped.  Lines appended during the rewrite are
    lost, so run it between runs."""
    latest, dropped = scan_lines(path, body)
    if dropped:
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text("".join(json.dumps(x) + "\n" for x in latest.values()))
        os.replace(tmp, path)
    return dropped


def reap_tree(directory: Path) -> int:
    """Delete a legacy one-blob-per-key tree (``<dir>/ab/<key>.json``);
    returns how many blobs it held."""
    count = count_blobs(directory)
    shutil.rmtree(directory, ignore_errors=True)
    return count


def count_blobs(directory: Path) -> int:
    """How many blobs a legacy one-blob-per-key tree holds."""
    return sum(1 for _ in directory.glob("*/*.json"))


class RunLedger:
    """Reader and appender of one record log."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """The logged ``key -> record`` entries, each normalized by
        ``record_point``; a record it rejects reads as absent."""
        records: dict[str, dict] = {}
        for key, line in scan_lines(self.path)[0].items():
            try:
                records[key] = record_point(line["record"])
            except (KeyError, TypeError, ValueError):
                continue
        return records

    def append(self, key: str, record: dict, figure: str | None) -> None:
        """Log one unit's record; the line is in the file on return."""
        append_line(
            self.path,
            {
                "version": CODE_SALT,
                "key": key,
                "figure": figure,
                "created": time.time(),
                "record": record,
            },
        )
