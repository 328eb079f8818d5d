"""Append-only JSONL record logs: the run ledger and the result cache.

Every line is one completed unit, stamped with the code salt
(:data:`~repro.jobs.units.CODE_SALT`)::

    {"version": "<salt>", "key": "<unit key>", "record": {"seconds": ..., "gprs": ...}}

The run ledger (``<root>/ledger.jsonl``) and the result cache's log
(``<root>/records.jsonl``, whose lines add ``figure`` and ``created``)
share this module's writer and reader.  :func:`append_line` writes one
whole line per call and holds no descriptor after it; :func:`scan_lines`
skips a torn tail (the expected artifact of a kill), a corrupt line or
one under another salt, and for a key the last valid line wins.

The scheduler appends a ledger line the moment a unit finishes, so
killing a run loses at most the units in flight.  A rerun with
``resume=True`` preloads the completed records and only simulates the
remainder; :meth:`RunLedger.discard` removes the file once the whole run
lands, so the next invocation starts fresh.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.jobs.units import CODE_SALT, record_point

_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def append_line(path: Path, line: dict) -> None:
    """Append ``line`` to the log at ``path`` with one ``O_APPEND`` write."""
    data = (json.dumps(line) + "\n").encode()
    try:
        fd = os.open(path, _APPEND, 0o666)
    except FileNotFoundError:
        # No directory (yet, or since a cache clear): make it, retry once.
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, _APPEND, 0o666)
    try:
        written = os.write(fd, data)
    finally:
        os.close(fd)
    if written != len(data):
        raise OSError(f"short write to {path}: {written} of {len(data)} bytes")


def scan_lines(path: Path) -> tuple[dict[str, dict], int]:
    """The last valid line per key, and how many other lines there are.

    A valid line is a JSON object under the current salt with a string
    ``key`` and an object ``record``.
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
            and isinstance(line.get("record"), dict)
        ):
            latest[line["key"]] = line
    return latest, len(lines) - len(latest)


class RunLedger:
    """Append-only completion log for one logical run."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def load(self) -> dict[str, dict]:
        """Completed ``key -> record`` entries from a previous attempt."""
        completed: dict[str, dict] = {}
        for key, line in scan_lines(self.path)[0].items():
            try:
                completed[key] = record_point(line["record"])
            except (KeyError, TypeError, ValueError):
                continue
        return completed

    def append(self, key: str, record: dict) -> None:
        """Record one completed unit; the line is in the file on return."""
        append_line(
            self.path, {"version": CODE_SALT, "key": key, "record": record}
        )

    def discard(self) -> None:
        """Delete the ledger — the run completed, nothing left to resume."""
        try:
            self.path.unlink()
        except OSError:
            pass
