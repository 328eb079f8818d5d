"""JSONL run manifests: spans + metrics + provenance, one record per line.

A manifest is the regression-comparable artifact of one ``repro figure`` /
``repro suite`` / ``repro time`` invocation.  Line 1 is the ``run``
record (schema version, wall-clock, argv, git SHA, simulator-config
hash); every following line is a ``span`` or ``metric`` record.  Two runs
of the same code on the same config produce manifests whose run records
share ``config_hash`` and ``git_sha`` — diffing the rest shows exactly
which stage moved (see docs/telemetry.md).

Everything here is stdlib-only and dependency-free; ``config_hash``
accepts *any* dataclass so the module never imports the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import time
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer

#: bump when record shapes change incompatibly.
SCHEMA_VERSION = 1


def config_hash(config) -> str | None:
    """Stable short hash of a dataclass config (``None`` for no config).

    Only scalar fields that participate in equality are hashed: fields
    declared ``compare=False`` are excluded, so the hash keys the *model
    parameters*, not any session wiring a config might carry.
    """
    if config is None:
        return None
    if not dataclasses.is_dataclass(config):
        raise TypeError(f"config_hash wants a dataclass, got {type(config)}")
    scalars = {}
    for f in dataclasses.fields(config):
        if not f.compare:
            continue
        value = getattr(config, f.name)
        if isinstance(value, (bool, int, float, str, type(None))):
            scalars[f.name] = value
    digest = hashlib.sha256(
        json.dumps(scalars, sort_keys=True).encode()
    ).hexdigest()
    return digest[:12]


def git_sha(root: str | Path | None = None) -> str | None:
    """Current commit SHA, or ``None`` outside a repository.

    Reads ``.git/HEAD`` directly (resolving one level of ref indirection
    and packed refs) to avoid a subprocess on every manifest; falls back
    to ``git rev-parse`` for worktrees and other exotic layouts.
    """
    start = Path(root) if root is not None else Path(__file__).resolve()
    for parent in [start] + list(start.parents):
        git_dir = parent / ".git"
        if not git_dir.exists():
            continue
        try:
            if git_dir.is_file():  # worktree: ".git" is a pointer file
                break
            head = (git_dir / "HEAD").read_text().strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.split(None, 1)[1]
            ref_file = git_dir / ref
            if ref_file.exists():
                return ref_file.read_text().strip() or None
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
            return None
        except OSError:
            return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=start if start.is_dir() else start.parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return out.stdout.strip() or None if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_record(
    tracer: Tracer | None = None,
    argv: list[str] | None = None,
    config=None,
    extra: dict | None = None,
) -> dict:
    """The manifest's header line."""
    record = {
        "type": "run",
        "schema": SCHEMA_VERSION,
        "created": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z",
            time.localtime(tracer.started_at if tracer else time.time()),
        ),
        "argv": list(argv) if argv is not None else None,
        "git_sha": git_sha(),
        "config_hash": config_hash(config),
    }
    if extra:
        record.update(extra)
    return record


def manifest_records(
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    argv: list[str] | None = None,
    config=None,
    extra: dict | None = None,
) -> list[dict]:
    """Everything :func:`write_manifest` would write, as dicts."""
    records = [run_record(tracer, argv=argv, config=config, extra=extra)]
    if tracer is not None:
        records.extend(tracer.records())
    if registry is not None:
        records.extend(registry.records())
    return records


def write_manifest(
    path: str | Path,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    argv: list[str] | None = None,
    config=None,
    extra: dict | None = None,
) -> Path:
    """Serialize a run to JSONL at ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = manifest_records(
        tracer, registry, argv=argv, config=config, extra=extra
    )
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_manifest(path: str | Path) -> list[dict]:
    """Parse a JSONL manifest back into records (validating the header)."""
    lines = Path(path).read_text().splitlines()
    records = [json.loads(line) for line in lines if line.strip()]
    if not records or records[0].get("type") != "run":
        raise ValueError(
            f"{path}: not a telemetry manifest (missing 'run' header record)"
        )
    schema = records[0].get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: manifest schema {schema!r} != supported {SCHEMA_VERSION}"
        )
    return records
