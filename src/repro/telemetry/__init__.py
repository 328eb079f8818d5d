"""Cross-layer telemetry: spans, metrics, and JSONL run manifests.

The observability layer for the whole pipeline (IL emit -> compile -> ISA
-> simulate -> suite -> figures).  Three pieces:

* **Spans** (:mod:`repro.telemetry.spans`) — nested timed regions with
  structured attributes; instrumented throughout ``compiler``, ``isa``,
  ``sim``, ``cal`` and ``suite``.
* **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  percentile histograms aggregated across a run: bottleneck counts,
  makespan distributions, cache hit rates, resident-wavefront spreads.
* **Manifests** (:mod:`repro.telemetry.manifest`) — one JSONL file per
  run with provenance (argv, git SHA, simulator-config hash), every span
  and every metric; ``repro stats`` summarizes one, docs/telemetry.md
  shows how to diff two.

Collection is **off by default** and free when off: ``span()`` returns a
shared no-op and every metrics call site is guarded by ``enabled()``
(overhead budget <2%, enforced by
``benchmarks/bench_telemetry_overhead.py``).  Turn it on around a region
with :func:`recording`::

    from repro import telemetry

    with telemetry.recording("run.jsonl", argv=sys.argv[1:]) as tracer:
        run_suite(figures=["fig7"])

or imperatively with :func:`enable` / :func:`disable`.

The package is stdlib-only and imports nothing from the rest of the
repository, so every layer can import it unconditionally.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from repro.telemetry.manifest import (
    SCHEMA_VERSION,
    config_hash,
    git_sha,
    manifest_records,
    read_manifest,
    write_manifest,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.telemetry.spans import (
    Span,
    Tracer,
    disable,
    enable,
    enabled,
    get_tracer,
    span,
)
from repro.telemetry.stats import (
    aggregate_spans,
    profile_report,
    stage_table,
    summarize_manifest,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "Span",
    "Tracer",
    "aggregate_spans",
    "config_hash",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "git_sha",
    "manifest_records",
    "metrics",
    "profile_report",
    "read_manifest",
    "recording",
    "reset_registry",
    "span",
    "stage_table",
    "summarize_manifest",
    "write_manifest",
]


def metrics() -> MetricsRegistry:
    """The active metrics registry (alias for :func:`get_registry`)."""
    return get_registry()


@contextmanager
def recording(
    path: str | Path | None = None,
    argv: list[str] | None = None,
    config=None,
    extra: dict | None = None,
):
    """Enable collection for a region; optionally write a manifest on exit.

    Yields the fresh :class:`Tracer` (or ``None`` when ``path`` is absent
    *and* recording was explicitly suppressed — never here: recording is
    always enabled inside the block).  On exit the previous enabled state
    is restored, so nested recordings and library callers compose.

    ``path=None`` records in memory only — ``repro profile`` renders the
    tracer directly without touching disk.
    """
    was_enabled = enabled()
    tracer = enable(fresh=True)
    registry = reset_registry()
    try:
        yield tracer
    finally:
        # Close anything a mid-flight exception left open so the manifest
        # is well-formed.
        for open_span in reversed(tracer.open_spans):
            tracer.finish(open_span)
        if not was_enabled:
            disable()
        if path is not None:
            write_manifest(
                path,
                tracer,
                registry,
                argv=argv,
                config=config,
                extra=extra,
            )
