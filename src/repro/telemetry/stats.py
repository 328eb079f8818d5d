"""Manifest summarization and per-stage profiles (``repro stats/profile``).

Turns raw manifest records back into the tables a human reads:

* :func:`summarize_manifest` — run provenance, per-stage span aggregates,
  counters, histogram digests (``repro stats out.jsonl``).
* :func:`profile_report` — per-stage wall-time attribution (self time,
  share of the run) plus the top-N hottest individual spans
  (``repro profile``).

Rendering is self-contained (no :mod:`repro.reporting` import) so the
telemetry package stays at the bottom of the dependency graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _table(headers: tuple[str, ...], rows: list[tuple]) -> str:
    """Minimal fixed-width table (right-aligns numeric-looking cells)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]

    def numeric(text: str) -> bool:
        return bool(text) and text.lstrip("-+").replace(".", "", 1).replace(
            "%", "", 1
        ).isdigit()

    def fmt(row: list[str]) -> str:
        return "  ".join(
            c.rjust(widths[i]) if numeric(c) else c.ljust(widths[i])
            for i, c in enumerate(row)
        ).rstrip()

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in cells)
    return "\n".join(lines)


def _seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}us"


# ---- span aggregation --------------------------------------------------------

@dataclass
class StageStats:
    """Aggregate over every span sharing one name (one pipeline stage)."""

    name: str
    durations: list[float] = field(default_factory=list)
    self_time: float = 0.0

    @property
    def count(self) -> int:
        return len(self.durations)

    @property
    def total(self) -> float:
        return sum(self.durations)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def p95(self) -> float:
        if not self.durations:
            return math.nan
        ordered = sorted(self.durations)
        rank = (len(ordered) - 1) * 0.95
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)

    @property
    def max(self) -> float:
        return max(self.durations) if self.durations else math.nan


def aggregate_spans(span_records: list[dict]) -> list[StageStats]:
    """Fold span records into per-stage stats, largest self-time first.

    Self time is a span's duration minus its direct children's — the part
    of a stage not explained by deeper instrumented stages, which is what
    actually needs optimizing.
    """
    children_total: dict[int, float] = {}
    for record in span_records:
        parent = record.get("parent")
        if parent is not None:
            children_total[parent] = (
                children_total.get(parent, 0.0) + record["duration"]
            )

    stages: dict[str, StageStats] = {}
    for record in span_records:
        stage = stages.setdefault(record["name"], StageStats(record["name"]))
        stage.durations.append(record["duration"])
        stage.self_time += max(
            0.0, record["duration"] - children_total.get(record["id"], 0.0)
        )
    return sorted(stages.values(), key=lambda s: s.self_time, reverse=True)


def _wall_time(span_records: list[dict]) -> float:
    """Total instrumented wall-time: the sum of root spans."""
    roots = [r["duration"] for r in span_records if r.get("parent") is None]
    return sum(roots)


def stage_table(span_records: list[dict]) -> str:
    """The per-stage attribution table shared by stats and profile."""
    stages = aggregate_spans(span_records)
    wall = _wall_time(span_records) or math.nan
    rows = [
        (
            s.name,
            s.count,
            _seconds(s.total),
            _seconds(s.self_time),
            f"{s.self_time / wall:.1%}" if wall == wall else "-",
            _seconds(s.mean),
            _seconds(s.p95),
            _seconds(s.max),
        )
        for s in stages
    ]
    return _table(
        ("stage", "count", "total", "self", "self%", "mean", "p95", "max"),
        rows,
    )


def hottest_spans_table(span_records: list[dict], top: int = 10) -> str:
    """The ``top`` individual spans by duration, with their attributes."""
    ordered = sorted(
        span_records, key=lambda r: r["duration"], reverse=True
    )[:top]
    rows = []
    for record in ordered:
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(record.get("attrs", {}).items())
        )
        rows.append(
            (
                record["name"],
                _seconds(record["duration"]),
                f"{record['start']:.3f}",
                record["depth"],
                attrs or "-",
            )
        )
    return _table(("span", "duration", "start", "depth", "attrs"), rows)


# ---- metric rendering --------------------------------------------------------

#: the content-addressed caches whose hit/miss counters roll up into the
#: "Cache traffic" section (docs/compile-cache.md, docs/jobs.md).
_CACHE_FAMILIES = (
    ("result cache", "jobs.cache"),
    ("compile cache", "compile.cache"),
)


def cache_traffic_table(metric_records: list[dict]) -> str | None:
    """Hit/miss totals and hit rates for the content-addressed caches.

    Sums each family's counters across label sets (``jobs.cache.hit``
    arrives per-figure, ``compile.cache.hit`` per-layer); returns
    ``None`` when no cache saw traffic.
    """
    rows = []
    for label, prefix in _CACHE_FAMILIES:
        hits = misses = 0.0
        for record in metric_records:
            if record["kind"] != "counter":
                continue
            base = record["name"].split("{", 1)[0]
            if base == f"{prefix}.hit":
                hits += record["value"]
            elif base == f"{prefix}.miss":
                misses += record["value"]
        total = hits + misses
        if not total:
            continue
        rows.append(
            (label, f"{hits:g}", f"{misses:g}", f"{hits / total:.1%}")
        )
    if not rows:
        return None
    return _table(("cache", "hits", "misses", "hit rate"), rows)


def _metric_tables(metric_records: list[dict]) -> list[str]:
    sections: list[str] = []
    counters = [r for r in metric_records if r["kind"] == "counter"]
    gauges = [r for r in metric_records if r["kind"] == "gauge"]
    histograms = [r for r in metric_records if r["kind"] == "histogram"]
    if counters or gauges:
        rows = [(r["name"], f"{r['value']:g}") for r in counters] + [
            (r["name"], "-" if r["value"] is None else f"{r['value']:g}")
            for r in gauges
        ]
        sections.append("Counters and gauges:\n" + _table(("metric", "value"), rows))
    if histograms:
        rows = [
            (
                r["name"],
                r.get("count", 0),
                *(
                    f"{r[k]:g}" if k in r else "-"
                    for k in ("min", "mean", "p50", "p90", "p99", "max")
                ),
            )
            for r in histograms
        ]
        sections.append(
            "Histograms:\n"
            + _table(
                ("metric", "count", "min", "mean", "p50", "p90", "p99", "max"),
                rows,
            )
        )
    return sections


# ---- entry points ------------------------------------------------------------

def summarize_manifest(records: list[dict], top: int = 10) -> str:
    """Render a parsed manifest as the ``repro stats`` report."""
    run = records[0]
    spans = [r for r in records if r.get("type") == "span"]
    metrics = [r for r in records if r.get("type") == "metric"]

    header = [
        f"run: {run.get('created', '?')}  schema={run.get('schema')}",
        f"argv: {' '.join(run['argv']) if run.get('argv') else '-'}",
        f"git_sha: {run.get('git_sha') or '-'}  "
        f"config_hash: {run.get('config_hash') or '-'}",
        f"spans: {len(spans)}  metrics: {len(metrics)}  "
        f"instrumented wall-time: {_seconds(_wall_time(spans)) if spans else '-'}",
    ]
    sections = ["\n".join(header)]
    if spans:
        sections.append("Per-stage attribution:\n" + stage_table(spans))
        sections.append(
            f"Top {min(top, len(spans))} hottest spans:\n"
            + hottest_spans_table(spans, top=top)
        )
    traffic = cache_traffic_table(metrics)
    if traffic is not None:
        sections.append("Cache traffic:\n" + traffic)
    sections.extend(_metric_tables(metrics))
    return "\n\n".join(sections)


def profile_report(
    tracer, registry=None, top: int = 10
) -> str:
    """Render a live tracer/registry as the ``repro profile`` report."""
    spans = [s.to_record() for s in tracer.finished()]
    if not spans:
        return "no spans recorded (nothing instrumented ran)"
    sections = [
        "Per-stage attribution:\n" + stage_table(spans),
        f"Top {min(top, len(spans))} hottest spans:\n"
        + hottest_spans_table(spans, top=top),
    ]
    if registry is not None and len(registry):
        sections.extend(_metric_tables(registry.records()))
    return "\n\n".join(sections)
