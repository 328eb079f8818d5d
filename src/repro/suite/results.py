"""Result containers: series of (x, seconds) points with provenance.

A :class:`ResultSet` corresponds to one paper figure: several labeled
series over a common x axis.  Sets serialize losslessly to JSON, export to
CSV, and render as fixed-width tables for terminal inspection.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Iterator


@dataclass(frozen=True)
class SeriesPoint:
    """One measurement."""

    x: float
    seconds: float
    #: compiled GPR count of the kernel at this point (register benchmark).
    gprs: int | None = None
    #: resident wavefronts per SIMD at this point.
    resident_wavefronts: int | None = None
    #: the simulator's bottleneck classification.
    bound: str | None = None


@dataclass
class Series:
    """One labeled curve, e.g. ``"4870 Pixel Float4"``."""

    label: str
    points: list[SeriesPoint] = field(default_factory=list)

    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    def ys(self) -> list[float]:
        return [p.seconds for p in self.points]

    def add(self, point: SeriesPoint) -> None:
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[SeriesPoint]:
        return iter(self.points)


@dataclass
class ResultSet:
    """All series of one experiment (one paper figure)."""

    name: str  #: experiment id, e.g. ``"fig7"``
    title: str
    x_label: str
    y_label: str = "Time in seconds"
    series: list[Series] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    #: path of the telemetry manifest recorded alongside this run, if any
    #: (see docs/telemetry.md).  Optional: older JSON files lack the key
    #: and serialization omits it when unset, so golden fixtures are
    #: byte-stable.
    manifest: str | None = None

    def add_series(self, series: Series) -> None:
        self.series.append(series)

    def get(self, label: str) -> Series:
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(
            f"{self.name}: no series {label!r}; have "
            f"{[s.label for s in self.series]}"
        )

    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    # ---- serialization ---------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "title": self.title,
                "x_label": self.x_label,
                "y_label": self.y_label,
                "metadata": self.metadata,
                **({"manifest": self.manifest} if self.manifest else {}),
                "series": [
                    {
                        "label": s.label,
                        "points": [asdict(p) for p in s.points],
                    }
                    for s in self.series
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        raw = json.loads(text)
        result = cls(
            name=raw["name"],
            title=raw["title"],
            x_label=raw["x_label"],
            y_label=raw.get("y_label", "Time in seconds"),
            metadata=raw.get("metadata", {}),
            manifest=raw.get("manifest"),
        )
        for s in raw["series"]:
            series = Series(label=s["label"])
            for p in s["points"]:
                series.add(SeriesPoint(**p))
            result.add_series(series)
        return result

    def save(self, path: str | Path) -> None:
        """Write the JSON to ``path``.

        A manifest inside the file's directory is recorded relative to
        it, so saved figures hold no host path; any other manifest path
        is written as given.
        """
        path = Path(path)
        saved = self
        if self.manifest:
            directory = path.parent.resolve()
            manifest = Path(self.manifest).resolve()
            if manifest.is_relative_to(directory):
                saved = replace(
                    self, manifest=str(manifest.relative_to(directory))
                )
        path.write_text(saved.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ResultSet":
        return cls.from_json(Path(path).read_text())

    def to_csv(self) -> str:
        """Wide CSV: x column plus one seconds column per series."""
        lines = [",".join([self.x_label] + [s.label for s in self.series])]
        xs = sorted({x for s in self.series for x in s.xs()})
        lookup = [
            {p.x: p.seconds for p in s.points} for s in self.series
        ]
        for x in xs:
            cells = [f"{x:g}"]
            for table in lookup:
                value = table.get(x)
                cells.append(f"{value:.6f}" if value is not None else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    # ---- rendering ---------------------------------------------------------
    def format_table(self, max_width: int = 14) -> str:
        """Fixed-width table of all series (the figure's data, as text)."""
        headers = [self.x_label] + [s.label for s in self.series]
        xs = sorted({x for s in self.series for x in s.xs()})
        lookup = [
            {p.x: p.seconds for p in s.points} for s in self.series
        ]
        rows: list[list[str]] = []
        for x in xs:
            row = [f"{x:g}"]
            for table in lookup:
                value = table.get(x)
                row.append(f"{value:.3f}" if value is not None else "-")
            rows.append(row)

        widths = [
            min(max_width, max(len(headers[i]), *(len(r[i]) for r in rows)))
            if rows
            else len(headers[i])
            for i in range(len(headers))
        ]

        def fmt(cells: list[str]) -> str:
            return "  ".join(
                c[: widths[i]].rjust(widths[i]) for i, c in enumerate(cells)
            )

        lines = [self.title, fmt(headers), fmt(["-" * w for w in widths])]
        lines.extend(fmt(r) for r in rows)
        return "\n".join(lines)
