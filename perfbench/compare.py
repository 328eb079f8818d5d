"""Summarise and compare run files written by ``run.py --out``.

One file: per workload and metric, the median, the quartiles and the
spread (quartile distance over median); a spread above a third of the
metric's bound is marked ``unsteady``.

Two files (before, after): the same for each side, the delta of the
medians, ``WORSE`` when the after median is worse than the before median
by more than the bound, and ``unresolved`` when either side's spread is
wider than the bound (unless every after run beats every before run).
Bounds and directions come from ``BENCHMARK.json``; per-layer metrics
have no bound and are only summarised.  ``error_frac`` (failed over
attempted, per run) is ``WORSE`` as soon as any after run fails more
operations than every before run: one wrong point is a regression.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from workloads import ROOT


def load_runs(path: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, one value per run."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        group = runs[(run["workload"], run["trace"])]
        for name, metric in run["result"]["metrics"].items():
            group[name].append(metric["value"])
        group["error_frac"].append(
            run["result"]["failed"] / run["result"]["attempted"]
        )
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def bounds() -> dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def verdict(name: str, before: list[float], after: list[float],
            spec: dict | None) -> str:
    if name == "error_frac":
        return "WORSE" if max(after) > max(before) else "ok"
    if spec is None:
        return ""
    lower = spec["better"] == "lower"
    mb, ma = quartiles(before)[1], quartiles(after)[1]
    worse = (ma - mb) / abs(mb) if mb else 0.0
    if not lower:
        worse = -worse
    if worse > spec["bound"]:
        return "WORSE"
    wins = all((a < b) if lower else (a > b) for a in after for b in before)
    if max(spread(before), spread(after)) > spec["bound"] and not wins:
        return "unresolved"
    return "ok"


def main(paths: list[Path]) -> int:
    sides = [load_runs(path) for path in paths]
    specs = bounds()
    worse = 0
    for key in sorted(set().union(*sides)):
        workload, traced = key
        print(f"{workload} (trace={traced})")
        names = sorted(set().union(*(side[key].keys() for side in sides)))
        for name in names:
            cells = []
            series = [side[key].get(name) for side in sides]
            for values in series:
                if not values:
                    cells.append(f"{'-':>40}")
                    continue
                q1, median, q3 = quartiles(values)
                cells.append(
                    f"{median:>12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"
                )
            spec = specs.get(name) if not traced else None
            note = ""
            if len(sides) == 1 and spec and series[0]:
                if spread(series[0]) > spec["bound"] / 3:
                    note = f"unsteady (spread {spread(series[0]):.3f})"
                else:
                    note = f"spread {spread(series[0]):.3f}"
            elif len(sides) == 2 and all(series):
                mb, ma = quartiles(series[0])[1], quartiles(series[1])[1]
                delta = (ma - mb) / abs(mb) if mb else 0.0
                note = f"{delta:+.1%} {verdict(name, series[0], series[1], spec)}"
                worse += note.endswith("WORSE")
            print(f"  {name:<28} " + "  ".join(cells) + f"  {note}")
    return 1 if worse else 0
