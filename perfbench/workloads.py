"""The two workloads: their set-up, one timed pass, and its check.

Every pass runs in a fresh interpreter started by ``run.py`` (see
``child.py``), so process-global memos never carry over between passes.

* ``suite-cold``: every figure through ``run_suite`` on the serial path,
  with figure verification on.
* ``suite-pool``: the same sweep through ``JobEngine`` with two worker
  processes and an empty cache directory.

Both run the default sweep (``fast=True``, what ``repro suite`` runs
without ``--full``): all 13 figures on all 3 chips, 687 launch records.
The suite has no random input: both workloads run the figures in
``run_suite``'s order whatever the seed.  Every point must equal the
point with the same series label and x in ``results/figures/<id>.json``
(the full sweep, a superset), figure fields other than ``metadata.fast``
must match, and every paper claim must hold.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIGURES_DIR = ROOT / "results" / "figures"
#: runtime scratch (per-pass suite-pool caches); git-ignored.
WORK_DIR = HERE / ".work"

WORKLOADS = ("suite-cold", "suite-pool")
#: paper claims encoded in repro.reporting.experiments; all must hold.
CLAIMS = 28
#: the default sweep; the full one is too long for several passes a run.
FAST = True
#: worker processes for suite-pool, never more than the host has.
POOL_JOBS = min(2, os.cpu_count() or 1)

#: record field a pool worker ships its request latency back in.
LATENCY_KEY = "_perfbench_ms"

#: time of one ``reference()`` call on a host at reference speed.  It
#: scales every end-to-end time; changing it or ``reference()`` makes
#: runs before and after the change incomparable.
REFERENCE_S = 0.02


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str):
        self.key = key
        self.name = name


def reference() -> float:
    """Time fixed pure-Python work: a sample of the host's current speed.

    Objects, tuples, a dict and a sort, like the program's own work, so
    a slow host slows both alike (a bare integer loop slowed less).  The
    collector is off meanwhile, so the program's heap cannot slow it,
    and each round frees its objects, so it adds about 1 MB to the peak.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(4):
            table = {}
            for i in range(5_000):
                item = _Item(i, str(i))
                table[(i % 977, item.name)] = item
            ordered = sorted(table.values(), key=lambda item: (item.key * 7919) % 10007)
            del table, ordered
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def time_requests(latencies_ms: list[float]) -> None:
    """Append the latency of every request of a pass to ``latencies_ms``.

    A request is one launch record.  On the serial path that is one
    ``time_kernel`` call (compile, verify, simulate).  On the pool path
    it is one ``run_payload`` call in a worker, which wraps the same
    ``time_kernel`` call; the worker ships the time back inside the
    record and the parent takes it off before the record is used.
    """
    from repro.jobs import scheduler, worker
    from repro.suite import base

    time_kernel = base.time_kernel

    @functools.wraps(time_kernel)
    def timed_kernel(*args, **kwargs):
        began = perf_counter()
        try:
            return time_kernel(*args, **kwargs)
        finally:
            latencies_ms.append((perf_counter() - began) * 1e3)

    run_payload = worker.run_payload

    @functools.wraps(run_payload)
    def timed_payload(payload):
        began = perf_counter()
        raw = run_payload(payload)
        raw[LATENCY_KEY] = (perf_counter() - began) * 1e3
        return raw

    record_point = scheduler.record_point

    @functools.wraps(record_point)
    def latency_record_point(record):
        ms = record.pop(LATENCY_KEY, None)
        if ms is not None:
            latencies_ms.append(ms)
        return record_point(record)

    base.time_kernel = timed_kernel
    # The pool pickles run_payload by name, so the worker module must
    # hold the wrapper too; forked workers inherit both bindings.
    worker.run_payload = scheduler.run_payload = timed_payload
    scheduler.record_point = latency_record_point


@dataclass
class Pass:
    """One timed pass: the measurements and what the check found."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: ``reference()`` times taken before each figure and after the last.
    reference_s: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    points: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(problem)


class Workload:
    """Set-up happens in ``__init__``; ``run`` is the timed pass."""

    def __init__(self, name: str, cache_dir: str | None):
        from repro.suite.runner import BENCHMARKS, run_suite

        self.run_suite = run_suite
        # run_suite's own order.  A seeded order would only move work
        # between figures: shared launches and the verify memo favour
        # whichever figure comes first.
        self.order = sorted(BENCHMARKS)
        self.engine = None
        if name == "suite-pool":
            from repro.jobs import JobEngine, JobOptions

            self.engine = JobEngine(JobOptions(jobs=POOL_JOBS, cache_dir=cache_dir))

    def run(self, latencies: bool = True) -> tuple[Pass, dict]:
        """Time one pass; returns it with the figures the check needs.

        ``reference()`` runs before each figure and after the last,
        outside the timed figures, so the pass's host speed is sampled
        all through it.  Pool workers are idle between figures.
        """
        done = Pass()
        if latencies:
            time_requests(done.latencies_ms)
        results = {}
        for i, name in enumerate(self.order):
            done.reference_s.append(reference())
            cpu = _cpu_s()
            start = perf_counter()
            results.update(
                self.run_suite(figures=[name], engine=self.engine, fast=FAST)
            )
            if self.engine is not None and i == len(self.order) - 1:
                self.engine.close(success=True)
            done.wall_s += perf_counter() - start
            done.cpu_s += _cpu_s() - cpu
        done.reference_s.append(reference())
        done.points = sum(
            len(series) for result in results.values() for series in result.series
        )
        return done, results

    # ---- correctness ---------------------------------------------------------
    def check(self, done: Pass, outputs: dict) -> None:
        """Count every figure point and paper claim that differs or fails."""
        from repro.reporting.experiments import check_expectations

        for name, result in outputs.items():
            got = json.loads(result.to_json())
            want = json.loads((FIGURES_DIR / f"{name}.json").read_text())
            expected = {
                (series["label"], point["x"]): point
                for series in want.pop("series")
                for point in series["points"]
            }
            mine = [
                (series["label"], point)
                for series in got.pop("series")
                for point in series["points"]
            ]
            for figure in (got, want):
                figure.pop("manifest", None)
                figure["metadata"].pop("fast", None)
            done.attempted += len(mine)
            if got != want:
                done.fail(len(mine), f"{name}: figure metadata differs")
                continue
            wrong = sum(expected.get((label, p["x"])) != p for label, p in mine)
            if wrong or not mine:
                done.fail(max(wrong, 1), f"{name}: {wrong} of {len(mine)} points differ")
        held = sum(o.passed for o in check_expectations(outputs))
        done.attempted += CLAIMS
        if held < CLAIMS:
            done.fail(CLAIMS - held, f"{held}/{CLAIMS} paper claims hold")
