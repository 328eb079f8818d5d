"""The execution engine: fan units out, reassemble results in order.

:class:`JobEngine` takes a planned list of :class:`~repro.jobs.units
.WorkUnit` and returns their records *in submission order*, regardless of
completion order — callers rebuild ``ResultSet``/``GridResult`` shapes
that are bit-identical to a serial run.  Between planning and execution
it consults, in priority order:

1. the **run ledger** — units a killed previous attempt already finished
   (``resume=True``),
2. the **result cache** — content-addressed records from any earlier run,
3. the **scheduler** — everything still pending, deduplicated by cache
   key (identical launches shared between figures simulate once), run
   either inline (``jobs <= 1``, the deterministic default) or across
   the engine's one ``ProcessPoolExecutor``, in batches that share a
   kernel recipe and clause options (:func:`batch_units`), with a
   per-unit timeout budget and one retry after a worker-pool crash.
   Both build kernels for these units only and run each through
   :func:`~repro.jobs.worker.run_payload`; the pool receives the
   :class:`~repro.jobs.units.WorkUnit` values themselves.

A default ``JobEngine()`` runs inline with no ledger, result cache or
pool, so it needs no :meth:`JobEngine.close`.

Telemetry (when enabled) gets a ``scheduler`` span per ``run()`` call,
a ``kernels`` span per build, a ``unit`` span per unit with its
resolution source, and the ``jobs.cache.hit`` / ``jobs.cache.miss`` /
``jobs.resumed`` / ``jobs.simulated`` counters (docs/telemetry.md).
"""

from __future__ import annotations

import concurrent.futures
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro.jobs.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.jobs.ledger import RunLedger
from repro.jobs.units import WorkUnit, build_kernels, record_point
from repro.jobs.worker import initialize_worker, run_payload, run_payloads


class JobError(RuntimeError):
    """The engine could not complete the run."""


class UnitTimeout(JobError):
    """A unit exceeded the per-unit timeout budget."""


@dataclass(frozen=True)
class JobOptions:
    """How to execute a planned run (CLI flags map onto this 1:1)."""

    #: worker processes; 0 or 1 runs inline for strict determinism of
    #: telemetry and exception timing (results are identical either way).
    jobs: int = 0
    #: result-cache root; ``None`` disables the cache entirely.
    cache_dir: str | Path | None = None
    #: preload the run ledger from a previous (killed) attempt.
    resume: bool = False
    #: explicit ledger path; defaults to ``<cache root>/ledger.jsonl``.
    ledger_path: str | Path | None = None
    #: per-unit timeout in seconds; a batch of n units gets n times this,
    #: measured from when the scheduler starts waiting on the batch
    #: (``None`` waits forever).
    timeout: float | None = None
    #: on-disk compiled-program store root; defaults to the result-cache
    #: root (the two tiers share ``results/cache/``), ``None`` with no
    #: cache_dir keeps compiled programs in memory only.
    program_cache_dir: str | Path | None = None

    def resolved_ledger_path(self) -> Path:
        if self.ledger_path is not None:
            return Path(self.ledger_path)
        root = Path(self.cache_dir) if self.cache_dir else DEFAULT_CACHE_DIR
        return root / "ledger.jsonl"

    def resolved_program_root(self) -> Path | None:
        """Where compiled programs persist (``None`` = memory tier only)."""
        if self.program_cache_dir is not None:
            return Path(self.program_cache_dir)
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        return None


def batch_units(units: Sequence[WorkUnit], jobs: int) -> list[list[WorkUnit]]:
    """Split ``units`` into pool batches, one program per batch.

    Units are grouped by kernel recipe and clause options, groups in
    first-appearance order, so a worker builds and compiles each program
    once per batch.  A group larger than ``ceil(len(units) / jobs)`` is
    cut into chunks of that size, so one kernel swept over many launch
    shapes still spreads across every worker.
    """
    from repro.compiler.pipeline import CompileOptions

    groups: dict[tuple, list[WorkUnit]] = {}
    for unit in units:
        key = (unit.recipe, CompileOptions.for_gpu(unit.gpu))
        groups.setdefault(key, []).append(unit)
    size = math.ceil(len(units) / jobs)
    return [
        group[start:start + size]
        for group in groups.values()
        for start in range(0, len(group), size)
    ]


class JobEngine:
    """One engine per logical run; share it across figures of a suite.

    It owns one compile cache for its lifetime, and with ``jobs > 1`` one
    worker pool, forked by the first :meth:`run` that has pool work and
    reused by every later one; :meth:`close` shuts it down.
    """

    def __init__(self, options: JobOptions | None = None) -> None:
        from repro.compiler.cache import CompileCache, ProgramStore

        self.options = options or JobOptions()
        self.cache = (
            ResultCache(self.options.cache_dir)
            if self.options.cache_dir is not None
            else None
        )
        program_root = self.options.resolved_program_root()
        self.programs = CompileCache(
            ProgramStore(program_root) if program_root else None
        )
        options = self.options
        self.ledger: RunLedger | None = None
        self._resumed_records: dict[str, dict] = {}
        # Keep a ledger only when a resume could use it.
        if (
            options.jobs > 1
            or options.cache_dir is not None
            or options.resume
            or options.ledger_path is not None
        ):
            self.ledger = RunLedger(options.resolved_ledger_path())
            if options.resume:
                self._resumed_records = self.ledger.load()
            if not self._resumed_records:
                # A fresh run, or a stale salt or empty file: start over.
                self.ledger.discard()
        self.resumed = 0
        self.simulated = 0
        self._pool: ProcessPoolExecutor | None = None

    # ---- execution -------------------------------------------------------
    def run(self, units: Sequence[WorkUnit]) -> list[dict]:
        """Execute ``units``; returns one record per unit, same order."""
        from repro.compiler.cache import compile_cache_scope

        results: dict[str, dict] = {}
        pending: list[WorkUnit] = []
        seen: set[str] = set()

        # Route every inline compile through the engine's program cache,
        # so each distinct (IL, clause options) compiles exactly once per
        # engine.  Pool workers scope their own cache per batch (see
        # ``worker.run_payloads``).
        with compile_cache_scope(self.programs), telemetry.span(
            "scheduler",
            jobs=self.options.jobs,
            units=len(units),
            resume=self.options.resume,
            cache=self.cache is not None,
        ) as span:
            for unit in units:
                key = unit.key
                if key in seen:
                    continue
                seen.add(key)
                record = self._replay(unit)
                if record is not None:
                    results[key] = record
                else:
                    pending.append(unit)

            if pending:
                if self.options.jobs > 1:
                    self._run_pool(pending, results)
                else:
                    build_kernels(pending)
                    # The pool's per-unit function, looked up at call
                    # time: perfbench rebinds this module's binding.
                    for unit in pending:
                        raw = run_payload(unit)
                        self._finish(unit, raw, results, "serial")

            if span:
                span.set(
                    distinct=len(seen),
                    simulated=self.simulated,
                    resumed=self.resumed,
                    cache_hits=self.cache.hits if self.cache else 0,
                    cache_misses=self.cache.misses if self.cache else 0,
                    # Inline compile-cache traffic; pool workers count
                    # their own per-batch caches.
                    compile_hits=self.programs.hits,
                    compile_misses=self.programs.misses,
                )
        return [results[unit.key] for unit in units]

    def close(self, success: bool = True) -> None:
        """Join the worker pool, flush the cache index, and drop the
        ledger once the run landed."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self.cache is not None and self.cache.puts:
            self.cache.write_index()
        if self.ledger is not None and success:
            self.ledger.discard()

    # ---- resolution ------------------------------------------------------
    def _replay(self, unit: WorkUnit) -> dict | None:
        """A previously computed record (ledger, then cache), if any."""
        record = self._resumed_records.get(unit.key)
        if record is not None:
            self.resumed += 1
            self._count("jobs.resumed", unit.figure)
            self._unit_span(unit, "resumed")
            if self.cache is not None and self.cache.get(unit.key) is None:
                self.cache.put(unit.key, record, figure=unit.figure)
            return record
        if self.cache is None:
            return None
        record = self.cache.get(unit.key)
        if record is not None:
            self._count("jobs.cache.hit", unit.figure)
            self._unit_span(unit, "hit")
            return record_point(record)
        self._count("jobs.cache.miss", unit.figure)
        return None

    def _finish(
        self, unit: WorkUnit, raw: dict, results: dict, mode: str
    ) -> None:
        record = record_point(raw)
        results[unit.key] = record
        self.simulated += 1
        if self.cache is not None:
            self.cache.put(unit.key, record, figure=unit.figure)
        if self.ledger is not None:
            self.ledger.append(unit.key, record)
        self._count("jobs.simulated", unit.figure, mode=mode)
        self._unit_span(unit, mode, seconds=record["seconds"])

    # ---- process pool ----------------------------------------------------
    def _run_pool(self, pending: list[WorkUnit], results: dict) -> None:
        remaining = pending
        for attempt in (0, 1):
            try:
                self._pool_pass(remaining, results)
                return
            except BrokenProcessPool:
                self._discard_pool()
                remaining = [u for u in remaining if u.key not in results]
                if attempt or not remaining:
                    raise JobError(
                        f"worker pool crashed twice; {len(remaining)} "
                        "units unfinished (see the run ledger)"
                    ) from None
                self._count("jobs.pool_retries", remaining[0].figure)

    def _pool_pass(self, units: list[WorkUnit], results: dict) -> None:
        pool = self._worker_pool()
        timeout = self.options.timeout
        futures = [
            (batch, pool.submit(run_payloads, batch))
            for batch in batch_units(units, self.options.jobs)
        ]
        try:
            for batch, future in futures:
                budget = None if timeout is None else timeout * len(batch)
                try:
                    raws = future.result(timeout=budget)
                except concurrent.futures.TimeoutError:
                    self._discard_pool()
                    first = batch[0]
                    raise UnitTimeout(
                        f"batch of {len(batch)} units from {first.key[:12]} "
                        f"({first.figure}/{first.series} x={first.value:g}) "
                        f"exceeded {budget:g}s ({timeout:g}s per unit)"
                    ) from None
                for unit, raw in zip(batch, raws):
                    self._finish(unit, raw, results, "pool")
        finally:
            for _, future in futures:
                future.cancel()

    def _worker_pool(self) -> ProcessPoolExecutor:
        """The engine's pool, forked on first use."""
        if self._pool is None:
            program_root = self.options.resolved_program_root()
            self._pool = ProcessPoolExecutor(
                max_workers=self.options.jobs,
                initializer=initialize_worker,
                initargs=(str(program_root) if program_root else None,),
            )
        return self._pool

    def _discard_pool(self) -> None:
        """Kill the workers of a broken or timed-out pool and drop it;
        the next pass forks a fresh one."""
        pool, self._pool = self._pool, None
        # ``shutdown`` alone would wait for a hung unit to finish.
        workers = list(pool._processes.values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in workers:
            process.terminate()
        for process in workers:
            process.join()

    # ---- telemetry -------------------------------------------------------
    @staticmethod
    def _count(name: str, figure: str, **labels) -> None:
        if telemetry.enabled():
            telemetry.metrics().counter(name, figure=figure, **labels).inc()

    @staticmethod
    def _unit_span(unit: WorkUnit, source: str, **attrs) -> None:
        if not telemetry.enabled():
            return
        with telemetry.span(
            "unit",
            key=unit.key[:12],
            figure=unit.figure,
            series=unit.series,
            x=unit.value,
            source=source,
            **attrs,
        ):
            pass
