"""Guard: the compile-side performance contracts (docs/compile-cache.md).

The compiled-program cache justifies itself the same way the jobs engine
does — with measured speed and provable safety.  This benchmark pins:

* the **compile stage** of the Figure 16 sweep — every planned unit's
  program fetched through a :class:`CompileCache` — is at least
  ``WARM_SPEEDUP_FLOOR``x faster when the programs load from a warm
  on-disk store than when they compile cold, and the warm-store figure
  is byte-identical to a cold one;
* the Figure 15 domain sweep — one kernel swept over many launch shapes —
  performs **exactly one** compile under an engine, proven by counting
  ``compile`` spans in a telemetry recording.

Only the compile stage is timed: each distinct program compiles once per
run, so Figure 16's 16 compiles are a small share of its sweep, and a
whole-sweep timing would measure the simulator instead.

Results land in ``benchmarks/results/compile_cache_perf.json`` so CI can
upload them per-PR.  Figure 16 (register usage) is the sweep the compile
path dominates: its kernels are the largest the generators emit, and
every figure point compiles under full differential verification.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import telemetry
from repro.arch import RV770
from repro.compiler.cache import CompileCache, ProgramStore
from repro.jobs import JobEngine, JobOptions
from repro.suite import BENCHMARKS, run_benchmark

RESULTS_DIR = Path(__file__).parent / "results"

#: the contract from docs/compile-cache.md: a warm compile cache makes
#: the Fig 16 compile stage >=3x faster.
WARM_SPEEDUP_FLOOR = 3.0


def _timed_compiles(figure: str, store: Path):
    """Fetch every planned unit's program through a fresh cache on
    ``store``; returns the cache and the seconds spent in it.

    Planning and kernel generation (one fresh kernel per distinct
    recipe) happen before the clock starts, so each round renders its IL
    text anew.
    """
    units = [unit for *_, unit in BENCHMARKS[figure]().plan_units(fast=True)]
    kernels = {unit.recipe: None for unit in units}
    for recipe in kernels:
        kernels[recipe] = recipe.build()
    cache = CompileCache(ProgramStore(store))
    t0 = time.perf_counter()
    for unit in units:
        cache.get_or_compile(kernels[unit.recipe], unit.gpu)
    return cache, time.perf_counter() - t0


def _figure(figure: str, store: Path, ledger: Path):
    """One engine run against ``store`` with the result cache off."""
    engine = JobEngine(JobOptions(program_cache_dir=store, ledger_path=ledger))
    result = run_benchmark(figure, fast=True, engine=engine)
    engine.close(success=True)
    return result, engine


def test_warm_compile_cache_speedup(tmp_path):
    # Cold: every distinct program pays IL->ISA compile + differential
    # verification.  Each cold round gets a FRESH store; the warm rounds
    # then share the first one.  min-of-N on both sides keeps
    # shared-runner noise from deciding the comparison.
    cold = [_timed_compiles("fig16", tmp_path / f"store-{i}") for i in range(2)]
    cold_cache, cold_seconds = min(cold, key=lambda run: run[1])
    assert cold_cache.misses > 0
    assert cold_cache.serialized == cold_cache.misses

    warm = [_timed_compiles("fig16", tmp_path / "store-0") for _ in range(3)]
    warm_cache, warm_seconds = min(warm, key=lambda run: run[1])
    assert warm_cache.misses == 0  # every compile served from disk
    assert warm_cache.disk_hits == cold_cache.misses

    # The warm store must reproduce the cold figure byte for byte.
    cold_result, _ = _figure("fig16", tmp_path / "store-fresh", tmp_path / "c.jsonl")
    warm_result, warm_engine = _figure(
        "fig16", tmp_path / "store-0", tmp_path / "w.jsonl"
    )
    assert warm_engine.programs.misses == 0
    identical = warm_result.to_csv() == cold_result.to_csv()

    speedup = cold_seconds / warm_seconds
    print(
        f"\nfig16 --fast compile stage: cold {cold_seconds:.3f}s "
        f"({cold_cache.misses} compiles), warm {warm_seconds:.3f}s, "
        f"speedup {speedup:.1f}x (floor {WARM_SPEEDUP_FLOOR:g}x)"
    )

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "compile_cache_perf.json").write_text(
        json.dumps(
            {
                "figure": "fig16",
                "stage": "compile",
                "cold_seconds": round(cold_seconds, 4),
                "warm_seconds": round(warm_seconds, 4),
                "speedup": round(speedup, 2),
                "floor": WARM_SPEEDUP_FLOOR,
                "cold_compiles": cold_cache.misses,
                "warm_disk_hits": warm_cache.disk_hits,
                "csv_identical": identical,
            },
            indent=2,
        )
        + "\n"
    )

    assert identical, "warm run drifted from cold run"
    assert speedup >= WARM_SPEEDUP_FLOOR


def test_domain_sweep_compiles_exactly_once(tmp_path):
    # Figure 15 is one kernel x many launch shapes; compile-once planning
    # means the whole sweep costs a single compile.
    engine = JobEngine(JobOptions(ledger_path=tmp_path / "ledger.jsonl"))
    with telemetry.recording() as tracer:
        result = run_benchmark("fig15a", gpus=(RV770,), fast=True, engine=engine)
    engine.close(success=True)

    compiles = sum(1 for s in tracer.finished() if s.name == "compile")
    points = sum(len(series.points) for series in result.series)
    print(f"\nfig15a sweep: {points} points, {compiles} compile span(s)")
    assert points > 1
    assert compiles == 1
    assert engine.programs.misses == 1
    assert engine.programs.memory_hits == points - 1
