"""Run the whole suite (or any subset) across the three GPU generations."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

from repro import telemetry
from repro.arch.registry import all_gpus
from repro.arch.specs import GPUSpec
from repro.sim.config import SimConfig
from repro.suite.alu_fetch import ALUFetchBenchmark
from repro.suite.base import MicroBenchmark
from repro.suite.domain_size import DomainSizeBenchmark
from repro.suite.read_latency import ReadLatencyBenchmark
from repro.suite.register_usage import RegisterUsageBenchmark
from repro.suite.results import ResultSet
from repro.suite.write_latency import WriteLatencyBenchmark

if TYPE_CHECKING:
    from repro.jobs.scheduler import JobEngine, JobOptions

#: experiment id -> benchmark factory, one per paper figure (DESIGN.md §5).
BENCHMARKS: dict[str, Callable[..., MicroBenchmark]] = {
    "fig7": ALUFetchBenchmark.figure7,
    "fig8": ALUFetchBenchmark.figure8,
    "fig9": ALUFetchBenchmark.figure9,
    "fig10": ALUFetchBenchmark.figure10,
    "fig11": ReadLatencyBenchmark.figure11,
    "fig12": ReadLatencyBenchmark.figure12,
    "fig13": WriteLatencyBenchmark.figure13,
    "fig14": WriteLatencyBenchmark.figure14,
    "fig15a": DomainSizeBenchmark.figure15a,
    "fig15b": DomainSizeBenchmark.figure15b,
    "fig16": RegisterUsageBenchmark.figure16,
    "fig17": RegisterUsageBenchmark.figure17,
    "fig5ctl": RegisterUsageBenchmark.clause_control,
}


def _serial_compile_cache(engine: "JobEngine | None"):
    """Scope one in-memory compile cache around a serial run.

    A no-op under an engine (it scopes its own) or when a cache is
    already active, so ``run_suite`` shares one across its figures.
    Each distinct (IL text, clause options) then compiles and verifies
    once per run instead of once per sweep point.
    """
    # Imported lazily: the compile cache sits above repro.jobs in the
    # layering.
    from repro.compiler.cache import (
        CompileCache,
        active_cache,
        compile_cache_scope,
    )

    if engine is not None or active_cache() is not None:
        return nullcontext()
    return compile_cache_scope(CompileCache())


def run_benchmark(
    figure: str,
    gpus: tuple[GPUSpec, ...] | None = None,
    fast: bool = False,
    sim: SimConfig | None = None,
    engine: "JobEngine | None" = None,
    **kwargs,
) -> ResultSet:
    """Run one figure's benchmark and return its data."""
    try:
        factory = BENCHMARKS[figure]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure!r}; known: {sorted(BENCHMARKS)}"
        ) from None
    # Construct the SimConfig exactly once and pass it unconditionally:
    # an explicit ``sim=None`` must follow the same path as the default
    # (a falsy-but-customized config must not be silently dropped either).
    benchmark = factory(sim=sim if sim is not None else SimConfig(), **kwargs)
    with _serial_compile_cache(engine):
        return benchmark.run(gpus=gpus, fast=fast, engine=engine)


def run_suite(
    figures: Iterable[str] | None = None,
    gpus: tuple[GPUSpec, ...] | None = None,
    fast: bool = False,
    out_dir: str | Path | None = None,
    telemetry_out: str | Path | None = None,
    engine: "JobEngine | None" = None,
    options: "JobOptions | None" = None,
) -> dict[str, ResultSet]:
    """Run several figures; optionally persist each as JSON in ``out_dir``.

    ``telemetry_out`` records the whole run — every compile and simulated
    launch — and writes a JSONL manifest there; each returned
    :class:`ResultSet` then carries the manifest path in its ``manifest``
    field (and its saved JSON), tying figure data to its provenance.  A
    manifest inside ``out_dir`` is recorded relative to it, so the saved
    figures hold no host path.

    ``engine`` (or ``options``, from which an engine is built and closed
    here) routes every figure through :mod:`repro.jobs`: one shared
    result cache and run ledger across the whole suite, so identical
    launches appearing in several figures simulate exactly once and an
    interrupted invocation resumes mid-suite.  Without one, the serial
    run shares one in-memory compile cache across its figures.
    """
    names = list(figures) if figures is not None else sorted(BENCHMARKS)
    gpus = gpus if gpus is not None else all_gpus()
    results: dict[str, ResultSet] = {}

    owned_engine = None
    if engine is None and options is not None:
        from repro.jobs import JobEngine

        engine = owned_engine = JobEngine(options)

    recorder = (
        telemetry.recording(
            telemetry_out,
            argv=["run_suite", *names],
            config=SimConfig(),
            extra={"figures": names, "fast": fast},
        )
        if telemetry_out is not None
        else nullcontext()
    )
    manifest = None
    if telemetry_out is not None:
        manifest = Path(telemetry_out)
        if out_dir is not None:
            base, absolute = Path(out_dir).resolve(), manifest.resolve()
            if absolute.is_relative_to(base):
                manifest = absolute.relative_to(base)
    try:
        with recorder, _serial_compile_cache(engine):
            for name in names:
                results[name] = run_benchmark(
                    name, gpus=gpus, fast=fast, engine=engine
                )
                if manifest is not None:
                    results[name].manifest = str(manifest)
                if out_dir is not None:
                    directory = Path(out_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    results[name].save(directory / f"{name}.json")
    except BaseException:
        if owned_engine is not None:
            owned_engine.close(success=False)
        raise
    if owned_engine is not None:
        owned_engine.close(success=True)
    return results
