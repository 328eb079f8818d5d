"""Run the whole suite (or any subset) across the three GPU generations."""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import nullcontext
from itertools import islice
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
    from repro.jobs.scheduler import JobEngine

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


def _benchmark(
    figure: str, sim: SimConfig | None = None, **kwargs
) -> MicroBenchmark:
    """The benchmark behind one figure id."""
    try:
        factory = BENCHMARKS[figure]
    except KeyError:
        raise KeyError(
            f"unknown figure {figure!r}; known: {sorted(BENCHMARKS)}"
        ) from None
    # Construct the SimConfig exactly once and pass it unconditionally:
    # an explicit ``sim=None`` must follow the same path as the default
    # (a falsy-but-customized config must not be silently dropped either).
    return factory(sim=sim if sim is not None else SimConfig(), **kwargs)


def run_benchmark(
    figure: str,
    gpus: tuple[GPUSpec, ...] | None = None,
    fast: bool = False,
    sim: SimConfig | None = None,
    engine: "JobEngine | None" = None,
    **kwargs,
) -> ResultSet:
    """Run one figure's benchmark and return its data."""
    return _benchmark(figure, sim, **kwargs).run(
        gpus=gpus, fast=fast, engine=engine
    )


def run_suite(
    figures: Iterable[str] | None = None,
    gpus: tuple[GPUSpec, ...] | None = None,
    fast: bool = False,
    out_dir: str | Path | None = None,
    telemetry_out: str | Path | None = None,
    engine: "JobEngine | None" = None,
) -> dict[str, ResultSet]:
    """Run several figures; optionally persist each as JSON in ``out_dir``.

    ``telemetry_out`` records the whole run — every compile and simulated
    launch — and writes a JSONL manifest there; each returned
    :class:`ResultSet` then carries the manifest path in its ``manifest``
    field (and its saved JSON), tying figure data to its provenance.  A
    manifest inside ``out_dir`` is saved relative to it (see
    :meth:`ResultSet.save`), so the saved figures hold no host path.

    Every figure is planned first, and all their units run through one
    ``engine.run`` (a default, inline :class:`repro.jobs.JobEngine`,
    built and closed here, without an ``engine``): identical launches in
    several figures simulate once, each distinct program compiles once,
    and pool batches cross figures.  Each figure is then assembled from
    its slice of the records.
    """
    from repro.jobs.scheduler import JobEngine

    names = list(figures) if figures is not None else sorted(BENCHMARKS)
    gpus = gpus if gpus is not None else all_gpus()
    results: dict[str, ResultSet] = {}

    owned_engine = None
    if engine is None:
        engine = owned_engine = JobEngine()

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
    try:
        with recorder:
            benchmarks = [(name, _benchmark(name)) for name in names]
            plans = [
                benchmark.plan_units(gpus=gpus, fast=fast)
                for _, benchmark in benchmarks
            ]
            records = iter(
                engine.run([unit for plan in plans for *_, unit in plan])
            )
            for (name, benchmark), planned in zip(benchmarks, plans):
                results[name] = benchmark.assemble(
                    planned, list(islice(records, len(planned))), fast
                )
                if telemetry_out is not None:
                    results[name].manifest = str(telemetry_out)
                if out_dir is not None:
                    directory = Path(out_dir)
                    directory.mkdir(parents=True, exist_ok=True)
                    results[name].save(directory / f"{name}.json")
    finally:
        if owned_engine is not None:
            owned_engine.close()
    return results
