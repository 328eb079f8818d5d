"""Micro-benchmark machinery shared by all five benchmarks.

Each benchmark produces, for every (GPU, shader mode, data type) series,
one kernel recipe per sweep value; the harness builds and compiles the
kernel, runs it the paper's 5000 iterations on the simulated chip, and
records the seconds.  RV670 series in compute mode are skipped (the chip
predates compute shader support — §IV), matching the figures' legends.
A sweep is planned into work units, run by a jobs engine, and assembled.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING

from repro import telemetry
from repro.arch.registry import all_gpus
from repro.arch.specs import GPUSpec
from repro.cal.timing import time_kernel
from repro.il.types import DataType, ShaderMode
from repro.kernels.params import KernelRecipe
from repro.sim.config import NAIVE_BLOCK, PAPER_ITERATIONS, SimConfig
from repro.suite.results import ResultSet, Series, SeriesPoint

if TYPE_CHECKING:
    from repro.jobs.scheduler import JobEngine
    from repro.jobs.units import WorkUnit

__all__ = [
    "MicroBenchmark",
    "SeriesSpec",
    "standard_series",
    # Not used here: perfbench reads this binding at start-up.
    "time_kernel",
]


@dataclass(frozen=True)
class SeriesSpec:
    """One curve: a GPU in a mode with a data type (and block shape)."""

    gpu: GPUSpec
    mode: ShaderMode
    dtype: DataType
    block: tuple[int, int] = NAIVE_BLOCK

    @property
    def label(self) -> str:
        """The paper's legend convention, e.g. ``"4870 Compute Float4"``."""
        mode = self.mode.value.capitalize()
        dtype = self.dtype.value.capitalize()
        return f"{self.gpu.short_card} {mode} {dtype}"


def standard_series(
    gpus: tuple[GPUSpec, ...],
    modes: tuple[ShaderMode, ...] = (ShaderMode.PIXEL, ShaderMode.COMPUTE),
    dtypes: tuple[DataType, ...] = (DataType.FLOAT, DataType.FLOAT4),
    block: tuple[int, int] = NAIVE_BLOCK,
) -> list[SeriesSpec]:
    """The paper's standard series grid, minus unsupported combinations."""
    specs: list[SeriesSpec] = []
    for gpu in gpus:
        for mode in modes:
            if mode is ShaderMode.COMPUTE and not gpu.supports_compute_shader:
                continue
            for dtype in dtypes:
                specs.append(SeriesSpec(gpu, mode, dtype, block))
    return specs


class MicroBenchmark(abc.ABC):
    """Base class: subclasses define the sweep and the kernel recipe."""

    #: experiment id, e.g. ``"fig7"`` (see DESIGN.md §5).
    name: str = ""
    title: str = ""
    x_label: str = ""

    def __init__(
        self,
        domain: tuple[int, int] = (1024, 1024),
        iterations: int = PAPER_ITERATIONS,
        sim: SimConfig | None = None,
    ) -> None:
        self.domain = domain
        self.iterations = iterations
        self.sim = sim or SimConfig()

    # ---- subclass interface ------------------------------------------------
    @abc.abstractmethod
    def sweep_values(self, fast: bool = False) -> list[float]:
        """The x-axis values (fast mode may subsample for tests)."""

    @abc.abstractmethod
    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        """The recipe of the kernel measured at one sweep point of one
        series (``.build()`` generates it)."""

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        """Which series to measure (overridable per benchmark/figure)."""
        return standard_series(gpus)

    def domain_for(self, value: float, spec: SeriesSpec) -> tuple[int, int]:
        """Launch domain at one sweep point (the domain benchmark varies it)."""
        return self.domain

    def x_of(self, value: float, gprs: int) -> float:
        """Map the sweep value to the plotted x (register benchmark plots
        the *measured* GPR count, not the step)."""
        return value

    # ---- harness -------------------------------------------------------------
    def plan_units(
        self,
        gpus: tuple[GPUSpec, ...] | None = None,
        fast: bool = False,
    ) -> list[tuple[SeriesSpec, float, "WorkUnit"]]:
        """Decompose the sweep into independent, content-addressed units.

        The plan is ordered series-major, sweep-minor — the figure's own
        order — so :meth:`assemble` rebuilds it in one pass whichever way
        the units execute.  Each unit carries its kernel's recipe; the
        engine builds a kernel only for units it runs, once per distinct
        recipe (the domain sweep is one kernel × many launch shapes;
        series differing only by GPU share everything).
        """
        from repro.jobs.units import WorkUnit

        gpus = gpus if gpus is not None else all_gpus()
        planned: list[tuple[SeriesSpec, float, WorkUnit]] = []
        for spec in self.series_specs(gpus):
            for value in self.sweep_values(fast):
                unit = WorkUnit(
                    figure=self.name,
                    series=spec.label,
                    value=value,
                    recipe=self.build_kernel(value, spec),
                    gpu=spec.gpu,
                    domain=self.domain_for(value, spec),
                    block=spec.block,
                    iterations=self.iterations,
                    sim=self.sim,
                )
                planned.append((spec, value, unit))
        return planned

    def run(
        self,
        gpus: tuple[GPUSpec, ...] | None = None,
        fast: bool = False,
        engine: "JobEngine | None" = None,
    ) -> ResultSet:
        """Measure every series over the sweep; returns the figure's data.

        The sweep is planned once (:meth:`plan_units`), run through
        ``engine`` (a default, inline :class:`repro.jobs.JobEngine`
        without one) and assembled (:meth:`assemble`).
        """
        from repro.jobs.scheduler import JobEngine

        planned = self.plan_units(gpus=gpus, fast=fast)
        engine = engine if engine is not None else JobEngine()
        records = engine.run([unit for *_, unit in planned])
        return self.assemble(planned, records, fast)

    def assemble(
        self,
        planned: list[tuple[SeriesSpec, float, "WorkUnit"]],
        records: list[dict],
        fast: bool,
    ) -> ResultSet:
        """The figure from its plan and the engine's records, in plan
        order, so one pass rebuilds every series."""
        result = ResultSet(
            name=self.name,
            title=self.title,
            x_label=self.x_label,
            metadata={
                "domain": list(self.domain),
                "iterations": self.iterations,
                "fast": fast,
            },
        )
        rows = zip(planned, records, strict=True)
        with telemetry.span("figure", figure=self.name, fast=fast) as fig_span:
            for spec, points in groupby(rows, key=lambda row: row[0][0]):
                series = Series(label=spec.label)
                with telemetry.span(
                    "series", figure=self.name, label=spec.label
                ):
                    for (_spec, value, _unit), record in points:
                        series.add(
                            SeriesPoint(
                                x=self.x_of(value, record["gprs"]),
                                seconds=record["seconds"],
                                gprs=record["gprs"],
                                resident_wavefronts=(
                                    record["resident_wavefronts"]
                                ),
                                bound=record["bound"],
                            )
                        )
                        if telemetry.enabled():
                            telemetry.metrics().counter(
                                "suite.points", figure=self.name
                            ).inc()
                result.add_series(series)
            if fig_span:
                fig_span.set(
                    series=len(result.series),
                    points=sum(len(s) for s in result.series),
                )
        return result
