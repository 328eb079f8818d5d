"""Micro-benchmark machinery shared by all five benchmarks.

Each benchmark produces, for every (GPU, shader mode, data type) series,
one kernel per sweep value; the harness compiles it, allocates its
streams, runs it the paper's 5000 iterations on the simulated chip, and
records the seconds.  RV670 series in compute mode are skipped (the chip
predates compute shader support — §IV), matching the figures' legends.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

from repro import telemetry
from repro.arch.registry import all_gpus
from repro.arch.specs import GPUSpec
from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.il.module import ILKernel
from repro.il.types import DataType, ShaderMode
from repro.sim.config import NAIVE_BLOCK, PAPER_ITERATIONS, SimConfig
from repro.suite.results import ResultSet, Series, SeriesPoint

if TYPE_CHECKING:
    from repro.jobs.scheduler import JobEngine
    from repro.jobs.units import WorkUnit


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
    """Base class: subclasses define the sweep and the kernel factory."""

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
    def build_kernel(self, value: float, spec: SeriesSpec) -> ILKernel:
        """The kernel measured at one sweep point of one series."""

    @abc.abstractmethod
    def kernel_key(self, value: float, spec: SeriesSpec) -> object:
        """Hashable identity of ``build_kernel(value, spec)``'s result.

        Two sweep points whose keys compare equal are guaranteed (by the
        subclass) to build content-identical kernels, so ``plan_units``
        builds once and shares the object — downstream the shared
        instance also collapses the IL-text rendering and the compile
        into one apiece.  The paper's generators never read ``spec.gpu``
        or ``spec.block``, so every benchmark keys on ``(mode, dtype)``
        plus whatever of ``value``/its own parameters the kernel body
        actually uses.
        """

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        """Which series to measure (overridable per benchmark/figure)."""
        return standard_series(gpus)

    def domain_for(self, value: float, spec: SeriesSpec) -> tuple[int, int]:
        """Launch domain at one sweep point (the domain benchmark varies it)."""
        return self.domain

    def x_of(self, value: float, kernel: ILKernel, gprs: int) -> float:
        """Map the sweep value to the plotted x (register benchmark plots
        the *measured* GPR count, not the step)."""
        return value

    # ---- harness -------------------------------------------------------------
    def plan_units(
        self,
        gpus: tuple[GPUSpec, ...] | None = None,
        fast: bool = False,
    ) -> list[tuple[SeriesSpec, float, ILKernel, "WorkUnit"]]:
        """Decompose the sweep into independent, content-addressed units.

        The plan is ordered series-major, sweep-minor — the figure's own
        order — so :meth:`run` reassembles it in one pass whichever way
        the units execute.  Kernels are built here (the canonical IL text
        is the cache key's backbone); compile+simulate happens in
        :meth:`run`.  Sweep points that :meth:`kernel_key` declares
        identical share one kernel object (the domain sweep is one
        kernel × many launch shapes; series differing only by GPU share
        everything).
        """
        from repro.jobs.units import WorkUnit

        gpus = gpus if gpus is not None else all_gpus()
        planned: list[tuple[SeriesSpec, float, ILKernel, WorkUnit]] = []
        built: dict[object, ILKernel] = {}
        for spec in self.series_specs(gpus):
            for value in self.sweep_values(fast):
                key = self.kernel_key(value, spec)
                kernel = built.get(key)
                if kernel is None:
                    kernel = built[key] = self.build_kernel(value, spec)
                unit = WorkUnit(
                    figure=self.name,
                    series=spec.label,
                    value=value,
                    kernel=kernel,
                    gpu=spec.gpu,
                    domain=self.domain_for(value, spec),
                    block=spec.block,
                    iterations=self.iterations,
                    sim=self.sim,
                    # Figure kernels always compile under full
                    # verification (see run()); bake that into the unit
                    # so worker processes reproduce it.
                    verify=True,
                )
                planned.append((spec, value, kernel, unit))
        return planned

    def run(
        self,
        gpus: tuple[GPUSpec, ...] | None = None,
        fast: bool = False,
        engine: "JobEngine | None" = None,
    ) -> ResultSet:
        """Measure every series over the sweep; returns the figure's data.

        The sweep is planned once (:meth:`plan_units`) and reassembled in
        one loop.  With an ``engine`` (:class:`repro.jobs.JobEngine`) the
        units execute through its cache/ledger/scheduler pipeline.
        Without one, each launch runs inline through ``time_kernel`` and
        compiles through whatever compile cache is active, which
        ``run_benchmark``/``run_suite`` install.  Both paths reduce a
        launch with the same record function, so the figure is
        bit-identical either way.
        """
        from repro.jobs.worker import launch_record
        from repro.verify import verification

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
        # Every figure kernel compiles under full verification: a
        # miscompile (wrong GPR count, broken clause formation) would
        # silently corrupt the measurement, so fail loudly instead.
        with telemetry.span(
            "figure", figure=self.name, fast=fast
        ) as fig_span, verification(True):
            planned = self.plan_units(gpus=gpus, fast=fast)
            records = (
                iter(engine.run([unit for *_, unit in planned]))
                if engine is not None
                else None
            )
            for spec, points in groupby(planned, key=itemgetter(0)):
                series = Series(label=spec.label)
                device = Device(spec.gpu)
                with telemetry.span(
                    "series", figure=self.name, label=spec.label
                ):
                    for _spec, value, kernel, unit in points:
                        if records is not None:
                            record = next(records)
                        else:
                            # perfbench times each launch by rebinding
                            # ``repro.suite.base.time_kernel``: call it
                            # through this module, once per launch.
                            record = launch_record(
                                time_kernel(
                                    device,
                                    kernel,
                                    domain=unit.domain,
                                    block=unit.block,
                                    iterations=unit.iterations,
                                    sim=unit.sim,
                                )
                            )
                        series.add(
                            SeriesPoint(
                                x=self.x_of(value, kernel, record["gprs"]),
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
