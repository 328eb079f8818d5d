"""Register-usage micro-benchmark (§III-E, Figures 16-17, Figure 5 control).

Sweeps the Figure 6 generator's ``step`` parameter with 64 inputs and a
``space`` of eight, producing kernels with identical input/output counts,
identical ALU-op counts and identical ALU:Fetch ratio but descending GPR
usage (~64 down to ~10) — and therefore ascending wavefront residency.
The plotted x axis is the *compiled* GPR count, exactly as the paper's
figures are labeled.

The ALU:Fetch ratio is the raw 4:1-instruction ratio 4.0 the paper quotes
for this experiment, i.e. SKA-normalized 1.0 — the "good band" where
neither resource dominates outright, so latency hiding is what the sweep
exposes.  (A deeply ALU-bound kernel would render the sweep flat.)

``control=True`` runs the Figure 5 clause-usage kernel instead: same
clause structure, all sampling up front, constant GPRs — the paper's
proof that the gains come from register pressure, not from moving ALU
operations across clauses.
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.il.types import ShaderMode
from repro.kernels import KernelParams, KernelRecipe
from repro.sim.config import NAIVE_BLOCK
from repro.suite.base import MicroBenchmark, SeriesSpec, standard_series

STEP_SWEEP = list(range(0, 8))

#: SKA-normalized ratio of the experiment (= raw instruction ratio 4.0).
SKA_RATIO = 1.0


class RegisterUsageBenchmark(MicroBenchmark):
    """Time vs. GPR count at constant work."""

    name = "fig16"
    title = "Register Pressure Effect"
    x_label = "Global Purpose Registers"

    def __init__(
        self,
        inputs: int = 64,
        space: int = 8,
        control: bool = False,
        modes: tuple[ShaderMode, ...] = (ShaderMode.PIXEL, ShaderMode.COMPUTE),
        block: tuple[int, int] = NAIVE_BLOCK,
        name: str | None = None,
        title: str | None = None,
        **kwargs,
    ) -> None:
        # 64 float4 input streams at 1024^2 would need 1 GiB — more than
        # the 3870/4870 boards hold.  The paper sized domains by "the
        # availability of memory on the card" (§III); 512^2 fits all cards.
        kwargs.setdefault("domain", (512, 512))
        super().__init__(**kwargs)
        self.inputs = inputs
        self.space = space
        self.control = control
        self.modes = modes
        self.block = block
        if name is not None:
            self.name = name
        if title is not None:
            self.title = title

    @classmethod
    def figure16(cls, **kwargs) -> "RegisterUsageBenchmark":
        return cls(name="fig16", title="Register Pressure Effect", **kwargs)

    @classmethod
    def figure17(cls, **kwargs) -> "RegisterUsageBenchmark":
        return cls(
            modes=(ShaderMode.COMPUTE,),
            block=(4, 16),
            name="fig17",
            title="Register Pressure Effect for 4x16 Block Size",
            **kwargs,
        )

    @classmethod
    def clause_control(cls, **kwargs) -> "RegisterUsageBenchmark":
        benchmark = cls(
            control=True,
            name="fig5ctl",
            title="Clause Usage Control (constant registers)",
            **kwargs,
        )
        benchmark.x_label = "Step (sampling all up front)"
        return benchmark

    def sweep_values(self, fast: bool = False) -> list[float]:
        steps = STEP_SWEEP[::2] if fast else STEP_SWEEP
        return [float(s) for s in steps]

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        return standard_series(gpus, modes=self.modes, block=self.block)

    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        params = KernelParams(
            inputs=self.inputs,
            outputs=1,
            alu_fetch_ratio=SKA_RATIO,
            dtype=spec.dtype,
            mode=spec.mode,
            space=self.space,
            step=int(value),
        )
        generator = "clause_usage" if self.control else "register_usage"
        return KernelRecipe(generator, params)

    def x_of(self, value: float, gprs: int) -> float:
        if self.control:
            # The control kernel's GPR count is constant by design; plot
            # against the step so the flat curve is visible.
            return value
        # The figures' x axis is the measured GPR count (descending).
        return float(gprs)
