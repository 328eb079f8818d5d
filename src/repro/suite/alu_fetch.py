"""The ALU:Fetch ratio micro-benchmark (§III-A, Figures 7-10).

Sweeps the SKA-convention ALU:Fetch ratio from 0.25 to 8.0 in steps of
0.25 with 16 inputs, one output and a 1024x1024 domain, "a large enough
number of threads to keep the GPU busy".  The measured curve is flat while
the kernel is fetch-bound, then rises linearly once the ALU operations
become the bottleneck — the transition point is the dynamic quantity the
static SKA number cannot provide.

Figure variants are expressed through the constructor:

* Figure 7 — texture inputs, default outputs, naive 64x1 compute blocks.
* Figure 8 — ``block=(4, 16)``, compute mode only.
* Figure 9 — ``input_space=GLOBAL`` with pixel-mode streaming stores
  ("Global Read Stream Write").
* Figure 10 — ``input_space=GLOBAL, output_space=GLOBAL``.
"""

from __future__ import annotations

from repro.arch.specs import GPUSpec
from repro.il.types import MemorySpace, ShaderMode
from repro.kernels import KernelParams, KernelRecipe
from repro.sim.config import NAIVE_BLOCK
from repro.suite.base import MicroBenchmark, SeriesSpec, standard_series

#: the paper's sweep: 0.25 to 8.0 incremented by 0.25 (§IV-A).
RATIO_SWEEP = [round(0.25 * k, 2) for k in range(1, 33)]
FAST_SWEEP = [0.25, 0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0]


class ALUFetchBenchmark(MicroBenchmark):
    """Finds where a kernel's boundedness flips between fetch and ALU."""

    name = "fig7"
    title = "ALU:Fetch Ratio for 16 Inputs"
    x_label = "ALU:Fetch Ratio"

    def __init__(
        self,
        inputs: int = 16,
        outputs: int = 1,
        input_space: MemorySpace = MemorySpace.TEXTURE,
        output_space: MemorySpace | None = None,
        modes: tuple[ShaderMode, ...] = (ShaderMode.PIXEL, ShaderMode.COMPUTE),
        block: tuple[int, int] = NAIVE_BLOCK,
        name: str | None = None,
        title: str | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.inputs = inputs
        self.outputs = outputs
        self.input_space = input_space
        self.output_space = output_space
        self.modes = modes
        self.block = block
        if name is not None:
            self.name = name
        if title is not None:
            self.title = title

    # ---- figure factories ---------------------------------------------------
    @classmethod
    def figure7(cls, **kwargs) -> "ALUFetchBenchmark":
        return cls(name="fig7", title="ALU:Fetch Ratio for 16 Inputs", **kwargs)

    @classmethod
    def figure8(cls, **kwargs) -> "ALUFetchBenchmark":
        return cls(
            modes=(ShaderMode.COMPUTE,),
            block=(4, 16),
            name="fig8",
            title="ALU:Fetch Ratio for 16 Inputs with Block Size of 4x16",
            **kwargs,
        )

    @classmethod
    def figure9(cls, **kwargs) -> "ALUFetchBenchmark":
        return cls(
            input_space=MemorySpace.GLOBAL,
            modes=(ShaderMode.PIXEL,),
            name="fig9",
            title="ALU:Fetch Ratio Global Read Stream Write",
            **kwargs,
        )

    @classmethod
    def figure10(cls, **kwargs) -> "ALUFetchBenchmark":
        return cls(
            input_space=MemorySpace.GLOBAL,
            output_space=MemorySpace.GLOBAL,
            name="fig10",
            title="ALU:Fetch Ratio Global Read Global Write",
            **kwargs,
        )

    # ---- MicroBenchmark interface ---------------------------------------------
    def sweep_values(self, fast: bool = False) -> list[float]:
        return list(FAST_SWEEP if fast else RATIO_SWEEP)

    def series_specs(self, gpus: tuple[GPUSpec, ...]) -> list[SeriesSpec]:
        specs = standard_series(gpus, modes=self.modes, block=self.block)
        if self.name == "fig10":
            # Figure 10's legend drops the RV670: its global path is shown
            # in Figure 9 and it supports no compute mode.
            specs = [s for s in specs if s.gpu.chip != "RV670"]
        return specs

    def build_kernel(self, value: float, spec: SeriesSpec) -> KernelRecipe:
        params = KernelParams(
            inputs=self.inputs,
            outputs=self.outputs,
            alu_fetch_ratio=value,
            dtype=spec.dtype,
            mode=spec.mode,
            input_space=self.input_space,
            output_space=self.output_space,
        )
        return KernelRecipe("generic", params)
