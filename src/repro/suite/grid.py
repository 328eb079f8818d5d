"""Multi-parameter grid sweeps.

§IV: "results for the ALU:Fetch ratio micro-benchmark were obtained for a
wide range of input sizes and domain sizes ... the execution times
differed but the behavior of the micro-benchmark (the ALU:Fetch ratio at
which the bottleneck went from being the texture fetch to the ALU
operations) remained the same."

:func:`alu_fetch_grid` reproduces exactly that experiment — a (inputs x
ratio) grid on one chip, one work unit per cell — and
:func:`knees_by_input` verifies the paper's invariance claim by
extracting the knee at every input size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.knees import find_knee
from repro.arch.specs import GPUSpec
from repro.cal.device import Device
from repro.il.types import DataType, ShaderMode
from repro.kernels import KernelParams, generate_generic
from repro.sim.config import NAIVE_BLOCK, PAPER_ITERATIONS, SimConfig

if TYPE_CHECKING:
    from repro.jobs.scheduler import JobEngine


@dataclass(frozen=True)
class GridResult:
    """An (inputs x ratio) timing grid on one chip/mode/dtype."""

    gpu: str
    dtype: DataType
    mode: ShaderMode
    inputs: tuple[int, ...]
    ratios: tuple[float, ...]
    #: seconds[inputs_index][ratio_index]
    seconds: tuple[tuple[float, ...], ...]

    def row(self, inputs: int) -> tuple[float, ...]:
        return self.seconds[self.inputs.index(inputs)]

    def to_csv(self) -> str:
        header = "inputs," + ",".join(_ratio_headers(self.ratios))
        lines = [header]
        for n, row in zip(self.inputs, self.seconds):
            lines.append(f"{n}," + ",".join(f"{s:.6f}" for s in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(
        cls,
        text: str,
        gpu: str = "",
        dtype: DataType = DataType.FLOAT,
        mode: ShaderMode = ShaderMode.PIXEL,
    ) -> "GridResult":
        """Rebuild a grid from :meth:`to_csv` output.

        The chip/dtype/mode provenance is not part of the CSV; pass it
        back in (defaults match :func:`alu_fetch_grid`'s).
        """
        lines = [line for line in text.strip().splitlines() if line]
        header = lines[0].split(",")
        if header[:1] != ["inputs"]:
            raise ValueError("not a GridResult CSV (missing 'inputs' header)")
        ratios = tuple(float(cell) for cell in header[1:])
        inputs: list[int] = []
        rows: list[tuple[float, ...]] = []
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(ratios) + 1:
                raise ValueError(
                    f"row {cells[0]!r}: {len(cells) - 1} cells for "
                    f"{len(ratios)} ratios"
                )
            inputs.append(int(cells[0]))
            rows.append(tuple(float(cell) for cell in cells[1:]))
        return cls(
            gpu=gpu,
            dtype=dtype,
            mode=mode,
            inputs=tuple(inputs),
            ratios=ratios,
            seconds=tuple(rows),
        )


def _ratio_headers(ratios: tuple[float, ...]) -> list[str]:
    """Distinct CSV headers for the ratio columns.

    ``{r:g}`` collapses near-equal ratios onto one label (fine-grained
    sweeps collide); start at ``{r:.6g}`` and widen the precision until
    every distinct ratio formats distinctly, so the header always
    round-trips through :meth:`GridResult.from_csv`.
    """
    for precision in (6, 9, 12, 17):
        headers = [f"{r:.{precision}g}" for r in ratios]
        if len(set(headers)) == len(set(ratios)):
            return headers
    return [repr(r) for r in ratios]


def alu_fetch_grid(
    gpu: GPUSpec,
    inputs: tuple[int, ...] = (4, 8, 16, 32),
    ratios: tuple[float, ...] = tuple(0.25 * k for k in range(1, 33)),
    dtype: DataType = DataType.FLOAT,
    mode: ShaderMode = ShaderMode.PIXEL,
    block: tuple[int, int] = NAIVE_BLOCK,
    domain: tuple[int, int] = (1024, 1024),
    iterations: int = PAPER_ITERATIONS,
    sim: SimConfig | None = None,
    engine: "JobEngine | None" = None,
) -> GridResult:
    """Run the ALU:Fetch sweep at several input sizes.

    Every grid cell is one work unit.  With an ``engine``
    (:class:`repro.jobs.JobEngine`) the units are cached, resumable and
    parallelizable; without one they run inline through
    ``simulate_unit``.  Cell values are identical either way.  Each
    cell has its own IL text (no two (inputs, ratio) pairs build the
    same kernel), so there is no compile to share.
    """
    from repro.jobs.units import WorkUnit
    from repro.jobs.worker import simulate_unit
    from repro.verify import default_verify

    # Resolve the ambient verification default once, so pool workers
    # compile exactly as an inline run would.
    verify = default_verify()
    units = [
        WorkUnit(
            figure=f"grid-{gpu.chip}",
            series=f"{mode.value}-{dtype.value}-n{n}",
            value=ratio,
            kernel=generate_generic(
                KernelParams(
                    inputs=n, alu_fetch_ratio=ratio, dtype=dtype, mode=mode
                )
            ),
            gpu=gpu,
            domain=domain,
            block=block,
            iterations=iterations,
            sim=sim if sim is not None else SimConfig(),
            verify=verify,
        )
        for n in inputs
        for ratio in ratios
    ]
    if engine is not None:
        records = engine.run(units)
    else:
        device = Device(gpu)
        records = [simulate_unit(unit, device) for unit in units]
    width = len(ratios)
    return GridResult(
        gpu=gpu.chip,
        dtype=dtype,
        mode=mode,
        inputs=tuple(inputs),
        ratios=tuple(ratios),
        seconds=tuple(
            tuple(r["seconds"] for r in records[i * width : (i + 1) * width])
            for i in range(len(inputs))
        ),
    )


def knees_by_input(grid: GridResult, tolerance: float = 0.05) -> dict[int, float | None]:
    """The bottleneck-transition ratio at each input size.

    The paper's invariance claim is that these coincide: the knee is a
    property of (chip, mode, dtype), not of the input count.
    """
    return {
        n: find_knee(list(grid.ratios), list(row), tolerance=tolerance).knee_x
        for n, row in zip(grid.inputs, grid.seconds)
    }
