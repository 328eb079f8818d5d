"""Device handles."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.arch.registry import gpu_by_name
from repro.arch.specs import GPUSpec
from repro.il.types import ShaderMode


@dataclass(frozen=True)
class Device:
    """A GPU available to the runtime."""

    spec: GPUSpec

    @property
    def name(self) -> str:
        return self.spec.card

    @cached_property  # read once per stream a launch allocates
    def board_memory_bytes(self) -> int:
        return self.spec.board_memory_mib * 1024 * 1024

    def supports(self, mode: ShaderMode) -> bool:
        if mode is ShaderMode.COMPUTE:
            return self.spec.supports_compute_shader
        return True

    def create_context(self) -> "Context":
        from repro.cal.context import Context

        return Context(self)

    def info(self) -> str:
        """Human-readable device summary (CAL's calDeviceGetInfo flavour)."""
        spec = self.spec
        return (
            f"{spec.card} ({spec.chip}): {spec.num_alus} ALUs, "
            f"{spec.num_texture_units} texture units, {spec.num_simds} SIMD "
            f"engines, {spec.core_clock_mhz:.0f} MHz core / "
            f"{spec.memory.clock_mhz:.0f} MHz {spec.memory.technology.value} "
            f"memory, {spec.board_memory_mib} MiB"
        )


def open_device(name_or_spec: str | GPUSpec) -> Device:
    """Open a device by chip/card name or an explicit spec."""
    if isinstance(name_or_spec, GPUSpec):
        return Device(name_or_spec)
    return Device(gpu_by_name(name_or_spec))
