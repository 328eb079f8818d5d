"""Fundamental enums shared across the IL, compiler and simulator layers."""

from __future__ import annotations

import enum


class DataType(enum.Enum):
    """Element type of a kernel's streams.

    The paper sweeps every micro-benchmark over ``float`` and ``float4``
    (§IV).  ``float2`` is included because the IL supports it and it is
    useful for ablations, but no paper figure uses it.
    """

    FLOAT = "float"
    FLOAT2 = "float2"
    FLOAT4 = "float4"

    #: 32-bit components per element, and the element's size in bytes.
    components: int
    bytes: int

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        for member in cls:
            if member.value == name.strip().lower():
                return member
        raise ValueError(f"unknown data type {name!r}")


class ShaderMode(enum.Enum):
    """Execution mode of a kernel.

    * ``PIXEL`` — the rasterizer walks the 2-D domain in tiled order and
      outputs go to color buffers (streaming stores) or global memory.
    * ``COMPUTE`` — the programmer chooses a linear block decomposition
      (naive 64x1 unless stated otherwise — §IV); color buffers are not
      available so outputs must go to global memory.
    """

    PIXEL = "pixel"
    COMPUTE = "compute"

    #: the IL program header, e.g. ``il_ps_2_0``.
    il_prefix: str

    @classmethod
    def from_name(cls, name: str) -> "ShaderMode":
        normalized = name.strip().lower()
        aliases = {"ps": "pixel", "cs": "compute"}
        normalized = aliases.get(normalized, normalized)
        for member in cls:
            if member.value == normalized:
                return member
        raise ValueError(f"unknown shader mode {name!r}")


# Plain member attributes, like ``RegisterFile._code``: stream allocation
# and the cost model read sizes per launch, an enum property per call.
for _member, _components in zip(DataType, (1, 2, 4)):
    _member.components = _components
    _member.bytes = 4 * _components
ShaderMode.PIXEL.il_prefix = "il_ps_2_0"
ShaderMode.COMPUTE.il_prefix = "il_cs_2_0"


class MemorySpace(enum.Enum):
    """Where a kernel stream lives.

    * ``TEXTURE`` — sampled through the texture units and the L1 cache.
    * ``GLOBAL`` — the uncached global memory path (``g[]`` in IL).
    * ``COLOR_BUFFER`` — pixel-shader output with burst (streaming) stores.
    * ``CONSTANT`` — the constant buffer (free at the timing level).
    """

    TEXTURE = "texture"
    GLOBAL = "global"
    COLOR_BUFFER = "color"
    CONSTANT = "constant"

    @property
    def is_input_space(self) -> bool:
        return self in (MemorySpace.TEXTURE, MemorySpace.GLOBAL, MemorySpace.CONSTANT)

    @property
    def is_output_space(self) -> bool:
        return self in (MemorySpace.COLOR_BUFFER, MemorySpace.GLOBAL)
