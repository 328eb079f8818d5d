"""IL assembly emitter.

Renders an :class:`~repro.il.module.ILKernel` to textual IL closely modeled
on the AMD IL the paper's generators emitted.  The output round-trips
through :func:`repro.il.parser.parse_il`.
"""

from __future__ import annotations

from repro.il.module import ILKernel
from repro.il.types import MemorySpace, ShaderMode


#: read once: on Python 3.11 each enum class attribute read goes
#: through ``EnumType.__getattr__``, and this renders every declaration.
_PIXEL = ShaderMode.PIXEL
_TEXTURE = MemorySpace.TEXTURE
_COLOR_BUFFER = MemorySpace.COLOR_BUFFER


def emit_il(kernel: ILKernel) -> str:
    """Render ``kernel`` as IL assembly text."""
    dtype = kernel.dtype
    dtype_text = dtype.value
    lines: list[str] = [kernel.mode.il_prefix]
    lines.append(f"; kernel: {kernel.name}")
    lines.append(f"; dtype: {dtype_text}")
    for key in sorted(kernel.metadata):
        lines.append(f"; meta {key}: {kernel.metadata[key]}")

    if kernel.mode is _PIXEL:
        lines.append(
            "dcl_input_position_interp(linear_noperspective) v0.xy__"
        )
    else:
        lines.append("dcl_num_thread_per_group 64")
        lines.append("dcl_absolute_thread_id v0")

    if kernel.constants:
        lines.append(f"dcl_cb cb0[{len(kernel.constants)}]")

    for decl in kernel.inputs:
        fmt = dtype_text if decl.dtype is dtype else decl.dtype.value
        if decl.space is _TEXTURE:
            lines.append(
                f"dcl_resource_id({decl.index})_type(2d,unnorm)_fmt({fmt})"
            )
        else:
            lines.append(f"dcl_global_input({decl.index})_fmt({fmt})")

    for decl in kernel.outputs:
        if decl.space is _COLOR_BUFFER:
            lines.append(f"dcl_output_generic o{decl.index}")
        else:
            fmt = dtype_text if decl.dtype is dtype else decl.dtype.value
            lines.append(f"dcl_global_output({decl.index})_fmt({fmt})")

    lines.extend(map(str, kernel.body))
    lines.append("end")
    return "\n".join(lines) + "\n"


def cached_il_text(kernel: ILKernel) -> str:
    """:func:`emit_il`, memoized on the kernel instance.

    The canonical IL text is the kernel's content identity for the
    compiled-program cache; when the jobs engine shares one kernel
    object across units, every consumer renders it exactly once.
    """
    text = kernel.__dict__.get("_il_text")
    if text is None:
        text = emit_il(kernel)
        object.__setattr__(kernel, "_il_text", text)
    return text
