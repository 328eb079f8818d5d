"""The CAL context: resource allocation and kernel execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cal.device import Device
from repro.cal.errors import OutOfMemoryError, UnsupportedError
from repro.cal.kernel_launch import Event, launch_module
from repro.cal.module import Module
from repro.cal.resource import Resource
from repro.compiler import compile_kernel
from repro.il.module import ILKernel
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.sim.config import LaunchConfig, PAPER_ITERATIONS, SimConfig


@dataclass
class Context:
    """One execution context on a device.

    Tracks the device memory consumed by live resources — the paper notes
    domains were bounded by "the availability of memory on the card"
    (§III), and the context enforces exactly that bound.
    """

    device: Device
    sim: SimConfig = field(default_factory=SimConfig)
    #: live allocations (resources hash and compare by identity).
    _resources: set[Resource] = field(default_factory=set)
    _allocated_bytes: int = 0

    # ---- resources -------------------------------------------------------
    @property
    def allocated_bytes(self) -> int:
        return self._allocated_bytes

    @property
    def free_bytes(self) -> int:
        return self.device.board_memory_bytes - self._allocated_bytes

    def alloc_2d(
        self,
        width: int,
        height: int,
        dtype: DataType,
        space: MemorySpace = MemorySpace.TEXTURE,
        name: str = "",
    ) -> Resource:
        """Allocate a 2-D resource, enforcing the board memory limit."""
        resource = Resource(width, height, dtype, space, name)
        if resource.nbytes > self.free_bytes:
            raise OutOfMemoryError(
                f"allocating {resource.nbytes} bytes would exceed the "
                f"{self.device.spec.board_memory_mib} MiB board "
                f"({self.free_bytes} bytes free)"
            )
        self._resources.add(resource)
        self._allocated_bytes += resource.nbytes
        return resource

    def free(self, resource: Resource) -> None:
        """Release a resource's memory."""
        if resource not in self._resources:
            raise ValueError("resource does not belong to this context")
        self._resources.remove(resource)
        self._allocated_bytes -= resource.nbytes
        resource.mark_freed()

    # ---- modules ----------------------------------------------------------
    def load_module(self, kernel: ILKernel) -> Module:
        """Compile an IL kernel for this device and wrap it as a module.

        When a :class:`repro.compiler.cache.CompileCache` is installed
        (every suite run scopes one), the compile goes
        through it — repeated loads of content-identical kernels reuse
        the compiled program instead of recompiling per launch.
        """
        if not self.device.supports(kernel.mode):
            raise UnsupportedError(
                f"{self.device.spec.chip} does not support "
                f"{kernel.mode.value} shader mode"
            )
        # Imported lazily: the compile cache sits above repro.jobs in the
        # layering, and plain contexts must not pay for it.
        from repro.compiler.cache import active_cache

        cache = active_cache()
        if cache is not None:
            program = cache.get_or_compile(kernel, self.device.spec)
        else:
            program = compile_kernel(kernel, self.device.spec)
        return Module(kernel=kernel, program=program)

    def bind_streams(
        self, module: Module, domain: tuple[int, int]
    ) -> None:
        """Allocate and bind one resource per declared input/output.

        Convenience used by the benchmark harness, where the *values* are
        irrelevant and only extents/spaces matter.
        """
        width, height = domain
        for prefix, decls, bind in (
            ("in", module.kernel.inputs, module.bind_input),
            ("out", module.kernel.outputs, module.bind_output),
        ):
            for decl in decls:
                name = f"{prefix}{decl.index}"
                bind(decl.index, self.alloc_2d(
                    width, height, decl.dtype, decl.space, name
                ))

    # ---- execution ---------------------------------------------------------
    def run(
        self,
        module: Module,
        domain: tuple[int, int] = (1024, 1024),
        block: tuple[int, int] = (64, 1),
        iterations: int = PAPER_ITERATIONS,
        execute: bool = False,
    ) -> Event:
        """Run a module over a domain; returns the completion Event.

        With ``execute=True`` the kernel is also evaluated numerically and
        its outputs written into the bound output resources.
        """
        launch = LaunchConfig(
            domain=domain,
            mode=module.kernel.mode,
            block=block if module.kernel.mode is ShaderMode.COMPUTE else (64, 1),
            iterations=iterations,
        )
        return launch_module(
            self.device, module, launch, self.sim, execute=execute
        )
