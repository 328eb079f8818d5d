"""Tests for the CAL-like host runtime."""

import numpy as np
import pytest

from repro.arch import RV670, RV770
from repro.cal import (
    BindingError,
    Device,
    OutOfMemoryError,
    UnsupportedError,
    open_device,
    time_kernel,
)
from repro.il import DataType, MemorySpace, ShaderMode
from repro.kernels import KernelParams, generate_generic


class TestDevice:
    def test_open_by_name(self):
        assert open_device("4870").spec is RV770

    def test_open_by_spec(self):
        assert open_device(RV770).spec is RV770

    def test_board_memory(self):
        assert open_device("4870").board_memory_bytes == 512 * 1024 * 1024
        assert open_device("5870").board_memory_bytes == 1024 * 1024 * 1024

    def test_mode_support(self):
        assert not Device(RV670).supports(ShaderMode.COMPUTE)
        assert Device(RV670).supports(ShaderMode.PIXEL)
        assert Device(RV770).supports(ShaderMode.COMPUTE)

    def test_info_text(self):
        info = Device(RV770).info()
        assert "800 AL" in info
        assert "RV770" in info


class TestContextAllocation:
    def test_allocation_accounting(self):
        ctx = Device(RV770).create_context()
        resource = ctx.alloc_2d(1024, 1024, DataType.FLOAT4)
        assert ctx.allocated_bytes == 16 * 1024 * 1024
        ctx.free(resource)
        assert ctx.allocated_bytes == 0
        assert resource.freed

    def test_out_of_memory(self):
        ctx = Device(RV770).create_context()
        for _ in range(32):  # 32 x 16 MiB = 512 MiB
            ctx.alloc_2d(1024, 1024, DataType.FLOAT4)
        with pytest.raises(OutOfMemoryError):
            ctx.alloc_2d(1024, 1024, DataType.FLOAT4)

    def test_freed_resource_unusable(self):
        ctx = Device(RV770).create_context()
        resource = ctx.alloc_2d(4, 4, DataType.FLOAT)
        ctx.free(resource)
        with pytest.raises(ValueError, match="freed"):
            resource.data

    def test_double_free_rejected(self):
        ctx = Device(RV770).create_context()
        resource = ctx.alloc_2d(4, 4, DataType.FLOAT)
        ctx.free(resource)
        with pytest.raises(ValueError, match="belong"):
            ctx.free(resource)

    def test_free_one_of_two_equal_resources_holding_data(self):
        # Equal extents and contents, but two allocations: freeing one
        # must not compare their arrays.
        ctx = Device(RV770).create_context()
        c = ctx.alloc_2d(4, 4, DataType.FLOAT)
        d = ctx.alloc_2d(4, 4, DataType.FLOAT)
        c.upload(np.ones((4, 4)))
        d.upload(np.ones((4, 4)))
        ctx.free(d)
        assert d.freed and not c.freed
        assert ctx.allocated_bytes == c.nbytes

    def test_double_free_of_a_lookalike_rejected(self):
        # Freeing d twice must not free its same-shape twin c instead,
        # which would undercount the memory c still holds.
        ctx = Device(RV770).create_context()
        c = ctx.alloc_2d(4, 4, DataType.FLOAT)
        d = ctx.alloc_2d(4, 4, DataType.FLOAT)
        ctx.free(d)
        with pytest.raises(ValueError, match="belong"):
            ctx.free(d)
        assert ctx.allocated_bytes == c.nbytes == 64
        ctx.free(c)
        assert ctx.allocated_bytes == 0

    def test_upload_download_roundtrip(self):
        ctx = Device(RV770).create_context()
        resource = ctx.alloc_2d(8, 8, DataType.FLOAT)
        data = np.arange(64, dtype=np.float32).reshape(8, 8)
        resource.upload(data)
        assert np.array_equal(resource.download()[:, :, 0], data)

    def test_upload_shape_checked(self):
        ctx = Device(RV770).create_context()
        resource = ctx.alloc_2d(8, 8, DataType.FLOAT)
        with pytest.raises(ValueError, match="shape"):
            resource.upload(np.zeros((4, 4)))


class TestModuleBinding:
    def _module(self, ctx, params=None):
        kernel = generate_generic(params or KernelParams(inputs=2, alu_ops=2))
        return ctx.load_module(kernel)

    def test_load_rejects_unsupported_mode(self):
        ctx = Device(RV670).create_context()
        kernel = generate_generic(KernelParams(mode=ShaderMode.COMPUTE))
        with pytest.raises(UnsupportedError):
            ctx.load_module(kernel)

    def test_bind_unknown_index(self):
        ctx = Device(RV770).create_context()
        module = self._module(ctx)
        resource = ctx.alloc_2d(16, 16, DataType.FLOAT)
        with pytest.raises(BindingError, match="no input 7"):
            module.bind_input(7, resource)

    def test_bind_wrong_space(self):
        ctx = Device(RV770).create_context()
        module = self._module(ctx)
        resource = ctx.alloc_2d(16, 16, DataType.FLOAT, MemorySpace.GLOBAL)
        with pytest.raises(BindingError, match="texture"):
            module.bind_input(0, resource)

    def test_bind_wrong_dtype(self):
        ctx = Device(RV770).create_context()
        module = self._module(ctx)
        resource = ctx.alloc_2d(16, 16, DataType.FLOAT4)
        with pytest.raises(BindingError, match="float"):
            module.bind_input(0, resource)

    def test_unbound_launch_rejected(self):
        ctx = Device(RV770).create_context()
        module = self._module(ctx)
        with pytest.raises(BindingError, match="not bound"):
            ctx.run(module, domain=(16, 16))

    def test_domain_larger_than_resource_rejected(self):
        ctx = Device(RV770).create_context()
        module = self._module(ctx)
        ctx.bind_streams(module, (16, 16))
        with pytest.raises(BindingError, match="smaller than domain"):
            ctx.run(module, domain=(32, 32))

    def test_constant_binding(self):
        ctx = Device(RV770).create_context()
        kernel = generate_generic(KernelParams(inputs=2, alu_ops=4, constants=1))
        module = ctx.load_module(kernel)
        module.set_constant(0, 2.5)
        with pytest.raises(BindingError, match="no constant 3"):
            module.set_constant(3, 1.0)


class TestExecution:
    def test_event_timing_fields(self):
        ctx = Device(RV770).create_context()
        module = ctx.load_module(
            generate_generic(KernelParams(inputs=2, alu_ops=2))
        )
        ctx.bind_streams(module, (128, 128))
        event = ctx.run(module, domain=(128, 128), iterations=100)
        assert event.seconds > 0
        assert event.seconds_per_iteration == pytest.approx(
            event.seconds / 100
        )
        assert event.bottleneck is not None

    def test_functional_execution_fills_outputs(self):
        ctx = Device(RV770).create_context()
        module = ctx.load_module(
            generate_generic(KernelParams(inputs=2, alu_ops=1))
        )
        ctx.bind_streams(module, (8, 8))
        module.inputs[0].upload(np.full((8, 8), 2.0, np.float32))
        module.inputs[1].upload(np.full((8, 8), 3.0, np.float32))
        ctx.run(module, domain=(8, 8), iterations=1, execute=True)
        assert np.allclose(module.outputs[0].download(), 5.0)

    def test_time_kernel_convenience(self):
        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        event = time_kernel("4870", kernel, domain=(256, 256), iterations=10)
        assert event.seconds > 0

    def test_time_kernel_matches_context_run(self):
        kernel = generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))
        via_helper = time_kernel(RV770, kernel, domain=(256, 256))
        ctx = Device(RV770).create_context()
        module = ctx.load_module(kernel)
        ctx.bind_streams(module, (256, 256))
        via_context = ctx.run(module, domain=(256, 256))
        assert via_helper.seconds == pytest.approx(via_context.seconds)
