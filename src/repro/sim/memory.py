"""Off-chip memory path costs: texture fill, global read/write, burst export.

All figures are per SIMD engine in core cycles.  The chip-wide DRAM
bandwidth is divided evenly across SIMD engines — with every SIMD running
the same kernel (true for all the paper's launches) this is exact in the
steady state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GPUSpec
from repro.il.types import DataType
from repro.sim.config import SimConfig


@dataclass(frozen=True)
class MemoryPaths:
    """Per-SIMD effective bandwidths (bytes per core cycle) and latencies."""

    texture_fill_bpc: float
    global_read_bpc: float
    global_write_bpc: float
    global_latency: float
    export_latency: float

    @classmethod
    def for_gpu(cls, gpu: GPUSpec) -> "MemoryPaths":
        """The chip's paths, memoized on the frozen spec."""
        paths = gpu.__dict__.get("_memory_paths")
        if paths is None:
            bpc, mem = gpu.per_simd_bytes_per_cycle, gpu.memory
            paths = cls(
                texture_fill_bpc=bpc(
                    mem.path_bandwidth(mem.texture_fill_efficiency)
                ),
                global_read_bpc=bpc(
                    mem.path_bandwidth(mem.global_read_efficiency)
                ),
                global_write_bpc=bpc(
                    mem.path_bandwidth(mem.global_write_efficiency)
                ),
                global_latency=float(mem.global_latency_cycles),
                export_latency=float(gpu.export_latency_cycles),
            )
            object.__setattr__(gpu, "_memory_paths", paths)
        return paths


def concurrency_utilization(resident_wavefronts: int, sim: SimConfig) -> float:
    """Little's-law bandwidth utilization for a resident-wavefront count.

    The memory pipeline is hundreds of cycles deep; with only a few
    wavefronts supplying outstanding requests its achievable bandwidth is
    a fraction ``R / (R + half)`` of peak.  This is what makes register
    pressure hurt even bandwidth-bound kernels (Figure 16).
    """
    half = sim.little_r_half
    if half <= 0:
        return 1.0
    return resident_wavefronts / (resident_wavefronts + half)


def global_read_cost(
    gpu: GPUSpec,
    dtype: DataType,
    paths: MemoryPaths,
    resident_wavefronts: int,
    sim: SimConfig,
) -> float:
    """Occupancy cycles of one uncached global read per wavefront.

    Global reads bypass the texture cache and do not coalesce: every
    thread's read occupies a full memory transaction (128 bits) no matter
    how narrow the element.  This is why the paper finds global-read time
    "approximately the same whether vectorized (float4) or non-vectorized
    (float)" — and why "vectorization is an obvious optimization" there
    (§IV-B): a float4 read moves four times the payload for the same cost.
    The RV670's weak uncached path makes the whole thing dominate
    (Figures 9 and 12).
    """
    transaction = max(dtype.bytes, gpu.memory_transaction_bytes)
    bpc = paths.global_read_bpc * concurrency_utilization(
        resident_wavefronts, sim
    )
    data = gpu.wavefront_size * transaction / bpc
    return max(float(gpu.cycles_per_fetch_issue), data)


def global_write_cost(
    gpu: GPUSpec,
    dtype: DataType,
    paths: MemoryPaths,
    resident_wavefronts: int,
    sim: SimConfig,
) -> float:
    """Occupancy cycles of one global write per wavefront.

    Uncached writes stream at per-float bandwidth: float4 stores move four
    times the data of float stores — the paper's Figure 14 observes the
    1:4 execution-time ratio directly.
    """
    bpc = paths.global_write_bpc * concurrency_utilization(
        resident_wavefronts, sim
    )
    return gpu.wavefront_size * dtype.bytes / bpc


def burst_export_cost(
    gpu: GPUSpec,
    dtype: DataType,
    paths: MemoryPaths,
    resident_wavefronts: int,
    sim: SimConfig,
) -> float:
    """Occupancy cycles of one color-buffer (streaming) store per wavefront.

    Consecutive-address exports burst-combine, so the color-buffer path is
    bandwidth-bound per byte: a float4 store costs four floats' worth —
    "vectorization of the output yields the same or better performance"
    (Figure 13) because equal data moves in equal time.  The path is less
    efficient than raw global stores (Figure 13's slopes exceed Figure
    14's).  With ``burst_exports`` ablated, combining is lost and every
    thread pays a full memory transaction like an uncoalesced read.
    """
    bpc = (
        paths.global_write_bpc
        * gpu.export_efficiency
        * concurrency_utilization(resident_wavefronts, sim)
    )
    if not sim.burst_exports:
        transaction = max(dtype.bytes, gpu.memory_transaction_bytes)
        return gpu.wavefront_size * transaction / bpc
    data = gpu.wavefront_size * dtype.bytes / bpc
    return max(float(gpu.burst_export_cycles), data)
