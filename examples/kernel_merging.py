#!/usr/bin/env python3
"""Kernel merging and parameter tuning — the paper's §V directions.

"...open the possibility for optimization at the kernel code level, the
kernel level and the application level, for instance, code optimizations,
kernel merging and application merging to increase overall performance."

This example merges an ALU-bound kernel with a fetch-bound kernel and
measures the combined speedup, then runs the tuners: block size (which
2-D decomposition suits each chip), register pressure (the Figure 16
sweet spot) and the dynamic ALU:Fetch balance point.  Each search is a
list of kernel-recipe work units run through the jobs engine.

Run:  python examples/kernel_merging.py
"""

from repro import DataType, KernelParams, ShaderMode, generate_generic
from repro.kernels import KernelRecipe
from repro.analysis import (
    balance_alu_fetch,
    tune_block_size,
    tune_register_pressure,
)
from repro.apps import predict_merge
from repro.arch import RV770, RV870, all_gpus


def merging_demo() -> None:
    print("=== kernel merging: ALU-bound + fetch-bound ===")
    alu_bound = generate_generic(
        KernelParams(inputs=4, alu_fetch_ratio=10.0), name="binomial_like"
    )
    fetch_bound = generate_generic(
        KernelParams(inputs=16, alu_fetch_ratio=0.25), name="matmul_like"
    )
    for gpu in all_gpus():
        report = predict_merge(alu_bound, fetch_bound, gpu)
        print(f"  {gpu.card:<18} {report.summary()}")
    print()
    print("Each kernel runs in the shadow of the other's bottleneck, so")
    print("the merged kernel approaches max() of the two instead of sum().")
    print()


def block_tuning_demo() -> None:
    print("=== block-size tuning (compute mode, fetch-heavy float4) ===")
    recipe = KernelRecipe(
        "generic",
        KernelParams(
            inputs=16,
            alu_fetch_ratio=0.5,
            dtype=DataType.FLOAT4,
            mode=ShaderMode.COMPUTE,
        ),
    )
    for gpu in (RV770, RV870):
        result = tune_block_size(recipe, gpu)
        print(f"  {gpu.chip}: {result.summary()}")
        for trial in result.trials:
            print(
                f"      block {trial.setting!s:<9} {trial.seconds:7.2f} s  "
                f"{trial.bound.value}"
            )
    print()


def register_tuning_demo() -> None:
    print("=== register-pressure sweet spot (Figure 16's knob) ===")
    params = KernelParams(inputs=64, space=8, alu_fetch_ratio=1.0)
    for gpu in (RV770, RV870):
        result = tune_register_pressure(gpu, params)
        step, gprs = result.best.setting
        print(
            f"  {gpu.chip}: sample in groups of 8 at step {step} "
            f"-> {gprs} GPRs, {result.best.seconds:.2f} s "
            f"({result.improvement:.2f}x over worst)"
        )
    print()


def balance_demo() -> None:
    print("=== dynamic ALU:Fetch balance points (vs SKA's static 0.98-1.09) ===")
    for gpu in (RV770, RV870):
        for dtype in (DataType.FLOAT, DataType.FLOAT4):
            balance = balance_alu_fetch(
                gpu, KernelParams(inputs=16, dtype=dtype)
            )
            print(f"  {gpu.chip} {dtype.value:<7}: ALU-bound from ratio ~{balance:.2f}")
    print()
    print("The balance point depends on chip and data type — there is no")
    print("single good static ratio, which is the paper's core argument.")


def main() -> None:
    merging_demo()
    block_tuning_demo()
    register_tuning_demo()
    balance_demo()


if __name__ == "__main__":
    main()
