"""Shared fixtures.

``suite_results`` runs the full figure suite once per session (fast
sweeps, real domains) and is shared by the shape-acceptance tests; the
unit tests use small domains and single iterations to stay quick.
"""

from __future__ import annotations

import pytest

from repro.arch import RV670, RV770, RV870, all_gpus
from repro.kernels import KernelParams, generate_generic
from repro.compiler import compile_kernel
from repro.sim import LaunchConfig, SimConfig
from repro.suite import run_suite


@pytest.fixture(scope="session")
def gpus():
    return all_gpus()


@pytest.fixture(scope="session")
def rv670():
    return RV670


@pytest.fixture(scope="session")
def rv770():
    return RV770


@pytest.fixture(scope="session")
def rv870():
    return RV870


@pytest.fixture()
def small_launch():
    """A quick launch: small domain, one iteration."""
    return LaunchConfig(domain=(128, 128), iterations=1)


@pytest.fixture()
def default_sim():
    return SimConfig()


@pytest.fixture()
def simple_kernel():
    """A small generic pixel-mode kernel (4 inputs, ratio 1.0)."""
    return generate_generic(KernelParams(inputs=4, alu_fetch_ratio=1.0))


@pytest.fixture()
def simple_program(simple_kernel):
    return compile_kernel(simple_kernel)


@pytest.fixture(scope="session")
def suite_results():
    """The full figure suite, fast sweeps, shared across shape tests."""
    return run_suite(fast=True)
