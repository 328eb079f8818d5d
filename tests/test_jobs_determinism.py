"""Determinism guard: serial, parallel, and cached runs are one run.

The acceptance bar for the execution engine — ``fig7 --fast`` must
produce *exactly* the same ResultSet (and figure JSON) whether its
launches run inline, in a 4-worker process pool, or replay from a warm
result cache.  Any drift here means the cache key is missing an input or
the reassembly changed the shapes, so the comparison is equality on the
serialized JSON, not approx.
"""

from __future__ import annotations

import pytest

from repro.arch import RV770
from repro.jobs import JobEngine, JobOptions
from repro.suite import run_benchmark


@pytest.fixture(scope="module")
def serial_fig7():
    return run_benchmark("fig7", fast=True)


class TestFigureDeterminism:
    def test_jobs4_and_warm_cache_match_serial(self, serial_fig7, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("jobs-cache")

        cold_engine = JobEngine(JobOptions(jobs=4, cache_dir=cache_dir))
        pooled = run_benchmark("fig7", fast=True, engine=cold_engine)
        cold_engine.close()
        assert cold_engine.simulated > 0  # really went through the pool

        warm_engine = JobEngine(JobOptions(jobs=4, cache_dir=cache_dir))
        cached = run_benchmark("fig7", fast=True, engine=warm_engine)
        warm_engine.close()
        assert warm_engine.simulated == 0  # fully served from cache
        assert warm_engine.cache.hits > 0

        serial_json = serial_fig7.to_json()
        assert pooled.to_json() == serial_json
        assert cached.to_json() == serial_json

    # One figure per benchmark class; fig16 plots the measured GPR count
    # through ``x_of``.  fig7 compares all three chips (the module
    # fixture); the others run on one chip to keep the test cheap.
    @pytest.mark.parametrize(
        "figure", ["fig7", "fig11", "fig13", "fig15a", "fig16"]
    )
    def test_inline_and_engine_paths_agree(self, figure, serial_fig7):
        gpus = None if figure == "fig7" else (RV770,)
        inline = (
            serial_fig7
            if figure == "fig7"
            else run_benchmark(figure, gpus=gpus, fast=True)
        )
        engine = JobEngine(JobOptions(jobs=0))
        result = run_benchmark(figure, gpus=gpus, fast=True, engine=engine)
        engine.close()
        assert engine.simulated > 0
        assert result.to_json() == inline.to_json()
