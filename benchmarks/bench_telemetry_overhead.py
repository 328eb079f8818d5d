"""Guard: disabled telemetry must stay inside a <2% overhead budget.

The observability layer promises to be free when off.  Two checks enforce
it on the simulator's launch path, the stage every figure point runs:

* ``simulate_launch`` as it ships (one disabled ``span()`` per launch)
  vs. the same call with ``repro.sim.engine.telemetry`` swapped for a
  stub whose ``span()`` returns a shared ``nullcontext()`` — the same
  work minus the disabled-telemetry check, so the difference is the cost
  of telemetry being off and nothing else;
* the raw per-call cost of a disabled ``span()``, bounded in absolute
  terms so a regression is caught even if the workload grows.

Minimum-of-repeats timing is used: the minimum of many runs of a pure
CPU-bound function is stable where means are noisy.
"""

import time
from contextlib import nullcontext

import repro.sim.engine as sim_engine
from repro import telemetry
from repro.arch import RV770
from repro.compiler import compile_kernel
from repro.kernels import KernelParams, generate_generic
from repro.sim.config import LaunchConfig

#: the contract from docs/telemetry.md: disabled telemetry adds <2%.
OVERHEAD_BUDGET = 0.02

PROGRAM = compile_kernel(
    generate_generic(KernelParams(inputs=8, alu_fetch_ratio=2.0)), RV770
)
LAUNCH = LaunchConfig(domain=(256, 256))


class _NoTelemetry:
    """Stands in for ``repro.telemetry`` inside ``repro.sim.engine``."""

    _null = nullcontext()

    @staticmethod
    def span(*_args, **_kwargs):
        return _NoTelemetry._null


def _launch() -> None:
    sim_engine.simulate_launch(PROGRAM, RV770, LAUNCH)


def _min_seconds(fn, repeats: int = 30) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _interleaved_minimums(repeats: int = 100) -> tuple[float, float]:
    """Min-of-N for a launch with and without the telemetry module,
    samples interleaved so clock-frequency drift hits both equally.  The
    swap happens outside the timed region."""
    shipped = stubbed = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _launch()
        shipped = min(shipped, time.perf_counter() - t0)
        sim_engine.telemetry = _NoTelemetry
        try:
            t0 = time.perf_counter()
            _launch()
            stubbed = min(stubbed, time.perf_counter() - t0)
        finally:
            sim_engine.telemetry = telemetry
    return shipped, stubbed


def test_disabled_overhead_on_simulate_launch():
    """simulate_launch as shipped vs. with telemetry stubbed out, off."""
    assert not telemetry.enabled()
    # Warm both paths (imports, allocator) before timing.
    for _ in range(5):
        _launch()
    shipped, stubbed = _interleaved_minimums()

    overhead = shipped / stubbed - 1.0
    print(
        f"\nsimulate_launch: stubbed {stubbed * 1e3:.3f}ms, shipped "
        f"{shipped * 1e3:.3f}ms, overhead {overhead:+.2%} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )
    assert overhead < OVERHEAD_BUDGET


def test_disabled_span_call_cost_is_submicrosecond():
    """A disabled span() must stay a constant-time no-op."""
    assert not telemetry.enabled()

    def burst(n: int = 1000) -> None:
        for _ in range(n):
            with telemetry.span("noop", key="value"):
                pass

    burst()  # warm
    per_call = _min_seconds(burst, repeats=50) / 1000
    print(f"\ndisabled span(): {per_call * 1e9:.0f}ns/call")
    assert per_call < 5e-6  # generous: budget is ~1us on slow machines


def test_enabled_recording_collects_without_poisoning_state():
    """After a recording block, the disabled fast path is restored."""
    with telemetry.recording() as tracer:
        _launch()
        assert [s.name for s in tracer.finished()] == ["simulate"]
    assert not telemetry.enabled()
