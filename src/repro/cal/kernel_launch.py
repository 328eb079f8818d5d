"""Kernel launch: validation, timing simulation, optional numeric execution."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cal.device import Device
from repro.cal.errors import UnsupportedError
from repro.cal.module import Module
from repro.sim.config import LaunchConfig, SimConfig
from repro.sim.engine import LaunchResult, SimulationError, simulate_launch
from repro.sim.functional import execute_kernel


@dataclass(frozen=True)
class Event:
    """Completion record of a kernel launch (CAL's calCtxIsEventDone peer).

    ``seconds`` is the simulated kernel time over all iterations — kernel
    invocation and execution only, no off-board transfers (§III).
    """

    result: LaunchResult

    @property
    def seconds(self) -> float:
        return self.result.seconds

    @property
    def seconds_per_iteration(self) -> float:
        return self.result.seconds_per_iteration

    @property
    def counters(self):
        return self.result.counters

    @property
    def bottleneck(self):
        return self.result.bottleneck


def launch_module(
    device: Device,
    module: Module,
    launch: LaunchConfig,
    sim: SimConfig,
    execute: bool = False,
) -> Event:
    """Validate bindings, simulate the launch, optionally execute numerics."""
    module.validate_bindings(launch.domain)

    try:
        result = simulate_launch(module.program, device.spec, launch, sim)
    except SimulationError as exc:
        raise UnsupportedError(str(exc)) from exc

    if execute:
        width, height = launch.domain
        inputs = {
            index: resource.data[:height, :width]
            for index, resource in module.inputs.items()
        }
        outputs = execute_kernel(
            module.kernel, inputs, launch.domain, module.constants
        )
        for index, values in outputs.items():
            module.outputs[index].data[:height, :width] = values

    return Event(result=result)
