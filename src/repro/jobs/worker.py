"""Unit execution: the one function both inline and pooled paths share.

:func:`simulate_unit` is the whole measurement — compile under the
unit's verification mode, simulate the launch, and reduce the event with
:func:`launch_record` to the small JSON-safe record the cache/ledger
stores.  A figure's inline path (``MicroBenchmark.run`` without an
engine) times its launches itself and reduces them with the same
:func:`launch_record`, so one function defines a record.  The pool runs
:func:`run_payloads` on one batch of payload dicts (:func:`unit_payload`
makes them); it hands each to :func:`run_payload`, which rebuilds the
unit and simulates it.

The simulator is deterministic, so the record is bit-identical whether
the unit runs inline, in a worker process, or is replayed from cache —
the property the determinism-guard test pins.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.cal.device import Device
from repro.cal.kernel_launch import Event
from repro.cal.timing import time_kernel
from repro.jobs.units import WorkUnit
from repro.sim.config import SimConfig

if TYPE_CHECKING:
    from repro.compiler.cache import ProgramStore


def simulate_unit(unit: WorkUnit, device: Device | None = None) -> dict:
    """Run one unit and return its record (see ``units.record_point``)."""
    from repro.verify import verification

    dev = device if device is not None else Device(unit.gpu)
    with verification(unit.verify):
        event = time_kernel(
            dev,
            unit.kernel,
            domain=unit.domain,
            block=unit.block,
            iterations=unit.iterations,
            sim=unit.sim,
        )
    return launch_record(event)


def launch_record(event: Event) -> dict:
    """Reduce one timed launch to its record (see ``units.record_point``)."""
    return {
        "seconds": event.seconds,
        "gprs": event.result.program.gpr_count,
        "resident_wavefronts": event.counters.resident_wavefronts,
        "bound": event.bottleneck.value,
    }


#: the worker's on-disk program store, opened by :func:`initialize_worker`.
_store: "ProgramStore | None" = None


def initialize_worker(program_root: str | None = None) -> None:
    """Pool-worker startup: open the shared on-disk program store.

    With a ``program_root`` the workers share compiled programs with
    each other — and with past runs — through the store; without one,
    each batch compiles its programs afresh.
    """
    from repro.compiler.cache import ProgramStore

    global _store
    _store = ProgramStore(program_root) if program_root else None


def run_payloads(payloads: list[dict]) -> list[dict]:
    """Pool entry point: one batch of payloads in, their records out.

    The batch runs under its own compile cache, so a program shared by
    its units compiles (or loads from the store) once, and the memory it
    holds is released when the batch ends.
    """
    from repro.compiler.cache import CompileCache, compile_cache_scope

    with compile_cache_scope(CompileCache(_store)):
        return [run_payload(payload) for payload in payloads]


def unit_payload(unit: WorkUnit) -> dict:
    """The picklable shape shipped to a worker process.

    ``SimConfig.clause_stream`` is session wiring (callbacks into the
    parent's tracer) and cannot cross a process boundary; the scheduler
    refuses to parallelize units that carry one, so stripping it here is
    safe for the payloads that do get shipped.
    """
    sim = unit.sim
    if sim.clause_stream is not None:
        sim = dataclasses.replace(sim, clause_stream=None)
    return {
        "figure": unit.figure,
        "series": unit.series,
        "value": unit.value,
        "kernel": unit.kernel,
        "gpu": unit.gpu,
        "domain": unit.domain,
        "block": unit.block,
        "iterations": unit.iterations,
        "sim": sim,
        "verify": unit.verify,
    }


def run_payload(payload: dict) -> dict:
    """One unit in a worker: payload dict in, record dict out."""
    unit = WorkUnit(
        figure=payload["figure"],
        series=payload["series"],
        value=payload["value"],
        kernel=payload["kernel"],
        gpu=payload["gpu"],
        domain=tuple(payload["domain"]),
        block=tuple(payload["block"]),
        iterations=payload["iterations"],
        sim=payload["sim"] if payload["sim"] is not None else SimConfig(),
        verify=payload["verify"],
    )
    return simulate_unit(unit)
