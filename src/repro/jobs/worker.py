"""Unit execution: the one function both inline and pooled paths share.

:func:`run_payload` is the whole measurement — compile (every compile
verifies), simulate the launch, and reduce the event with
:func:`~repro.jobs.units.launch_record` to the small JSON-safe record
the cache/ledger stores.  The engine calls it once per unit inline, or the pool calls it
through :func:`run_payloads`, one batch of units at a time.  A
:class:`~repro.jobs.units.WorkUnit` is a plain picklable value, so the
pool ships the units themselves, each with its kernel recipe; kernels
are built before the units run, never inside a measurement.

The simulator is deterministic, so the record is bit-identical whether
the unit runs inline, in a worker process, or is replayed from cache —
the property the determinism-guard test pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cal.device import Device
from repro.cal.timing import time_kernel
from repro.jobs.units import WorkUnit, build_kernels, launch_record

if TYPE_CHECKING:
    from repro.compiler.cache import ProgramStore


def run_payload(unit: WorkUnit) -> dict:
    """Run one unit and return a fresh record (see ``units.record_point``)."""
    event = time_kernel(
        Device(unit.gpu),
        unit.kernel,
        domain=unit.domain,
        block=unit.block,
        iterations=unit.iterations,
        sim=unit.sim,
    )
    return launch_record(event)


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


def run_payloads(units: list[WorkUnit]) -> list[dict]:
    """Pool entry point: one batch of units in, their records out.

    The batch builds its kernels and runs under its own compile cache,
    so a kernel shared by its units is built and compiled (or loaded)
    once, and the memory both hold is released when the batch ends.
    """
    from repro.compiler.cache import CompileCache, compile_cache_scope

    build_kernels(units)
    with compile_cache_scope(CompileCache(_store)):
        return [run_payload(unit) for unit in units]
