"""Work units: the content-addressed quantum of suite execution.

Every measurement the suite makes — one kernel, one chip, one launch
configuration, run for the paper's iterations — is an independent
compile+simulate unit.  :class:`WorkUnit` captures exactly that, and
:func:`cache_key` derives a stable content address from everything the
simulated seconds depend on:

* the ``repr`` of the kernel's :class:`~repro.kernels.KernelRecipe`
  (the salt covers the generators, so it fixes the IL text),
* the GPU spec (chip name plus a fingerprint of its parameters),
* the launch shape: domain, block, iterations,
* the :class:`~repro.sim.config.SimConfig` model parameters (via
  :func:`repro.telemetry.config_hash`),
* :data:`CODE_SALT` — a hash of the source files that can move a
  number or a verdict, so any change to them invalidates every cached
  entry.

Two units with equal keys produce bit-identical records, so the cache and
the scheduler can treat the key as the unit's identity: duplicate keys
inside one run (the same kernel/launch appearing in several figures) are
simulated once.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from repro import telemetry
from repro.arch.specs import GPUSpec
from repro.il.module import ILKernel
from repro.il.text import cached_il_text
from repro.kernels.params import KernelRecipe
from repro.sim.config import SimConfig
from repro.telemetry import config_hash

if TYPE_CHECKING:
    from repro.cal.kernel_launch import Event

#: the ``repro`` subpackages whose code can move a measured number or a
#: verification verdict; with this module, which turns a launch into its
#: record, they make up the salt.
SALTED_PACKAGES = (
    "arch", "il", "kernels", "compiler", "isa", "sim", "cal", "suite", "verify",
)


def code_salt(root: Path) -> str:
    """Hash the relative path and bytes of every salted source file.

    ``root`` is the ``repro`` package directory.  Any edit to a salted
    file, a comment included, gives a new salt.
    """
    files = sorted(
        path
        for package in SALTED_PACKAGES
        for path in (root / package).rglob("*.py")
    )
    files.append(root / "jobs" / "units.py")
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


#: The salt of the record log and the program store:
#: entries recorded under another salt are unreachable, never wrong, and
#: ``repro cache gc`` reaps them (docs/jobs.md).
CODE_SALT = code_salt(Path(__file__).resolve().parent.parent)


@dataclass(frozen=True)
class WorkUnit:
    """One compile+simulate measurement, self-contained and hashable.

    ``figure``/``series``/``value`` locate the unit in its sweep for
    reassembly and telemetry; everything else determines the measured
    seconds.

    A unit is a plain value: the engine dedupes and caches it by
    :attr:`key` and ships it to a pool worker as itself (pickled, with
    the cached key riding along and the built kernel left behind).
    """

    figure: str
    series: str
    value: float
    recipe: KernelRecipe = field(compare=False)
    gpu: GPUSpec = field(compare=False)
    domain: tuple[int, int]
    block: tuple[int, int]
    iterations: int
    sim: SimConfig = field(compare=False)

    @cached_property
    def kernel(self) -> ILKernel:
        """The built kernel; the engine fills it in before running the
        unit (:func:`build_kernels`)."""
        return self.recipe.build()

    @cached_property
    def key(self) -> str:
        return cache_key(self)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("kernel", None)
        return state


def build_kernels(units: Iterable[WorkUnit]) -> None:
    """Build each distinct recipe of ``units`` once, render its IL text,
    and hand the kernel to every unit that names it (for as long as the
    units live: one engine run inline, one batch in a pool worker), in
    one ``kernels`` span whose ``recipes`` counts the recipes built."""
    built: dict[KernelRecipe, ILKernel] = {}
    with telemetry.span("kernels") as span:
        for unit in units:
            kernel = built.get(unit.recipe)
            if kernel is None:
                kernel = built[unit.recipe] = unit.recipe.build()
                cached_il_text(kernel)
            unit.__dict__["kernel"] = kernel  # fills the cached property
        if span:
            span.set(recipes=len(built))


def gpu_fingerprint(gpu: GPUSpec) -> str:
    """Hash of the full spec ``repr`` — any parameter change moves it."""
    return hashlib.sha256(repr(gpu).encode()).hexdigest()[:12]


def cache_key(unit: WorkUnit) -> str:
    """The unit's content address (hex, 40 chars).

    Everything that can change the simulated seconds participates; the
    figure/series labels do not, so identical launches shared between
    figures collapse onto one entry.
    """
    material = {
        "version": CODE_SALT,
        "recipe": repr(unit.recipe),
        "gpu": unit.gpu.chip,
        "gpu_fingerprint": gpu_fingerprint(unit.gpu),
        "sim": config_hash(unit.sim),
        "domain": list(unit.domain),
        "block": list(unit.block),
        "iterations": unit.iterations,
    }
    digest = hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()
    ).hexdigest()
    return digest[:40]


def launch_record(event: "Event") -> dict:
    """Reduce one timed launch to its record (see :func:`record_point`)."""
    return {
        "seconds": event.seconds,
        "gprs": event.result.program.gpr_count,
        "resident_wavefronts": event.counters.resident_wavefronts,
        "bound": event.bottleneck.value,
    }


def record_point(record: dict) -> dict:
    """Validate and normalize a unit record (the cached value).

    A record is the minimal payload a :class:`repro.suite.results
    .SeriesPoint` needs beyond the sweep value itself.  JSON round-trips
    floats exactly (shortest-repr), so reassembled points are bit-equal
    to freshly simulated ones.
    """
    return {
        "seconds": float(record["seconds"]),
        "gprs": int(record["gprs"]),
        "resident_wavefronts": int(record["resident_wavefronts"]),
        "bound": str(record["bound"]),
    }
