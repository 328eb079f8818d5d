"""Work units: the content-addressed quantum of suite execution.

Every measurement the suite makes — one kernel, one chip, one launch
configuration, run for the paper's iterations — is an independent
compile+simulate unit.  :class:`WorkUnit` captures exactly that, and
:func:`cache_key` derives a stable content address from everything the
simulated seconds depend on:

* the canonical IL text of the kernel (what the compiler sees),
* the GPU spec (chip name plus a fingerprint of its parameters),
* the launch shape: domain, block, iterations,
* the :class:`~repro.sim.config.SimConfig` model parameters (via
  :func:`repro.telemetry.config_hash`),
* :data:`CODE_VERSION` — a manually bumped salt that invalidates every
  cached entry when the compiler or simulator changes behavior.

Two units with equal keys produce bit-identical records, so the cache and
the scheduler can treat the key as the unit's identity: duplicate keys
inside one run (the same kernel/launch appearing in several figures) are
simulated once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

from repro.arch.specs import GPUSpec
from repro.il.module import ILKernel
from repro.il.text import cached_il_text
from repro.sim.config import SimConfig
from repro.telemetry import config_hash

#: Bump whenever a compiler or simulator change can move any measured
#: number: stale cache entries keyed under the old salt become unreachable
#: and ``repro cache gc`` reaps them (docs/jobs.md has the policy).
CODE_VERSION = 1


@dataclass(frozen=True)
class WorkUnit:
    """One compile+simulate measurement, self-contained and hashable.

    ``figure``/``series``/``value`` locate the unit in its sweep for
    reassembly and telemetry; everything else determines the measured
    seconds.  ``verify`` is resolved by the planner (not inherited from
    ambient state) so worker processes reproduce the caller's
    verification mode exactly.

    A unit is a plain value: the engine dedupes and caches it by
    :attr:`key` and ships it to a pool worker as itself (pickled, with
    the cached key and IL text riding along).
    """

    figure: str
    series: str
    value: float
    kernel: ILKernel = field(compare=False)
    gpu: GPUSpec = field(compare=False)
    domain: tuple[int, int]
    block: tuple[int, int]
    iterations: int
    sim: SimConfig = field(compare=False)
    verify: bool = True

    @cached_property
    def il_text(self) -> str:
        """The canonical IL — the compiler-facing identity of the kernel."""
        return cached_il_text(self.kernel)

    @cached_property
    def key(self) -> str:
        return cache_key(self)


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
        "version": CODE_VERSION,
        "il": hashlib.sha256(unit.il_text.encode()).hexdigest(),
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


def record_point(record: dict) -> dict:
    """Validate and normalize a unit record (the cached/ledgered value).

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
