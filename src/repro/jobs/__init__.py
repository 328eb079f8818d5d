"""Parallel, content-addressed, resumable execution for the suite.

The suite is embarrassingly parallel: 13 figures x ~10 series x dozens
of sweep points, every point an independent compile+simulate unit.  This
package turns a planned sweep into :class:`WorkUnit` values keyed by a
content address (canonical IL text + GPU spec + launch shape + SimConfig
+ code salt), replays any unit already present in the on-disk
:class:`ResultCache` or a killed run's :class:`RunLedger` (two
append-only JSONL logs in one line format, one line per unit), and runs
the remainder inline or across a process pool — reassembling records in
submission order so figures are bit-identical either way.

Entry points:

* every sweep (``MicroBenchmark.run``, ``run_suite``, ``alu_fetch_grid``)
  takes an ``engine=`` and builds a default, inline one without it,
* ``repro figure/suite/grid --jobs N --cache --resume`` on the CLI,
* ``repro cache stats|gc|clear`` for cache maintenance.

See docs/jobs.md for the cache-key specification and resume semantics.
"""

from repro.jobs.cache import DEFAULT_CACHE_DIR, CacheStats, ResultCache
from repro.jobs.ledger import RunLedger
from repro.jobs.scheduler import JobEngine, JobError, JobOptions, UnitTimeout
from repro.jobs.units import CODE_SALT, WorkUnit, cache_key, record_point
from repro.jobs.worker import run_payload

__all__ = [
    "CODE_SALT",
    "CacheStats",
    "DEFAULT_CACHE_DIR",
    "JobEngine",
    "JobError",
    "JobOptions",
    "ResultCache",
    "RunLedger",
    "UnitTimeout",
    "WorkUnit",
    "cache_key",
    "record_point",
    "run_payload",
]
