"""Per-layer accounting for the traced run, taken from outside the program.

:func:`install` wraps the public functions of each layer (see
``TARGETS``) with a timer and rebinds every module attribute that pointed
at the original, so calls made through ``from x import f`` bindings are
seen too.  Each wrapper records calls, inclusive time and self time
(inclusive minus the wrapped calls nested inside it).  Nothing inside
``src/`` is changed.

Pool workers are forked from the traced process, so they inherit the
wrappers.  The wrapped ``run_payload`` ships each worker's deltas back
inside its result record, and the wrapped ``record_point`` merges them
in the parent before the record is normalised.  Worker time is therefore
summed across processes; ``trace.unattributed_frac`` uses the parent's
clock only.  ``run_benchmark`` is wrapped only to time each figure: its
self time is harness code that no layer accounts for, so it counts as
unattributed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (module, attribute or Class.method, layer).  Order does not matter.
TARGETS = [
    ("repro.kernels.generic", "generate_generic", "kernels"),
    ("repro.kernels.register_usage", "generate_register_usage", "kernels"),
    ("repro.kernels.clause_usage", "generate_clause_usage", "kernels"),
    ("repro.il.validate", "validate_kernel", "il.validate"),
    ("repro.il.text", "emit_il", "il.text"),
    ("repro.compiler.pipeline", "compile_kernel", "compiler"),
    ("repro.compiler.optimize", "eliminate_dead_code", "compiler.dce"),
    ("repro.compiler.clauses", "form_segments", "compiler.segments"),
    ("repro.compiler.vliw", "pack_bundles", "compiler.vliw"),
    ("repro.compiler.regalloc", "allocate", "compiler.regalloc"),
    ("repro.verify.engine", "verify_compiled", "verify"),
    ("repro.isa.interp", "execute_program", "isa.execute"),
    ("repro.isa.serialize", "program_to_json", "isa.serialize"),
    ("repro.isa.serialize", "program_from_json", "isa.deserialize"),
    ("repro.sim.engine", "simulate_launch", "sim"),
    ("repro.cal.context", "Context.load_module", "cal.load_module"),
    ("repro.cal.context", "Context.bind_streams", "cal.bind_streams"),
    ("repro.cal.timing", "time_kernel", "cal.time_kernel"),
    ("repro.compiler.cache", "CompileCache.get_or_compile", "compile_cache"),
    ("repro.suite.base", "MicroBenchmark.plan_units", "jobs.plan"),
    ("repro.jobs.units", "cache_key", "jobs.key"),
    ("repro.jobs.cache", "ResultCache.get", "jobs.cache_get"),
    ("repro.jobs.cache", "ResultCache.put", "jobs.cache_put"),
    ("repro.jobs.cache", "ResultCache.write_index", "jobs.index_write"),
    ("repro.jobs.ledger", "RunLedger.append", "jobs.ledger_append"),
    ("repro.jobs.scheduler", "JobEngine.run", "jobs.engine"),
    ("concurrent.futures", "Future.result", "jobs.pool_wait"),
    ("repro.suite.runner", "run_benchmark", "suite"),
    ("repro.reporting.experiments", "check_expectations", "reporting"),
]

#: figure ids, one ``suite.figure_s.<id>`` metric each.
FIGURES = [
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b",
    "fig16", "fig17", "fig5ctl", "fig7", "fig8", "fig9",
]

REMOTE_KEY = "_perfbench_layers"


class Recorder:
    """Calls, inclusive and self time per layer, plus derived counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        #: open wrapped calls: [layer, seconds spent in nested calls]
        self.stack: list[list] = []
        #: parent-side time inside outermost wrapped calls (hooks included)
        self.covered_s = 0.0

    # ---- the worker round trip ---------------------------------------------
    def take(self) -> dict:
        """Hand over everything recorded so far and start again from zero."""
        taken = {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
        }
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.counts.clear()
        self.keys.clear()
        return taken

    def merge(self, taken: dict) -> None:
        self.calls.update(taken["calls"])
        self.counts.update(taken["counts"])
        for k, v in taken["total_s"].items():
            self.total_s[k] += v
        for k, v in taken["self_s"].items():
            self.self_s[k] += v
        for k, v in taken["keys"].items():
            self.keys[k].update(v)

    # ---- the wrapper --------------------------------------------------------
    def wrap(self, layer: str, fn, after=None):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[layer] += 1
                self.total_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                hook = 0.0
                if not ok:
                    self.counts[f"{layer}.raised"] += 1
                elif after is not None:
                    mark = perf_counter()
                    after(args, kwargs, result, elapsed)
                    hook = perf_counter() - mark
                if stack:
                    stack[-1][1] += elapsed + hook
                else:
                    self.covered_s += elapsed + hook
            return result

        return wrapper


def _il_text(kernel, emit) -> str:
    """The kernel's IL text, without memoising it on the kernel."""
    text = kernel.__dict__.get("_il_text")
    return text if text is not None else emit(kernel)


def _digest(*parts) -> str:
    return hashlib.sha1(repr(parts).encode()).hexdigest()


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def install(rec: Recorder) -> None:
    """Import every target module and rebind each target to its wrapper."""
    from repro.compiler.pipeline import CompileOptions

    targets = []
    for module_name, attr, layer in TARGETS:
        module = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        holder = getattr(module, cls_name) if cls_name else module
        targets.append((holder, name, getattr(holder, name), layer))
    from repro.il.text import emit_il as emit

    def on_compile(args, kwargs, program, _elapsed):
        kernel = _arg(args, kwargs, 0, "kernel")
        gpu = _arg(args, kwargs, 1, "gpu")
        options = _arg(args, kwargs, 2, "options")
        if options is None:
            options = (
                CompileOptions.for_gpu(gpu) if gpu is not None
                else CompileOptions()
            )
        rec.keys["compiler"].add(
            _digest(
                _il_text(kernel, emit),
                options.max_tex_per_clause,
                options.max_alu_per_clause,
            )
        )
        rec.counts["compiler.bundles"] += program.bundle_count
        rec.counts["compiler.clauses"] += len(program.clauses)
        rec.counts["compiler.gprs"] += program.gpr_count
        if rec.stack and rec.stack[-1][0] == "compile_cache":
            rec.counts["compile_cache.misses"] += 1

    def on_verify(args, kwargs, _result, _elapsed):
        rec.keys["verify"].add(
            _digest(
                _il_text(_arg(args, kwargs, 0, "kernel"), emit),
                _arg(args, kwargs, 2, "max_tex_per_clause", 8),
                _arg(args, kwargs, 3, "max_alu_per_clause", 128),
            )
        )

    def on_cache_get(_args, _kwargs, record, _elapsed):
        if record is not None:
            rec.counts["jobs.cache_hits"] += 1

    def on_figure(args, kwargs, result, elapsed):
        figure = _arg(args, kwargs, 0, "figure")
        rec.counts[f"suite.figure_s.{figure}"] += elapsed
        rec.counts["suite.points"] += sum(len(s) for s in result.series)

    def on_check(_args, _kwargs, outcomes, _elapsed):
        rec.counts["reporting.claims_held"] += sum(o.passed for o in outcomes)

    hooks = {
        "compiler": on_compile,
        "verify": on_verify,
        "jobs.cache_get": on_cache_get,
        "suite": on_figure,
        "reporting": on_check,
    }
    replaced = {}
    for holder, name, fn, layer in targets:
        wrapper = rec.wrap(layer, fn, hooks.get(layer))
        setattr(holder, name, wrapper)
        if not isinstance(holder, type):
            replaced[id(fn)] = (fn, wrapper)

    # Pool round trip: the worker returns its deltas inside the record,
    # the parent strips them off before the record is normalised.
    from repro.jobs import scheduler, worker

    run_payload = worker.run_payload
    parent = os.getpid()

    @functools.wraps(run_payload)
    def traced_run_payload(payload):
        if os.getpid() == parent:
            return run_payload(payload)
        rec.take()  # drop what the worker inherited from the parent
        raw = run_payload(payload)
        raw[REMOTE_KEY] = rec.take()
        return raw

    record_point = scheduler.record_point

    @functools.wraps(record_point)
    def merging_record_point(record):
        taken = record.pop(REMOTE_KEY, None)
        if taken is not None:
            rec.merge(taken)
        return record_point(record)

    replaced[id(run_payload)] = (run_payload, traced_run_payload)
    replaced[id(record_point)] = (record_point, merging_record_point)

    # Rebind ``from x import f`` copies held by every other repro module.
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    rec: Recorder, wall_s: float, covered_s: float
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    ``covered_s`` is ``rec.covered_s`` read at the end of the timed pass,
    so the correctness check run after it does not count as covered.
    """
    calls, self_s, counts = rec.calls, rec.self_s, rec.counts
    compiles = calls["compiler"]
    cache_calls = calls["compile_cache"]
    cache_misses = counts["compile_cache.misses"]
    out: dict[str, tuple[float, str]] = {
        "kernels.calls": (calls["kernels"], "count"),
        "kernels.s": (self_s["kernels"], "s"),
        "il.validate_calls": (calls["il.validate"], "count"),
        "il.validate_s": (self_s["il.validate"], "s"),
        "il.text_s": (self_s["il.text"], "s"),
        "compiler.calls": (compiles, "count"),
        "compiler.distinct": (len(rec.keys["compiler"]), "count"),
        "compiler.distinct_frac": (
            _frac(len(rec.keys["compiler"]), compiles), "frac"
        ),
        "compiler.self_s": (self_s["compiler"], "s"),
        "compiler.dce_s": (self_s["compiler.dce"], "s"),
        "compiler.segments_s": (self_s["compiler.segments"], "s"),
        "compiler.vliw_s": (self_s["compiler.vliw"], "s"),
        "compiler.regalloc_s": (self_s["compiler.regalloc"], "s"),
        "compiler.bundles_total": (counts["compiler.bundles"], "count"),
        "compiler.clauses_total": (counts["compiler.clauses"], "count"),
        "compiler.gprs_total": (counts["compiler.gprs"], "count"),
        "verify.calls": (calls["verify"], "count"),
        "verify.distinct": (len(rec.keys["verify"]), "count"),
        "verify.s": (self_s["verify"], "s"),
        "isa.execute_calls": (calls["isa.execute"], "count"),
        "isa.execute_s": (self_s["isa.execute"], "s"),
        "isa.serialize_calls": (calls["isa.serialize"], "count"),
        "isa.serialize_s": (self_s["isa.serialize"], "s"),
        "isa.deserialize_calls": (calls["isa.deserialize"], "count"),
        "isa.deserialize_s": (self_s["isa.deserialize"], "s"),
        "sim.launches": (calls["sim"], "count"),
        "sim.s": (self_s["sim"], "s"),
        "cal.load_module_s": (self_s["cal.load_module"], "s"),
        "cal.bind_streams_s": (self_s["cal.bind_streams"], "s"),
        "cal.setup_s": (self_s["cal.time_kernel"], "s"),
        "compile_cache.hits": (cache_calls - cache_misses, "count"),
        "compile_cache.misses": (cache_misses, "count"),
        "compile_cache.hit_frac": (
            _frac(cache_calls - cache_misses, cache_calls), "frac"
        ),
        "compile_cache.s": (self_s["compile_cache"], "s"),
        "jobs.plan_s": (self_s["jobs.plan"], "s"),
        "jobs.key_calls": (calls["jobs.key"], "count"),
        "jobs.key_s": (self_s["jobs.key"], "s"),
        "jobs.cache_get_calls": (calls["jobs.cache_get"], "count"),
        "jobs.cache_get_s": (self_s["jobs.cache_get"], "s"),
        "jobs.cache_hit_frac": (
            _frac(counts["jobs.cache_hits"], calls["jobs.cache_get"]), "frac"
        ),
        "jobs.cache_put_calls": (calls["jobs.cache_put"], "count"),
        "jobs.cache_put_s": (self_s["jobs.cache_put"], "s"),
        "jobs.ledger_append_s": (self_s["jobs.ledger_append"], "s"),
        "jobs.index_write_s": (self_s["jobs.index_write"], "s"),
        "jobs.engine_s": (self_s["jobs.engine"], "s"),
        "jobs.pool_wait_s": (self_s["jobs.pool_wait"], "s"),
        "suite.points": (counts["suite.points"], "count"),
        "suite.self_s": (self_s["suite"], "s"),
    }
    for figure in FIGURES:
        out[f"suite.figure_s.{figure}"] = (
            counts[f"suite.figure_s.{figure}"], "s"
        )
    out["reporting.check_s"] = (self_s["reporting"], "s")
    out["reporting.claims_held"] = (counts["reporting.claims_held"], "count")
    out["trace.unattributed_frac"] = (
        _frac(max(wall_s - covered_s, 0.0) + self_s["suite"], wall_s), "frac"
    )
    return out
