"""The content-addressed compiled-program cache (repro.compiler.cache).

Covers the key's invalidation surface, both tiers (in-process LRU and
on-disk store), the scoped install used by the jobs engine, the
compile-once guarantee for kernel-sharing sweeps and serial suite runs,
and the CLI surface that reports and maintains the store.
"""

import json
import multiprocessing

from repro import telemetry
from repro.arch import RV670, RV770
from repro.cli import main
from repro.compiler import CompileOptions, compile_kernel
from repro.compiler import cache as cache_mod
from repro.compiler.cache import (
    CompileCache,
    ProgramStore,
    active_cache,
    compile_cache_key,
    compile_cache_scope,
)
from repro.il import text as text_mod
from repro.il.text import cached_il_text
from repro.isa import serialize as serialize_mod
from repro.jobs import JobEngine, JobOptions
from repro.jobs.units import CODE_SALT
from repro.kernels import KernelParams, generate_generic
from repro.suite import BENCHMARKS, run_benchmark, run_suite


def kernel_n(alu_ops=8):
    return generate_generic(KernelParams(inputs=4, alu_ops=alu_ops))


BASE_OPTIONS = CompileOptions()


class TestCacheKey:
    def test_deterministic(self):
        il = cached_il_text(kernel_n())
        a = compile_cache_key(il, BASE_OPTIONS)
        b = compile_cache_key(il, BASE_OPTIONS)
        assert a == b
        assert len(a) == 40

    def test_il_text_changes_key(self):
        a = compile_cache_key(cached_il_text(kernel_n(8)), BASE_OPTIONS)
        b = compile_cache_key(cached_il_text(kernel_n(12)), BASE_OPTIONS)
        assert a != b

    def test_key_is_the_compilers_input_not_the_gpu(self):
        # compile_kernel reads only the clause limits from the GPU, so
        # chips with equal limits share one key; the limits themselves
        # are the key's GPU-facing part.
        il = cached_il_text(kernel_n())
        assert CompileOptions.for_gpu(RV770) == CompileOptions.for_gpu(RV670)
        assert compile_cache_key(
            il, CompileOptions.for_gpu(RV770)
        ) == compile_cache_key(il, CompileOptions.for_gpu(RV670))
        tight = CompileOptions(max_tex_per_clause=4)
        assert compile_cache_key(il, BASE_OPTIONS) != (
            compile_cache_key(il, tight)
        )

    def test_clause_options_change_key(self):
        il = cached_il_text(kernel_n())
        small = CompileOptions(max_alu_per_clause=16)
        assert compile_cache_key(il, BASE_OPTIONS) != (
            compile_cache_key(il, small)
        )

    def test_code_salt_changes_key(self, monkeypatch):
        # A new code salt must orphan every cached program.
        il = cached_il_text(kernel_n())
        before = compile_cache_key(il, BASE_OPTIONS)
        monkeypatch.setattr(cache_mod, "CODE_SALT", "other-salt")
        assert compile_cache_key(il, BASE_OPTIONS) != before


class TestMemoryTier:
    def test_second_compile_is_a_hit_and_shares_the_object(self):
        cache = CompileCache()
        kernel = kernel_n()
        first = cache.get_or_compile(kernel, RV770)
        second = cache.get_or_compile(kernel, RV770)
        assert second is first
        assert cache.misses == 1
        assert cache.memory_hits == 1
        assert cache.hits == 1

    def test_gpus_with_equal_clause_limits_share_one_program(self):
        cache = CompileCache()
        kernel = kernel_n()
        a = cache.get_or_compile(kernel, RV770)
        b = cache.get_or_compile(kernel, RV670)
        assert b is a
        assert cache.misses == 1
        assert cache.memory_hits == 1

    def test_distinct_clause_limits_miss_separately(self):
        cache = CompileCache()
        kernel = kernel_n()
        a = cache.get_or_compile(kernel, RV770)
        b = cache.get_or_compile(
            kernel, RV770, CompileOptions(max_alu_per_clause=16)
        )
        assert b is not a
        assert cache.misses == 2

    def test_lru_eviction(self):
        cache = CompileCache(capacity=2)
        kernels = [kernel_n(8), kernel_n(12), kernel_n(16)]
        for k in kernels:
            cache.get_or_compile(k, RV770)
        assert len(cache) == 2
        assert cache.misses == 3
        # The oldest entry was evicted; re-requesting it recompiles.
        cache.get_or_compile(kernels[0], RV770)
        assert cache.misses == 4
        # ...while the most recent survivor is still a hit.
        cache.get_or_compile(kernels[2], RV770)
        assert cache.memory_hits == 1


class TestDiskTier:
    def test_warm_start_across_cache_instances(self, tmp_path):
        kernel = kernel_n()
        writer = CompileCache(ProgramStore(tmp_path))
        program = writer.get_or_compile(kernel, RV770)
        assert writer.serialized == 1

        reader = CompileCache(ProgramStore(tmp_path))
        warm = reader.get_or_compile(kernel, RV770)
        assert reader.misses == 0
        assert reader.disk_hits == 1
        assert warm.clauses == program.clauses
        assert warm.gpr_count == program.gpr_count
        # The warm load is parse-free: the caller's kernel is attached.
        assert warm.kernel is kernel
        # Now resident in the memory tier.
        reader.get_or_compile(kernel, RV770)
        assert reader.memory_hits == 1

    def test_corrupt_line_reads_as_miss_and_is_repaired(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        writer = CompileCache(store)
        writer.get_or_compile(kernel, RV770)
        (line,) = store.log_path.read_bytes().splitlines()
        # The salt and key still lead the line, so it is indexed; the
        # full read on a hit finds it broken.
        store.log_path.write_bytes(line[: len(line) // 2] + b"\n")

        reader = CompileCache(ProgramStore(tmp_path))
        program = reader.get_or_compile(kernel, RV770)
        assert reader.misses == 1  # corrupt entry never surfaces
        assert reader.serialized == 1  # ...and the fresh save repaired it
        repaired = CompileCache(ProgramStore(tmp_path))
        assert repaired.get_or_compile(kernel, RV770).clauses == (
            program.clauses
        )
        assert repaired.disk_hits == 1
        assert ProgramStore(tmp_path).scan()[2] == 1
        assert ProgramStore(tmp_path).gc() == 1

    def test_torn_tail_reads_as_miss_and_is_repaired(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        CompileCache(store).get_or_compile(kernel, RV770)
        data = store.log_path.read_bytes()
        store.log_path.write_bytes(data[: len(data) // 2])  # killed mid-line

        reader = CompileCache(ProgramStore(tmp_path))
        program = reader.get_or_compile(kernel, RV770)
        assert (reader.misses, reader.serialized) == (1, 1)
        # The repairing line starts a line of its own: it reads whole.
        lines = store.log_path.read_bytes().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["key"] == json.loads(data)["key"]
        repaired = CompileCache(ProgramStore(tmp_path))
        assert repaired.get_or_compile(kernel, RV770).clauses == (
            program.clauses
        )
        assert repaired.disk_hits == 1
        assert ProgramStore(tmp_path).scan() == (
            1, store.log_path.stat().st_size, 1
        )

    def test_other_salt_line_is_skipped_and_gc_drops_it(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        CompileCache(store).get_or_compile(kernel, RV770)
        line = json.loads(store.log_path.read_text())
        line["version"] = "other-salt"
        store.log_path.write_text(json.dumps(line) + "\n")
        reader = CompileCache(ProgramStore(tmp_path))
        reader.get_or_compile(kernel, RV770)
        assert reader.disk_hits == 0
        assert reader.misses == 1
        assert ProgramStore(tmp_path).scan()[::2] == (1, 1)
        assert ProgramStore(tmp_path).gc() == 1
        (kept,) = store.log_path.read_text().splitlines()
        assert json.loads(kept)["version"] == CODE_SALT
        assert ProgramStore(tmp_path).scan()[::2] == (1, 0)

    def test_a_line_appended_after_the_first_scan_is_found(self, tmp_path):
        kernel = kernel_n()
        program = compile_kernel(kernel, RV770)
        key = compile_cache_key(cached_il_text(kernel), BASE_OPTIONS)
        store = ProgramStore(tmp_path)
        store.save("0" * 40, program)
        assert store.load(key) is None  # indexed the log as it was

        # Another process (a pool worker) appends the program.
        writer = multiprocessing.get_context("fork").Process(
            target=ProgramStore(tmp_path).save, args=(key, program)
        )
        writer.start()
        writer.join(timeout=60)
        assert writer.exitcode == 0

        found = store.load(key, kernel=kernel)
        assert found is not None
        assert found.clauses == program.clauses

    def test_legacy_blob_tree_is_stale_and_reaped(self, tmp_path):
        kernel = kernel_n()
        store = ProgramStore(tmp_path)
        CompileCache(store).get_or_compile(kernel, RV770)
        legacy = store.legacy_dir / "ab" / ("ab" + "0" * 38 + ".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{}")
        assert store.scan()[::2] == (1, 1)
        assert store.gc() == 1
        assert not store.legacy_dir.exists()
        assert store.scan()[::2] == (1, 0)
        assert CompileCache(ProgramStore(tmp_path)).get_or_compile(
            kernel, RV770
        ).kernel is kernel

    def test_saving_a_rendered_kernel_renders_no_il(self, tmp_path, monkeypatch):
        kernel = kernel_n()
        program = compile_kernel(kernel, RV770)
        key = compile_cache_key(cached_il_text(kernel), BASE_OPTIONS)
        calls = []

        def counting(k):
            calls.append(k)
            return ""

        # Every binding a save could render through.
        monkeypatch.setattr(text_mod, "emit_il", counting)
        monkeypatch.setattr(serialize_mod, "emit_il", counting, raising=False)
        ProgramStore(tmp_path).save(key, program)
        assert calls == []


class TestScopedInstall:
    def test_no_ambient_cache_by_default(self):
        assert active_cache() is None

    def test_scope_installs_and_restores(self):
        cache = CompileCache()
        with compile_cache_scope(cache) as installed:
            assert installed is cache
            assert active_cache() is cache
            inner = CompileCache()
            with compile_cache_scope(inner):
                assert active_cache() is inner
            assert active_cache() is cache
        assert active_cache() is None

    def test_plain_compile_kernel_stays_uncached(self):
        # Serial figure runs must keep one compile span per point
        # (pinned by test_telemetry); compile_kernel itself never
        # consults the ambient cache — only Context.load_module does.
        cache = CompileCache()
        with compile_cache_scope(cache):
            compile_kernel(kernel_n(), RV770)
        assert cache.misses == 0
        assert cache.hits == 0


class TestTelemetryCounters:
    def test_hit_miss_serialize_counters(self, tmp_path):
        kernel = kernel_n()
        with telemetry.recording():
            cache = CompileCache(ProgramStore(tmp_path))
            cache.get_or_compile(kernel, RV770)  # miss + serialize
            cache.get_or_compile(kernel, RV770)  # memory hit
            CompileCache(ProgramStore(tmp_path)).get_or_compile(
                kernel, RV770
            )  # disk hit
            registry = telemetry.metrics()
            assert registry.get("compile.cache.miss").value == 1
            assert registry.get("compile.cache.serialize").value == 1
            assert registry.get("compile.cache.hit{layer=memory}").value == 1
            assert registry.get("compile.cache.hit{layer=disk}").value == 1


class TestSweepPlanning:
    def test_domain_sweep_shares_one_recipe(self):
        # fig15 is one kernel swept over launch shapes: every planned
        # unit of a (mode, dtype) series must carry an equal recipe,
        # which is what collapses the sweep to one build and one compile.
        bench = BENCHMARKS["fig15a"]()
        planned = bench.plan_units(gpus=(RV770, RV670), fast=True)
        by_key = {}
        for spec, _value, unit in planned:
            by_key.setdefault((spec.mode, spec.dtype), set()).add(unit.recipe)
        assert by_key  # the sweep planned something
        for recipes in by_key.values():
            assert len(recipes) == 1
        # ...and the sharing crosses GPUs: generators never read the GPU.
        assert len({unit.recipe for *_, unit in planned}) == len(by_key)

    def test_engine_domain_sweep_compiles_exactly_once(self):
        engine = JobEngine()
        with telemetry.recording() as tracer:
            result = run_benchmark(
                "fig15a", gpus=(RV770,), fast=True, engine=engine
            )
        engine.close()
        compiles = sum(1 for s in tracer.finished() if s.name == "compile")
        points = sum(len(series.points) for series in result.series)
        assert points > 1
        assert compiles == 1
        assert engine.programs.misses == 1
        assert engine.programs.memory_hits == points - 1

    def test_serial_suite_compiles_each_distinct_program_once(self):
        # No engine: run_suite scopes one compile cache over the run, so
        # there is one compile span (and one verify span) per distinct
        # (IL text, clause options) pair, however many chips, launch
        # shapes and figures share it.
        figures = ["fig15a", "fig16"]
        distinct = set()
        for name in figures:
            bench = BENCHMARKS[name]()
            for spec, _value, unit in bench.plan_units(fast=True):
                options = CompileOptions.for_gpu(spec.gpu)
                distinct.add((cached_il_text(unit.recipe.build()), options))
        with telemetry.recording() as tracer:
            results = run_suite(figures=figures, fast=True)
        spans = tracer.finished()
        compiles = sum(1 for s in spans if s.name == "compile")
        verifies = sum(1 for s in spans if s.name == "verify")
        points = sum(
            len(series) for result in results.values()
            for series in result.series
        )
        assert points > len(distinct)
        assert compiles == len(distinct)
        assert verifies == len(distinct)
        assert active_cache() is None  # the scope did not leak

    def test_warm_and_cold_engine_runs_are_byte_identical(self, tmp_path):
        store = tmp_path / "store"

        def run():
            engine = JobEngine(JobOptions(cache_dir=store))
            result = run_benchmark(
                "fig15a", gpus=(RV770,), fast=True, engine=engine
            )
            engine.close()
            return result, engine

        cold, cold_engine = run()
        assert cold_engine.programs.serialized == cold_engine.programs.misses
        # Drop the simulated results, so the warm run recompiles nothing
        # but still needs every program.
        (store / "records.jsonl").unlink()
        warm, warm_engine = run()
        assert warm_engine.programs.misses == 0
        assert warm_engine.programs.disk_hits > 0
        assert warm.to_csv() == cold.to_csv()
        assert warm.to_json() == cold.to_json()


class TestCLISurface:
    def run_figure(self, cache_dir):
        assert main(
            ["figure", "fig15a", "--fast", "--cache-dir", str(cache_dir)]
        ) == 0

    def test_cache_stats_reports_programs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.run_figure(cache_dir)
        capsys.readouterr()
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"]["entries"] > 0
        assert payload["programs"]["bytes"] > 0
        assert payload["programs"]["stale"] == 0

        assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
        assert "programs:" in capsys.readouterr().out

    def test_cache_clear_removes_programs(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        self.run_figure(cache_dir)
        capsys.readouterr()
        assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "compiled programs" in out
        assert main(["cache", "stats", "--dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"]["entries"] == 0
