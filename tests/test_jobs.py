"""Tests for the repro.jobs execution engine.

Covers the cache-key invalidation matrix (any input that can move a
measured number must move the key, and the kernel enters it as its
recipe), the code-derived salt, kernels built only for units that run,
cache hit
fidelity (bit-identical
replay), the record log, resuming a killed run by rerunning it on the
same cache root, scheduler deduplication, compile-key batching, the
worker pool's lifetime and the units it is shipped, worker-crash retry,
unit timeouts, cache maintenance (stats/gc/clear), and forked writers
sharing one cache root.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import pickle
import shutil
import sys
import time
from pathlib import Path

import pytest

import repro.jobs.units as units_mod
from repro.arch import RV770, RV870
from repro.compiler import compile_kernel
from repro.compiler.cache import CompileCache, ProgramStore
from repro.il.text import cached_il_text
from repro.il.types import DataType, MemorySpace, ShaderMode
from repro.isa.serialize import program_from_json, program_to_json
from repro import telemetry
from repro.jobs import (
    CODE_SALT,
    JobEngine,
    JobError,
    JobOptions,
    ResultCache,
    RunLedger,
    UnitTimeout,
    WorkUnit,
    cache_key,
    record_point,
    run_payload,
)
from repro.jobs.scheduler import batch_units
from repro.jobs.units import launch_record
from repro.kernels import KernelParams, KernelRecipe
from repro.sim.config import SimConfig


def make_unit(
    *,
    gpu=RV770,
    dtype=DataType.FLOAT,
    mode=ShaderMode.PIXEL,
    ratio=1.0,
    inputs=4,
    domain=(128, 128),
    block=(64, 1),
    iterations=100,
    sim=None,
    figure="test",
    generator="generic",
) -> WorkUnit:
    recipe = KernelRecipe(
        generator,
        KernelParams(
            inputs=inputs, alu_fetch_ratio=ratio, dtype=dtype, mode=mode
        ),
    )
    return WorkUnit(
        figure=figure,
        series=f"{gpu.chip} {mode.value} {dtype.value}",
        value=ratio,
        recipe=recipe,
        gpu=gpu,
        domain=domain,
        block=block,
        iterations=iterations,
        sim=sim if sim is not None else SimConfig(),
    )


class TestCacheKey:
    def test_same_parameters_same_key(self):
        assert make_unit().key == make_unit().key

    def test_figure_and_series_labels_do_not_key(self):
        # Identical launches shared between figures collapse onto one
        # cache entry — the motivation for content addressing.
        assert make_unit(figure="fig7").key == make_unit(figure="fig8").key
        relabeled = dataclasses.replace(make_unit(), series="other series")
        assert relabeled.key == make_unit().key

    #: one legal non-default value per ``KernelParams`` field (16 inputs
    #: leave room for ``step=1`` with the default ``space`` of eight).
    PARAM_VARIANTS = {
        "inputs": 17,
        "outputs": 2,
        "constants": 1,
        "alu_fetch_ratio": 2.0,
        "dtype": DataType.FLOAT4,
        "mode": ShaderMode.COMPUTE,
        "input_space": MemorySpace.GLOBAL,
        "output_space": MemorySpace.GLOBAL,
        "alu_ops": 40,
        "space": 4,
        "step": 1,
    }

    def test_every_kernel_params_field_moves_the_key(self):
        fields = {f.name for f in dataclasses.fields(KernelParams)}
        assert set(self.PARAM_VARIANTS) == fields  # a new field needs a row
        base = make_unit(inputs=16)
        for name, value in self.PARAM_VARIANTS.items():
            params = dataclasses.replace(base.recipe.params, **{name: value})
            unit = dataclasses.replace(
                base, recipe=KernelRecipe("generic", params)
            )
            assert unit.recipe != base.recipe, name
            assert unit.key != base.key, name

    @pytest.mark.parametrize("generator", ["register_usage", "clause_usage"])
    def test_the_generator_moves_the_key(self, generator):
        base = make_unit(inputs=16)
        assert make_unit(inputs=16, generator=generator).key != base.key

    def test_equal_recipes_build_the_same_il_text(self):
        # The key holds the recipe, not the IL text: safe because the
        # salt covers the generators, so equal recipes build equal text.
        a, b = make_unit(), make_unit(gpu=RV870)
        assert a.recipe == b.recipe and a.recipe is not b.recipe
        assert cached_il_text(a.kernel) == cached_il_text(b.kernel)

    @pytest.mark.parametrize(
        "variant",
        [
            {"dtype": DataType.FLOAT4},
            {"mode": ShaderMode.COMPUTE},
            {"ratio": 2.0},
            {"inputs": 8},
            {"gpu": RV870},
            {"domain": (256, 256)},
            {"block": (4, 16)},
            {"iterations": 200},
            {"sim": SimConfig(cache_model=False)},
            {"sim": SimConfig(odd_even_slots=False)},
            {"sim": SimConfig(burst_exports=False)},
            {"sim": SimConfig(gpr_limited_residency=False)},
            {"sim": SimConfig(thrash_coeff=0.2)},
            {"sim": SimConfig(pressure_threshold=8.0)},
            {"sim": SimConfig(little_r_half=2.0)},
            {"sim": SimConfig(tiled_reuse_distance=3.0)},
            {"sim": SimConfig(max_simulated_wavefronts=96)},
            {"sim": SimConfig(exact_threshold=128)},
        ],
        ids=lambda v: next(iter(v)) + ":" + repr(next(iter(v.values()))),
    )
    def test_invalidation_matrix(self, variant):
        changed, base = make_unit(**variant), make_unit()
        assert changed.key != base.key
        # Kernel parameters reach the key through the recipe alone.
        launch = {"gpu", "domain", "block", "iterations", "sim"} & set(variant)
        assert (changed.recipe == base.recipe) == bool(launch)

    def test_every_simconfig_model_field_participates(self):
        # A new SimConfig field that is not wired into config_hash would
        # silently serve stale entries; fail here instead.
        base = make_unit()
        for field in dataclasses.fields(SimConfig):
            value = getattr(base.sim, field.name)
            if isinstance(value, bool):
                bumped = not value
            elif isinstance(value, (int, float)):
                bumped = value * 2 + 1
            else:
                continue
            sim = dataclasses.replace(base.sim, **{field.name: bumped})
            assert make_unit(sim=sim).key != base.key, field.name

    def test_code_salt_invalidates(self, monkeypatch):
        base = make_unit()
        before = cache_key(base)
        monkeypatch.setattr(units_mod, "CODE_SALT", "other-salt")
        assert cache_key(make_unit()) != before

    def test_simconfig_holds_model_parameters_only(self):
        # config_hash keys only compared scalar fields, so a field outside
        # that set would split one cache entry from the number it holds.
        for field in dataclasses.fields(SimConfig):
            assert field.compare, field.name
            assert field.default_factory is dataclasses.MISSING, field.name
            assert isinstance(field.default, (bool, int, float)), field.name


class TestCodeSalt:
    @staticmethod
    def set_salt(monkeypatch, salt: str) -> None:
        """Rebind the salt wherever it was imported, as a new import would."""
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(
                module, "CODE_SALT", None
            ) == CODE_SALT:
                monkeypatch.setattr(module, "CODE_SALT", salt)

    def test_one_changed_byte_changes_the_salt(self, tmp_path):
        root = Path(units_mod.__file__).resolve().parent.parent
        copy = tmp_path / "repro"
        shutil.copytree(
            root, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        assert units_mod.code_salt(copy) == CODE_SALT
        # A file outside the salted packages does not move it ...
        (copy / "cli.py").write_text("# edited\n")
        assert units_mod.code_salt(copy) == CODE_SALT
        # ... one flipped byte in a simulator file does.
        simd = copy / "sim" / "simd.py"
        data = bytearray(simd.read_bytes())
        data[len(data) // 2] ^= 1
        simd.write_bytes(bytes(data))
        assert units_mod.code_salt(copy) != CODE_SALT

    def test_the_record_reduction_is_salted(self, tmp_path):
        # ``launch_record`` decides what a cached record holds, so an
        # edit to the file that defines it must make warm caches miss.
        root = Path(units_mod.__file__).resolve().parent.parent
        copy = tmp_path / "repro"
        shutil.copytree(
            root, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        source = Path(inspect.getsourcefile(launch_record)).resolve()
        target = copy / source.relative_to(root)
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 1
        target.write_bytes(bytes(data))
        assert units_mod.code_salt(copy) != CODE_SALT

    def test_new_salt_misses_warm_caches(self, tmp_path, monkeypatch):
        unit = make_unit()
        ResultCache(tmp_path).put(unit.key, record_point(run_payload(unit)))
        CompileCache(ProgramStore(tmp_path)).get_or_compile(
            unit.kernel, unit.gpu
        )

        def warm() -> tuple[bool, int, int, int]:
            results = ResultCache(tmp_path)
            programs = CompileCache(ProgramStore(tmp_path))
            hit = results.get(make_unit().key) is not None
            programs.get_or_compile(unit.kernel, unit.gpu)
            return (
                hit,
                programs.disk_hits,
                results.stats().stale,
                ProgramStore(tmp_path).scan()[2],
            )

        assert warm() == (True, 1, 0, 0)
        self.set_salt(monkeypatch, "other-salt")
        # Both tiers miss, and the old entries now count as stale, so
        # ``repro cache gc`` reaps them.
        assert warm() == (False, 0, 1, 1)


class TestCacheRoundTrip:
    def test_hit_is_bit_identical(self, tmp_path):
        unit = make_unit()
        record = record_point(run_payload(unit))
        cache = ResultCache(tmp_path)
        cache.put(unit.key, record, figure=unit.figure)
        replay = record_point(cache.get(unit.key))
        assert replay == record
        assert isinstance(replay["seconds"], float)
        assert replay["seconds"] == record["seconds"]  # exact, not approx

    def test_miss_then_repair(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 40) is None
        assert cache.misses == 1

    def test_corrupt_blob_reads_as_miss(self, tmp_path):
        unit = make_unit()
        cache = ResultCache(tmp_path)
        cache.put(unit.key, record_point(run_payload(unit)))
        cache.log_path.write_text("{not json\n")
        assert ResultCache(tmp_path).get(unit.key) is None

    def test_malformed_record_reads_as_a_miss_and_is_repaired(self, tmp_path):
        # A line under the current salt whose record lacks fields must
        # not crash the replay: it is a miss, and the fresh put repairs it.
        unit = make_unit()
        line = {
            "version": CODE_SALT, "key": unit.key, "figure": "test",
            "created": 0.0, "record": {"seconds": 1.0},
        }
        (tmp_path / "records.jsonl").write_text(json.dumps(line) + "\n")
        engine = JobEngine(JobOptions(cache_dir=tmp_path))
        records = engine.run([unit])
        engine.close()
        assert engine.simulated == 1
        assert records == [record_point(run_payload(unit))]
        assert ResultCache(tmp_path).get(unit.key) == records[0]

    def test_stats_gc_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = make_unit()
        record = record_point(run_payload(unit))
        cache.put(unit.key, record, figure="figX")
        # A line recorded under another code salt is stale.
        stale = dict(
            key="f" * 40, version="other-salt", figure="old",
            created=0.0, record=record,
        )
        with cache.log_path.open("a") as fh:
            fh.write(json.dumps(stale) + "\n")

        stats = cache.stats()
        assert stats.entries == 1 and stats.stale == 1
        assert stats.by_figure == {"figX": 1}

        assert cache.gc() == 1
        assert cache.get(unit.key) is not None
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_log_directory_made_once_and_remade_after_removal(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        record = record_point(run_payload(make_unit()))
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        cache.put("ab" + "0" * 38, record)
        assert made
        made.clear()
        cache.put("ab" + "1" * 38, record)
        assert made == []  # the log exists: a put only appends

        # The cache directory vanishes mid-run: the next put remakes it.
        shutil.rmtree(root)
        cache.put("ab" + "2" * 38, record)
        assert ResultCache(root).get("ab" + "2" * 38) == record

    def test_torn_tail_line_is_skipped(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = record_point(run_payload(make_unit()))
        cache.put("a" * 40, record)
        with cache.log_path.open("a") as fh:
            fh.write(f'{{"version": "{CODE_SALT}", "key": "{"b" * 40}", "rec')
        fresh = ResultCache(tmp_path)
        assert fresh.get("a" * 40) == record
        assert fresh.get("b" * 40) is None
        assert fresh.stats().stale == 1

    def test_later_line_wins_and_repairs_a_corrupt_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = record_point(run_payload(make_unit()))
        corrupt = {"version": CODE_SALT, "key": "c" * 40, "record": "?"}
        with cache.log_path.open("a") as fh:
            fh.write(json.dumps(corrupt) + "\n")
        assert cache.get("c" * 40) is None
        cache.put("c" * 40, {**record, "seconds": 1.0})
        cache.put("c" * 40, record)
        assert ResultCache(tmp_path).get("c" * 40) == record

    def test_second_instance_sees_first_instance_puts(self, tmp_path):
        first = ResultCache(tmp_path)
        record = record_point(run_payload(make_unit()))
        for key in ("d" * 40, "e" * 40):
            first.put(key, record, figure="figY")
        second = ResultCache(tmp_path)
        assert second.get("d" * 40) == record
        assert second.get("e" * 40) == record
        assert second.stats().by_figure == {"figY": 2}

    def test_gc_leaves_one_line_per_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = record_point(run_payload(make_unit()))
        for _ in range(3):
            cache.put("a" * 40, record)
            cache.put("b" * 40, record)
        assert cache.stats().stale == 4
        assert cache.gc() == 4
        lines = cache.log_path.read_text().splitlines()
        assert sorted(json.loads(line)["key"] for line in lines) == [
            "a" * 40, "b" * 40,
        ]
        assert cache.gc() == 0
        assert list(tmp_path.glob("*.tmp")) == []

    def test_legacy_blobs_are_stale_and_reaped(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = record_point(run_payload(make_unit()))
        cache.put("a" * 40, record)
        # A record in the one-blob-per-unit layout of older caches.
        legacy = tmp_path / "objects" / "ff" / ("f" * 40 + ".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps(
            dict(key="f" * 40, version=CODE_SALT, record=record)
        ))
        stats = cache.stats()
        assert stats.entries == 1 and stats.stale == 1
        assert cache.gc() == 1
        assert not (tmp_path / "objects").exists()
        assert cache.get("a" * 40) == record

        legacy.parent.mkdir(parents=True)
        legacy.write_text("{}")
        assert cache.clear() == 2
        assert not (tmp_path / "objects").exists()
        assert cache.stats().entries == 0


class TestLedger:
    RECORD = {
        "seconds": 1.25, "gprs": 4, "resident_wavefronts": 8, "bound": "alu",
    }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        RunLedger(path).append("a" * 40, self.RECORD, "figX")
        assert RunLedger(path).load() == {"a" * 40: self.RECORD}
        line = json.loads(path.read_text())
        assert line["version"] == CODE_SALT and line["figure"] == "figX"
        assert isinstance(line["created"], float)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        RunLedger(path).append("b" * 40, self.RECORD, None)
        with path.open("a") as fh:
            fh.write('{"key": "cc", "record": {"seconds"')  # killed mid-write
        assert RunLedger(path).load() == {"b" * 40: self.RECORD}

    def test_wrong_salt_line_is_ignored(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            json.dumps(
                {"version": "other-salt", "key": "d" * 40, "record": self.RECORD}
            )
            + "\n"
            + json.dumps({"key": "e" * 40, "record": self.RECORD})
            + "\n"
        )
        assert RunLedger(path).load() == {}

    def test_load_normalizes_and_drops_invalid_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        log = RunLedger(path)
        log.append("f" * 40, {**self.RECORD, "gprs": "4", "extra": 1}, None)
        log.append("0" * 40, {"seconds": 1.0}, None)
        assert log.load() == {"f" * 40: self.RECORD}


class TestEngine:
    def test_serial_engine_matches_direct_simulation(self, tmp_path):
        units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0)]
        engine = JobEngine(JobOptions(cache_dir=tmp_path))
        records = engine.run(units)
        engine.close()
        direct = [record_point(run_payload(u)) for u in units]
        assert records == direct

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_an_engine_without_a_cache_writes_nothing(
        self, jobs, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        engine = JobEngine(JobOptions(jobs=jobs))
        assert engine.run([make_unit(ratio=r) for r in (0.5, 2.0)])
        engine.close()
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_keys_simulate_once(self):
        units = [make_unit(figure="fig7"), make_unit(figure="fig8")]
        engine = JobEngine()
        records = engine.run(units)
        engine.close()
        assert engine.simulated == 1
        assert records[0] == records[1]

    def test_rerun_after_a_kill_simulates_only_the_rest(self, tmp_path):
        all_units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0, 4.0)]

        # First attempt dies after two units (engine never closed).
        first = JobEngine(JobOptions(cache_dir=tmp_path))
        first.run(all_units[:2])

        second = JobEngine(JobOptions(cache_dir=tmp_path))
        records = second.run(all_units)
        second.close()
        assert second.simulated == 2 and second.cache.hits == 2
        assert records == [record_point(run_payload(u)) for u in all_units]

    def test_one_log_line_per_simulated_unit(self, tmp_path):
        units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0)]
        engine = JobEngine(JobOptions(jobs=2, cache_dir=tmp_path))
        engine.run(units + [make_unit(ratio=1.0, figure="other")])
        # What a kill would leave behind: the result log and the
        # program log, and nothing else.
        assert {path.name for path in tmp_path.iterdir()} == {
            "records.jsonl", "programs.jsonl",
        }
        engine.close()
        assert engine.simulated == len(units)
        lines = [
            json.loads(raw)
            for raw in (tmp_path / "records.jsonl").read_text().splitlines()
        ]
        assert sorted(line["key"] for line in lines) == sorted(
            unit.key for unit in units
        )

    def test_worker_exception_propagates(self):
        bad = dataclasses.replace(
            make_unit(), iterations=0
        )  # LaunchConfig rejects it
        engine = JobEngine()
        with pytest.raises(ValueError):
            engine.run([bad])
        engine.close()


def count_builds(monkeypatch) -> dict[str, int]:
    """Count generator and ``emit_il`` calls, wrapped where the recipe
    and ``cached_il_text`` look them up."""
    import importlib

    import repro.il.text as text_mod

    calls = {"generate": 0, "emit_il": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for generator in ("generic", "register_usage", "clause_usage"):
        module = importlib.import_module(f"repro.kernels.{generator}")
        attr = f"generate_{generator}"
        monkeypatch.setattr(
            module, attr, counting("generate", getattr(module, attr))
        )
    monkeypatch.setattr(
        text_mod, "emit_il", counting("emit_il", text_mod.emit_il)
    )
    return calls


class TestBuildOnMiss:
    def test_inline_run_builds_each_recipe_once(self, monkeypatch):
        # Two recipes over five units: three launches share one kernel.
        units = [make_unit(gpu=RV770), make_unit(gpu=RV870)]
        units += [make_unit(domain=(64, 64)), make_unit(ratio=2.0)]
        units.append(make_unit(figure="other"))  # a duplicate key
        calls = count_builds(monkeypatch)
        engine = JobEngine()
        engine.run(units)
        assert calls["generate"] == 2
        assert units[0].kernel is units[1].kernel is units[2].kernel

    def test_a_batch_builds_each_recipe_once(self, monkeypatch):
        from repro.jobs.worker import run_payloads

        units = [make_unit(gpu=RV770), make_unit(gpu=RV870)]
        units.append(make_unit(ratio=2.0))
        calls = count_builds(monkeypatch)
        records = run_payloads(units)
        assert calls["generate"] == 2
        fresh = [make_unit(gpu=u.gpu, ratio=u.value) for u in units]
        assert records == [run_payload(u) for u in fresh]

    def test_warm_rerun_builds_no_kernel_and_renders_no_il(
        self, tmp_path, monkeypatch
    ):
        from repro.suite.runner import run_suite

        def run():
            engine = JobEngine(JobOptions(cache_dir=tmp_path))
            results = run_suite(["fig11", "fig16"], fast=True, engine=engine)
            engine.close()
            return {name: r.to_json() for name, r in results.items()}

        calls = count_builds(monkeypatch)
        cold = run()
        assert calls["generate"] > 0 and calls["emit_il"] > 0
        calls.update(generate=0, emit_il=0)
        assert run() == cold
        assert calls == {"generate": 0, "emit_il": 0}


#: Test switches the pool workers read from their environment, which
#: they inherit when the pool forks on an engine's first pool run.
CRASH_SENTINEL_ENV = "REPRO_TEST_CRASH_SENTINEL"
SLEEP_ENV = "REPRO_TEST_SLEEP"
#: the ratio of the unit whose batch kills its worker while
#: ``POISON_ENV`` is ``"1"``.
POISON_ENV = "REPRO_TEST_POISON"
POISON_RATIO = 4.0


def _crash_once_then_run(units):
    """Batch entry that hard-kills its worker on first use (see retry test).

    The sentinel file named by ``CRASH_SENTINEL_ENV`` records the crash,
    so the retried batch runs normally.
    """
    from repro.jobs.worker import run_payloads

    sentinel = os.environ[CRASH_SENTINEL_ENV]
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("crashed")
        os._exit(1)  # simulates a segfaulting worker: BrokenProcessPool
    return run_payloads(units)


def _crash_on_poison(units):
    """Batch entry that hard-kills its worker on the poisoned unit, after
    a pause that lets the other batches finish first."""
    from repro.jobs.worker import run_payloads

    poisoned = any(unit.value == POISON_RATIO for unit in units)
    if poisoned and os.environ.get(POISON_ENV) == "1":
        time.sleep(0.5)
        os._exit(1)
    return run_payloads(units)


def _with_pid(unit):
    """Per-unit worker entry that tags each record with the worker's PID."""
    return {**run_payload(unit), "pid": os.getpid()}


def _with_telemetry_state(unit):
    """Per-unit worker entry that tags each record with whether telemetry
    is on in the process that ran it."""
    return {**run_payload(unit), "telemetry": telemetry.enabled()}


def _with_arg_type(unit):
    """Per-unit worker entry that tags each record with its argument type."""
    return {**run_payload(unit), "arg_type": type(unit).__name__}


def _sleep_when_asked(unit):
    """Per-unit worker entry that hangs while ``SLEEP_ENV`` is ``"1"``."""
    if os.environ.get(SLEEP_ENV) == "1":
        time.sleep(60)
    return run_payload(unit)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestBatching:
    @staticmethod
    def compile_key(unit):
        from repro.compiler.cache import compile_cache_key
        from repro.compiler.pipeline import CompileOptions

        return compile_cache_key(
            cached_il_text(unit.recipe.build()),
            CompileOptions.for_gpu(unit.gpu),
        )

    @pytest.mark.parametrize("jobs", [1, 2, 3, 4, 16])
    def test_one_compile_key_per_batch(self, jobs):
        # Three programs: one over many launch shapes, one over two chips
        # (same clause limits, so one compile key), one single launch.
        units = [
            make_unit(ratio=1.0, domain=(64 * d, 64)) for d in range(1, 8)
        ]
        units += [make_unit(ratio=2.0, gpu=gpu) for gpu in (RV770, RV870)]
        units.insert(3, make_unit(ratio=4.0))
        batches = batch_units(units, jobs)
        size = math.ceil(len(units) / jobs)

        keys = [{self.compile_key(u) for u in batch} for batch in batches]
        assert all(len(k) == 1 for k in keys)
        assert all(0 < len(batch) <= size for batch in batches)
        groups: dict[str, int] = {}
        for unit in units:
            key = self.compile_key(unit)
            groups[key] = groups.get(key, 0) + 1
        spans = [k.pop() for k in keys]
        for key, count in groups.items():
            assert spans.count(key) == math.ceil(count / size)
        # Groups keep first-appearance order.
        assert list(dict.fromkeys(spans)) == list(groups)
        flat = [u for batch in batches for u in batch]
        assert sorted(map(id, flat)) == sorted(map(id, units))


class TestPoolLifetime:
    def test_one_pool_across_runs_joined_on_close(self, monkeypatch):
        import repro.jobs.scheduler as sched_mod
        import repro.jobs.worker as worker_mod

        pids = []
        plain_record_point = sched_mod.record_point

        def pid_record_point(record):
            pids.append(record.pop("pid"))
            return plain_record_point(record)

        monkeypatch.setattr(worker_mod, "run_payload", _with_pid)
        monkeypatch.setattr(sched_mod, "record_point", pid_record_point)

        def children() -> set[int]:
            return {p.pid for p in multiprocessing.active_children()}

        others = children()
        engine = JobEngine(JobOptions(jobs=2))
        assert children() == others  # forked by the first run, not here
        first = engine.run([make_unit(ratio=r) for r in (0.5, 1.0, 2.0)])
        workers = children() - others
        second = engine.run([make_unit(ratio=r) for r in (4.0, 8.0)])
        assert children() - others == workers  # no new workers forked
        engine.close()

        assert 1 <= len(workers) <= 2
        assert len(pids) == 5 and set(pids) <= workers
        assert not any(_alive(pid) for pid in workers)
        expected = [
            record_point(run_payload(make_unit(ratio=r)))
            for r in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert first + second == expected


class TestPoolShipsUnits:
    def test_workers_receive_work_units(self, monkeypatch):
        import repro.jobs.scheduler as sched_mod
        import repro.jobs.worker as worker_mod

        arg_types = []
        plain_record_point = sched_mod.record_point

        def type_record_point(record):
            arg_types.append(record.pop("arg_type"))
            return plain_record_point(record)

        monkeypatch.setattr(worker_mod, "run_payload", _with_arg_type)
        monkeypatch.setattr(sched_mod, "record_point", type_record_point)

        units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0)]
        engine = JobEngine(JobOptions(jobs=2))
        records = engine.run(units)
        engine.close()
        assert arg_types == ["WorkUnit"] * len(units)
        assert records == [record_point(run_payload(u)) for u in units]

    def test_pickled_unit_holds_no_kernel_or_il_text(self):
        unit = make_unit()
        text = cached_il_text(unit.kernel)
        assert unit.key
        data = pickle.dumps(unit)
        assert b"ILKernel" not in data
        assert text.splitlines()[-2].encode() not in data  # an IL line
        shipped = pickle.loads(data)
        assert "kernel" not in vars(shipped)
        assert shipped.key == unit.key

    def test_unpickled_unit_keeps_key_and_record(self):
        unit = make_unit()
        key = unit.key
        shipped = pickle.loads(pickle.dumps(unit))
        assert shipped.key == key
        assert shipped == unit
        assert run_payload(shipped) == run_payload(unit)


class TestWorkerTelemetry:
    def test_workers_record_no_telemetry(self, monkeypatch):
        # Nothing ships a worker's spans back, so a worker forked from a
        # recording parent must not collect any.
        import repro.jobs.scheduler as sched_mod
        import repro.jobs.worker as worker_mod

        states = []
        plain_record_point = sched_mod.record_point

        def state_record_point(record):
            states.append(record.pop("telemetry"))
            return plain_record_point(record)

        monkeypatch.setattr(worker_mod, "run_payload", _with_telemetry_state)
        monkeypatch.setattr(sched_mod, "record_point", state_record_point)

        engine = JobEngine(JobOptions(jobs=2))
        with telemetry.recording():
            engine.run([make_unit(ratio=r) for r in (0.5, 1.0, 2.0)])
            assert telemetry.enabled()  # the parent still records
        engine.close()
        assert states == [False] * 3


class TestPoolCrashRetry:
    def test_retry_once_after_worker_crash(self, tmp_path, monkeypatch):
        import repro.jobs.scheduler as sched_mod

        sentinel = tmp_path / "crashed"
        monkeypatch.setattr(sched_mod, "run_payloads", _crash_once_then_run)
        monkeypatch.setenv(CRASH_SENTINEL_ENV, str(sentinel))

        unit = make_unit()
        engine = JobEngine(JobOptions(jobs=2))
        records = engine.run([unit])
        engine.close()
        assert sentinel.exists()  # the first attempt really died
        assert records == [record_point(run_payload(unit))]

    def test_second_crash_raises_and_a_rerun_finishes_the_rest(
        self, tmp_path, monkeypatch
    ):
        import repro.jobs.scheduler as sched_mod

        monkeypatch.setattr(sched_mod, "run_payloads", _crash_on_poison)
        monkeypatch.setenv(POISON_ENV, "1")
        units = [make_unit(ratio=r) for r in (0.5, 1.0, 2.0, POISON_RATIO)]

        crashed = JobEngine(JobOptions(jobs=2, cache_dir=tmp_path))
        with pytest.raises(JobError, match="rerun with the same --cache-dir"):
            crashed.run(units)
        crashed.close()
        assert 1 <= crashed.simulated < len(units)

        monkeypatch.setenv(POISON_ENV, "0")
        rerun = JobEngine(JobOptions(jobs=2, cache_dir=tmp_path))
        records = rerun.run(units)
        rerun.close()
        assert rerun.simulated == len(units) - crashed.simulated
        assert records == [record_point(run_payload(u)) for u in units]


class TestUnitTimeout:
    def test_timeout_discards_pool_and_next_run_succeeds(
        self, tmp_path, monkeypatch
    ):
        import repro.jobs.worker as worker_mod

        monkeypatch.setattr(worker_mod, "run_payload", _sleep_when_asked)
        monkeypatch.setenv(SLEEP_ENV, "1")

        unit = make_unit()
        engine = JobEngine(JobOptions(jobs=2, timeout=0.5))
        started = time.perf_counter()
        with pytest.raises(UnitTimeout):
            engine.run([unit])
        # The hung worker was killed, not waited for.
        assert time.perf_counter() - started < 30
        assert engine._pool is None

        # The next run forks a fresh pool, which inherits the new value.
        monkeypatch.setenv(SLEEP_ENV, "0")
        records = engine.run([unit])
        engine.close()
        assert records == [record_point(run_payload(unit))]


#: the keys every concurrent writer fights over.
SHARED_KEYS = [
    f"{shard:02x}{index:038x}" for shard in (0xAB, 0xCD) for index in range(8)
]
WRITERS = 4
ROUNDS = 5
#: two compiled programs whose log lines exceed 64 KiB, one per writer
#: parity; filled before the writers fork.
BIG_PROGRAMS: list = []


def _blob(writer: int, round_: int, key: str) -> dict:
    """A record large enough that a torn write would show as a bad
    digest: ``bound`` carries a payload behind its digest."""
    payload = f"{writer}:{round_}:{key}:" * 800
    digest = hashlib.sha256(payload.encode()).hexdigest()
    return {
        "seconds": float(round_),
        "gprs": writer,
        "resident_wavefronts": 1,
        "bound": f"{digest}:{payload}",
    }


def _complete(blob: dict | None) -> bool:
    """Whether ``blob`` is a whole record that one of the writers wrote."""
    if blob is None or blob.get("gprs") not in range(WRITERS):
        return False
    digest, _, payload = blob["bound"].partition(":")
    return hashlib.sha256(payload.encode()).hexdigest() == digest


def _whole_program(program) -> bool:
    """Whether ``program`` is one of the programs the writers store."""
    return program is not None and any(
        program.clauses == big.clauses and program.gpr_count == big.gpr_count
        for big in BIG_PROGRAMS
    )


def _big_kernel():
    """The kernel loads attach instead of parsing a 3000-line IL text;
    the line itself is still read, parsed and decoded whole."""
    return BIG_PROGRAMS[0].kernel


def _hammer(root: str, writer: int) -> None:
    """One forked writer: write and read back every shared key each round.

    A key this writer has already written exists for good, so reading it
    must give a complete entry, never ``None``.
    """
    results = ResultCache(root)
    programs = ProgramStore(root)
    written: set[str] = set()
    for round_ in range(ROUNDS):
        for key in SHARED_KEYS:
            results.put(key, _blob(writer, round_, key), figure=f"writer{writer}")
            programs.save(key, BIG_PROGRAMS[writer % 2])
            written.add(key)
            for probe in SHARED_KEYS:
                got = results.get(probe)
                if got is None:
                    assert probe not in written, probe
                else:
                    assert _complete(got), probe
                program = programs.load(probe, kernel=_big_kernel())
                if program is None:
                    assert probe not in written, probe
                else:
                    assert _whole_program(program), probe


class TestConcurrentWriters:
    def test_forked_writers_share_one_cache_root(self, tmp_path):
        # Pool workers share one program log (and runs one record log)
        # per root; one-write appends of lines larger than 64 KiB must
        # keep every line whole while several processes append the same
        # keys and read each other's lines back.
        BIG_PROGRAMS[:] = [
            compile_kernel(
                KernelRecipe(
                    "generic", KernelParams(inputs=8, alu_ops=alu_ops)
                ).build()
            )
            for alu_ops in (3000, 3500)
        ]
        sizes = [len(json.dumps(program_to_json(p))) for p in BIG_PROGRAMS]
        assert min(sizes) > 64 * 1024
        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=_hammer, args=(str(tmp_path), w))
            for w in range(WRITERS)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
        assert not any(p.is_alive() for p in writers)
        assert [p.exitcode for p in writers] == [0] * WRITERS

        results = ResultCache(tmp_path)
        programs = ProgramStore(tmp_path)
        for key in SHARED_KEYS:
            assert _complete(results.get(key)), key
            assert _whole_program(programs.load(key, kernel=_big_kernel())), key
        assert list(tmp_path.rglob("*.tmp")) == []
        # A reader keeps the last valid line per key, so a torn or
        # interleaved append would hide behind a later whole one: every
        # line the writers appended must itself be whole.
        lines = results.log_path.read_bytes().splitlines()
        assert len(lines) == WRITERS * ROUNDS * len(SHARED_KEYS)
        for raw in lines:
            assert _complete(json.loads(raw)["record"]), raw
        lines = programs.log_path.read_bytes().splitlines()
        assert len(lines) == WRITERS * ROUNDS * len(SHARED_KEYS)
        for raw in lines:
            line = json.loads(raw)
            assert line["key"] in SHARED_KEYS
            program = program_from_json(line["program"], kernel=_big_kernel())
            assert _whole_program(program), raw
