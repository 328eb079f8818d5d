"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices`` — the simulated GPUs and their Table I features.
* ``table1`` — the paper's hardware table.
* ``generate`` — emit a micro-benchmark kernel's IL to stdout.
* ``compile`` — compile IL (file or stdin) and print the ISA disassembly.
* ``lint`` — run the kernel verifier and report every diagnostic.
* ``ska`` — static StreamKernelAnalyzer-style report for a kernel.
* ``time`` — simulate a kernel launch and report seconds + bottleneck.
* ``advise`` — time a kernel and print the optimization directions.
* ``figure`` — regenerate one of the paper's figures.
* ``suite`` — run several figures and print the paper-claim checklist.
* ``grid`` — the (inputs x ratio) knee-invariance grid on one chip.
* ``cache`` — inspect or clean a cache root's two logs, the result log
  and the compiled-program log (stats/gc/clear).
* ``stats`` — summarize a telemetry manifest (JSONL) as tables.
* ``profile`` — per-stage time attribution for one kernel run.

``figure``, ``suite``, ``time`` and ``advise`` accept ``--telemetry
FILE`` to record the run — spans, metrics, config hash, git SHA — as a
JSONL manifest (see docs/telemetry.md).

``figure``, ``suite`` and ``grid`` accept ``--jobs N`` (parallel
workers), ``--cache`` (content-addressed result reuse under
``results/cache/``) and ``--resume`` (the same, spelled for continuing
an interrupted cached run) — see docs/jobs.md.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro import telemetry
from repro.arch import all_gpus, gpu_by_name, hardware_feature_table
from repro.arch.specs import GPUSpec
from repro.cal import CALError, Device, time_kernel
from repro.compiler import compile_kernel
from repro.il import (
    DataType,
    ILValidationError,
    MemorySpace,
    ShaderMode,
    emit_il,
    parse_il,
)
from repro.isa import disassemble
from repro.kernels import KernelParams, KernelRecipe
from repro.reporting import ascii_chart, experiment_report
from repro.sim.config import SimConfig
from repro.sim.engine import SimulationError
from repro.ska import analyze, format_report
from repro.suite import BENCHMARKS, run_benchmark, run_suite

#: ``--generator`` choice -> ``KernelRecipe`` generator name.
_GENERATORS = {
    "generic": "generic",
    "register": "register_usage",
    "clause": "clause_usage",
}


def _add_kernel_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_argument_group("kernel (generated or from IL)")
    source.add_argument("--il", metavar="FILE", help="read IL from FILE ('-' = stdin)")
    source.add_argument(
        "--generator", choices=sorted(_GENERATORS), default="generic"
    )
    source.add_argument("--inputs", type=int, default=8)
    source.add_argument("--outputs", type=int, default=1)
    source.add_argument("--constants", type=int, default=0)
    source.add_argument("--ratio", type=float, default=1.0, help="SKA ALU:Fetch ratio")
    source.add_argument("--alu-ops", type=int, default=None)
    source.add_argument(
        "--dtype", choices=[d.value for d in DataType], default="float"
    )
    source.add_argument(
        "--mode",
        choices=[m.value for m in ShaderMode] + ["ps", "cs"],
        default="pixel",
        help="shader mode (ps = pixel, cs = compute)",
    )
    source.add_argument(
        "--global-inputs", action="store_true", help="read inputs via global memory"
    )
    source.add_argument(
        "--global-outputs", action="store_true", help="write outputs to global memory"
    )
    source.add_argument("--space", type=int, default=8)
    source.add_argument("--step", type=int, default=0)


class KernelSourceError(Exception):
    """The command line's kernel could not be read, parsed or generated."""


def _kernel_from_args(args: argparse.Namespace):
    try:
        if args.il:
            text = (
                sys.stdin.read()
                if args.il == "-"
                else Path(args.il).read_text()
            )
            return parse_il(text)
        params = KernelParams(
            inputs=args.inputs,
            outputs=args.outputs,
            constants=args.constants,
            alu_fetch_ratio=args.ratio,
            alu_ops=args.alu_ops,
            dtype=DataType.from_name(args.dtype),
            mode=ShaderMode.from_name(args.mode),
            input_space=(
                MemorySpace.GLOBAL if args.global_inputs
                else MemorySpace.TEXTURE
            ),
            output_space=(MemorySpace.GLOBAL if args.global_outputs else None),
            space=args.space,
            step=args.step,
        )
        return KernelRecipe(_GENERATORS[args.generator], params).build()
    except (OSError, ValueError) as exc:  # ILParseError is a ValueError
        raise KernelSourceError(str(exc)) from None


def _gpu(name: str) -> GPUSpec:
    """``--gpu`` type: an unknown chip is a usage error."""
    try:
        return gpu_by_name(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _add_launch_arguments(parser: argparse.ArgumentParser) -> None:
    launch = parser.add_argument_group("launch")
    launch.add_argument(
        "--gpu", type=_gpu, default="4870", help="chip or card name"
    )
    launch.add_argument(
        "--domain", type=int, nargs=2, default=(1024, 1024), metavar=("W", "H")
    )
    launch.add_argument(
        "--block", type=int, nargs=2, default=(64, 1), metavar=("W", "H")
    )
    launch.add_argument("--iterations", type=int, default=5000)


def _add_telemetry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        help="record spans + metrics to FILE as a JSONL run manifest",
    )


def _add_jobs_arguments(parser: argparse.ArgumentParser) -> None:
    jobs = parser.add_argument_group("execution engine (docs/jobs.md)")
    jobs.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes (0/1 = serial, the deterministic default)",
    )
    jobs.add_argument(
        "--cache",
        action="store_true",
        help="reuse simulated results via the content-addressed cache",
    )
    jobs.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache root (implies --cache; default results/cache)",
    )
    jobs.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted cached run (same as --cache)",
    )
    jobs.add_argument(
        "--unit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit timeout when running with --jobs",
    )


def _engine_from_args(args: argparse.Namespace):
    """The JobEngine the engine flags describe (inline by default)."""
    from repro.jobs import DEFAULT_CACHE_DIR, JobEngine, JobOptions

    cache_dir = None
    if args.cache or args.resume or args.cache_dir is not None:
        cache_dir = args.cache_dir if args.cache_dir else DEFAULT_CACHE_DIR
    return JobEngine(
        JobOptions(jobs=args.jobs, cache_dir=cache_dir, timeout=args.unit_timeout)
    )


@contextmanager
def _engine_scope(args: argparse.Namespace):
    """Build the engine and close it however the run ends."""
    engine = _engine_from_args(args)
    try:
        yield engine
    finally:
        engine.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.split("\n")[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the simulated GPUs")
    sub.add_parser("table1", help="print the paper's hardware table")

    p = sub.add_parser(
        "topology", help="thread-organization diagram (paper Figure 1)"
    )
    p.add_argument("--gpu", type=_gpu, default="4870")

    p = sub.add_parser(
        "trace", help="clause-level Gantt chart of a kernel launch"
    )
    _add_kernel_arguments(p)
    _add_launch_arguments(p)
    p.add_argument("--wavefronts", type=int, default=None)
    p.add_argument("--width", type=int, default=100)

    p = sub.add_parser("generate", help="emit a kernel's IL")
    _add_kernel_arguments(p)

    p = sub.add_parser("compile", help="compile and disassemble a kernel")
    _add_kernel_arguments(p)

    p = sub.add_parser(
        "lint", help="verify a kernel and report every diagnostic"
    )
    _add_kernel_arguments(p)
    p.add_argument(
        "--gpu", type=_gpu, default=None, help="chip supplying clause limits"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings as well as errors",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p = sub.add_parser("ska", help="static analysis report")
    _add_kernel_arguments(p)
    p.add_argument("--gpu", type=_gpu, default="4870")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on verifier warnings as well as errors",
    )

    p = sub.add_parser("time", help="simulate a kernel launch")
    _add_kernel_arguments(p)
    _add_launch_arguments(p)
    _add_telemetry_argument(p)

    p = sub.add_parser("advise", help="time a kernel and print advice")
    _add_kernel_arguments(p)
    _add_launch_arguments(p)
    _add_telemetry_argument(p)

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("id", choices=sorted(BENCHMARKS))
    speed = p.add_mutually_exclusive_group()
    speed.add_argument("--full", action="store_true")
    speed.add_argument(
        "--fast",
        action="store_true",
        help="subsampled sweeps (the default; explicit for scripts)",
    )
    p.add_argument("--chart", action="store_true")
    p.add_argument("--save", metavar="DIR")
    _add_telemetry_argument(p)
    _add_jobs_arguments(p)

    p = sub.add_parser("suite", help="run figures and check paper claims")
    p.add_argument("--figures", nargs="*", default=None)
    speed = p.add_mutually_exclusive_group()
    speed.add_argument("--full", action="store_true")
    speed.add_argument(
        "--fast",
        action="store_true",
        help="subsampled sweeps (the default; explicit for scripts)",
    )
    p.add_argument("--out", metavar="DIR")
    _add_telemetry_argument(p)
    _add_jobs_arguments(p)

    p = sub.add_parser(
        "grid", help="(inputs x ratio) knee-invariance grid on one chip"
    )
    p.add_argument(
        "--gpu", type=_gpu, default="4870", help="chip or card name"
    )
    p.add_argument(
        "--inputs", type=int, nargs="+", default=[4, 8, 16, 32]
    )
    p.add_argument(
        "--ratio-max", type=float, default=8.0, help="sweep 0.25..MAX"
    )
    p.add_argument(
        "--ratio-step", type=float, default=0.25, help="sweep increment"
    )
    p.add_argument(
        "--dtype", choices=[d.value for d in DataType], default="float"
    )
    p.add_argument(
        "--mode",
        choices=[m.value for m in ShaderMode] + ["ps", "cs"],
        default="pixel",
    )
    p.add_argument(
        "--domain", type=int, nargs=2, default=(1024, 1024), metavar=("W", "H")
    )
    p.add_argument("--iterations", type=int, default=5000)
    p.add_argument("--csv", metavar="FILE", help="also save the grid CSV")
    _add_telemetry_argument(p)
    _add_jobs_arguments(p)

    p = sub.add_parser(
        "cache",
        help="inspect or clean the result and compiled-program logs",
    )
    p.add_argument("action", choices=("stats", "gc", "clear"))
    p.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="cache root (default results/cache)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable stats"
    )

    p = sub.add_parser(
        "stats", help="summarize a telemetry manifest (JSONL)"
    )
    p.add_argument("manifest", help="manifest file written by --telemetry")
    p.add_argument(
        "--top", type=int, default=10, help="hottest spans to list"
    )

    p = sub.add_parser(
        "profile",
        help="run one kernel and print per-stage time attribution",
    )
    _add_kernel_arguments(p)
    _add_launch_arguments(p)
    _add_telemetry_argument(p)
    p.add_argument(
        "--top", type=int, default=10, help="hottest spans to list"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # ``--telemetry`` records the whole invocation; ``profile`` records
    # in-memory even without a manifest path so it has spans to render.
    telemetry_path = getattr(args, "telemetry", None)
    recorder = (
        telemetry.recording(
            telemetry_path,
            argv=list(argv) if argv is not None else sys.argv[1:],
            config=SimConfig(),
        )
        if telemetry_path is not None or args.command == "profile"
        else nullcontext()
    )
    try:
        with recorder:
            code = _dispatch(args)
    except (
        CALError, SimulationError, KernelSourceError, ILValidationError
    ) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1
    if telemetry_path is not None and code == 0:
        print(f"telemetry manifest: {telemetry_path}")
    return code


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "devices":
        for gpu in all_gpus():
            print(Device(gpu).info())
        return 0

    if args.command == "table1":
        print(hardware_feature_table())
        return 0

    if args.command == "topology":
        from repro.arch import thread_organization

        print(thread_organization(args.gpu))
        return 0

    if args.command == "trace":
        from repro.sim import LaunchConfig, render_gantt, trace_launch

        kernel = _kernel_from_args(args)
        program = compile_kernel(kernel, args.gpu)
        launch = LaunchConfig(
            domain=tuple(args.domain),
            mode=kernel.mode,
            block=tuple(args.block),
            iterations=args.iterations,
        )
        events = trace_launch(
            program, args.gpu, launch, max_wavefronts=args.wavefronts
        )
        print(render_gantt(events, width=args.width))
        return 0

    if args.command == "generate":
        print(emit_il(_kernel_from_args(args)), end="")
        return 0

    if args.command == "compile":
        program = compile_kernel(_kernel_from_args(args))
        print(disassemble(program))
        return 0

    if args.command == "lint":
        import json as _json

        from repro.verify import lint_kernel

        kernel = _kernel_from_args(args)
        report = lint_kernel(kernel, args.gpu)
        if args.json:
            print(_json.dumps(report.to_json(), indent=2))
        else:
            print(report.format())
        return report.exit_code(strict=args.strict)

    if args.command == "ska":
        # Unverified compile: analyze() reports the findings instead.
        kernel = _kernel_from_args(args)
        program = compile_kernel(kernel, verify=False)
        report = analyze(program, args.gpu, source=kernel)
        print(format_report(report))
        if report.error_count or (args.strict and report.warning_count):
            return 1
        return 0

    if args.command in ("time", "advise"):
        kernel = _kernel_from_args(args)
        event = time_kernel(
            Device(args.gpu),
            kernel,
            domain=tuple(args.domain),
            block=tuple(args.block),
            iterations=args.iterations,
        )
        print(
            f"{kernel.name} on {args.gpu.short_card}: {event.seconds:.4f} s "
            f"({args.iterations} iterations), bound={event.bottleneck.value}"
        )
        print(f"  {event.counters.summary()}")
        if args.command == "advise":
            from repro.apps import advise as _advise

            for suggestion in _advise(event.result):
                print(f"  * {suggestion}")
        return 0

    if args.command == "figure":
        with _engine_scope(args) as engine:
            result = run_benchmark(args.id, fast=not args.full, engine=engine)
        if args.telemetry:
            result.manifest = args.telemetry
        print(result.format_table())
        if args.chart:
            print()
            print(ascii_chart(result))
        if args.save:
            directory = Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            result.save(directory / f"{args.id}.json")
            (directory / f"{args.id}.csv").write_text(result.to_csv())
        return 0

    if args.command == "suite":
        # The run is already being recorded at main() level when
        # --telemetry is set, so only stamp + save here (run_suite's own
        # telemetry_out would open a second, nested recording).
        with _engine_scope(args) as engine:
            results = run_suite(
                figures=args.figures, fast=not args.full, engine=engine
            )
        for result in results.values():
            if args.telemetry:
                result.manifest = args.telemetry
            if args.out:
                directory = Path(args.out)
                directory.mkdir(parents=True, exist_ok=True)
                result.save(directory / f"{result.name}.json")
        print(experiment_report(results, markdown=False))
        return 0

    if args.command == "grid":
        from repro.suite import alu_fetch_grid, knees_by_input

        steps = int(round(args.ratio_max / args.ratio_step))
        ratios = tuple(
            round(args.ratio_step * k, 10) for k in range(1, steps + 1)
        )
        with _engine_scope(args) as engine:
            grid = alu_fetch_grid(
                args.gpu,
                inputs=tuple(args.inputs),
                ratios=ratios,
                dtype=DataType.from_name(args.dtype),
                mode=ShaderMode.from_name(args.mode),
                domain=tuple(args.domain),
                iterations=args.iterations,
                engine=engine,
            )
        print(grid.to_csv(), end="")
        knees = knees_by_input(grid)
        print()
        for n, knee in sorted(knees.items()):
            label = f"{knee:g}" if knee is not None else "none"
            print(f"knee @ {n} inputs: {label}")
        if args.csv:
            Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
            Path(args.csv).write_text(grid.to_csv())
        return 0

    if args.command == "cache":
        import json as _json

        from repro.compiler.cache import ProgramStore
        from repro.jobs import DEFAULT_CACHE_DIR, ResultCache

        cache = ResultCache(args.dir if args.dir else DEFAULT_CACHE_DIR)
        # The compiled-program log shares the result log's root and
        # its RunLedger maintenance, so one command covers both.
        programs = ProgramStore(cache.root)
        if args.action == "stats":
            stats = cache.stats()
            p_entries, p_bytes, p_stale = programs.scan()
            if args.json:
                payload = stats.to_json()
                payload["programs"] = {
                    "entries": p_entries,
                    "bytes": p_bytes,
                    "stale": p_stale,
                }
                print(_json.dumps(payload, indent=2))
            else:
                print(f"cache root: {cache.root}")
                print(
                    f"entries: {stats.entries}  "
                    f"({stats.bytes / 1024:.1f} KiB, {stats.stale} stale)"
                )
                for figure, count in sorted(stats.by_figure.items()):
                    print(f"  {figure}: {count}")
                print(
                    f"programs: {p_entries}  "
                    f"({p_bytes / 1024:.1f} KiB, {p_stale} stale)"
                )
        elif args.action == "gc":
            print(f"removed {cache.gc()} stale entries from {cache.root}")
            print(f"removed {programs.gc()} stale compiled programs")
        else:
            print(f"removed {cache.clear()} entries from {cache.root}")
            print(f"removed {programs.clear()} compiled programs")
        return 0

    if args.command == "stats":
        try:
            records = telemetry.read_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            print(f"repro stats: {exc}", file=sys.stderr)
            return 1
        print(telemetry.summarize_manifest(records, top=args.top))
        return 0

    if args.command == "profile":
        kernel = _kernel_from_args(args)
        event = time_kernel(
            Device(args.gpu),
            kernel,
            domain=tuple(args.domain),
            block=tuple(args.block),
            iterations=args.iterations,
        )
        print(
            f"{kernel.name} on {args.gpu.short_card}: {event.seconds:.4f} s, "
            f"bound={event.bottleneck.value}"
        )
        print()
        print(
            telemetry.profile_report(
                telemetry.get_tracer(), telemetry.metrics(), top=args.top
            )
        )
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
