"""Run one workload of the repro benchmark, or compare saved runs.

Measure (the last stdout line is the JSON result)::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload suite-pool --seed 1 --trace 1 --out runs.jsonl

Compare (medians, quartiles, spreads; deltas and bound checks given two)::

    python3 perfbench/run.py --compare before.jsonl [after.jsonl]

With ``--trace 0`` the run spawns fresh interpreters, one timed pass
each, while another pass still fits in ``--seconds`` (at least one),
plus set-up probes until there are at least ``MIN_SETUPS`` set-up
samples.  Every time is scaled to a host at reference speed: the
host's speed changes in phases longer than a run, so each pass times a
fixed loop (``workloads.reference``) between its figures, and its
times are multiplied by ``REFERENCE_S`` over that loop's mean time.
Each metric is the median over passes; the latency percentiles are
taken over the requests of all passes.  With ``--trace 1`` it runs
one untraced and one traced pass and reports the per-layer metrics of
the traced one.  Workload definitions are in ``workloads.py``.  The
suite has no random input, so ``--seed`` is recorded but changes
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    FIGURES_DIR, REFERENCE_S, ROOT, WORK_DIR, WORKLOADS, reference,
)

#: end-to-end metric -> unit (bounds live in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}
MIN_SETUPS = 15
CHILD_TIMEOUT_S = 175


class BenchError(RuntimeError):
    """The harness itself failed; no result is printed."""


def _timeout(_signum, _frame):
    raise BenchError(f"run exceeded {CHILD_TIMEOUT_S} s")


def calibrate() -> float:
    """Mean of five ``reference()`` times, for ``env.calib_s``."""
    return statistics.mean(reference() for _ in range(5))


def revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def spawn(workload: str, mode: str,
          cache_dir: Path | None = None) -> tuple[float, dict]:
    """Run ``child.py`` to completion; returns (set-up seconds, its JSON)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, mode,
         str(cache_dir) if cache_dir else "-"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    )
    setup = None
    lines = []
    try:
        for line in proc.stdout:
            if setup is None and line.strip() == "ready":
                setup = perf_counter() - start
            else:
                lines.append(line)
        proc.wait()
    finally:
        if proc.poll() is None:
            # The child's own pool workers share its process group.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}")
    return (setup if setup is not None else 0.0), json.loads(lines[-1])


def pass_in(workload: str, mode: str) -> tuple[float, dict]:
    """One pass; suite-pool gets an empty cache directory of its own."""
    if workload != "suite-pool":
        return spawn(workload, mode)
    scratch = WORK_DIR / f"pool-{os.getpid()}-{mode}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return spawn(workload, mode, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def speed(reference_s: list[float]) -> float:
    """Host speed over reference speed, from ``reference()`` samples."""
    return REFERENCE_S / statistics.mean(reference_s)


def measure(workload: str, seconds: int) -> tuple[dict, list[dict]]:
    """Timed passes and set-up probes; returns (metric values, passes)."""
    begun = perf_counter()
    passes: list[dict] = []
    setups: list[float] = []
    longest = 0.0
    while not passes or perf_counter() - begun + longest <= seconds:
        started = perf_counter()
        setup, done = pass_in(workload, "time")
        longest = max(longest, perf_counter() - started)
        setups.append(setup * speed(done["setup_reference_s"]))
        passes.append(done)
    while len(setups) < MIN_SETUPS:
        setup, probe = pass_in(workload, "probe")
        setups.append(setup * speed(probe["setup_reference_s"]))
    for done in passes:
        done["speed"] = speed(done["reference_s"])
    latencies = [
        ms * done["speed"] for done in passes for ms in done["latencies_ms"]
    ]
    attempted = sum(done["attempted"] for done in passes)
    failed = sum(done["failed"] for done in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(d["wall_s"] * d["speed"] for d in passes),
        "points_per_s": statistics.median(
            d["points"] / (d["wall_s"] * d["speed"]) for d in passes
        ),
        "cpu_s": statistics.median(d["cpu_s"] * d["speed"] for d in passes),
        "latency_ms_p50": percentile(latencies, 50),
        "latency_ms_p95": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in passes),
        "success_frac": (attempted - failed) / attempted if attempted else 0.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, passes


def trace(workload: str) -> tuple[dict, list[dict]]:
    """One untraced and one traced pass; the per-layer metrics."""
    plain = pass_in(workload, "time")[1]
    traced = pass_in(workload, "trace")[1]
    for done in (plain, traced):
        done["speed"] = speed(done["reference_s"])
    values = {name: tuple(pair) for name, pair in traced["layers"].items()}
    overhead = (traced["wall_s"] * traced["speed"]) / (plain["wall_s"] * plain["speed"])
    values["trace.overhead_frac"] = (overhead - 1, "frac")
    return values, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append this run to a JSONL file")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="RUNS")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    missing = [
        p for p in (ROOT / "src" / "repro" / "__init__.py", FIGURES_DIR)
        if not p.exists()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        calib = [calibrate()]
        if args.trace:
            metrics, passes = trace(args.workload)
        else:
            metrics, passes = measure(args.workload, args.seconds)
        calib.append(calibrate())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": revision(),
        "calib_s": statistics.mean(calib),
        "pass_wall_s": [done["wall_s"] for done in passes],
        "pass_speed": [done["speed"] for done in passes],
    }
    if args.trace:
        metrics["env.calib_s"] = (env["calib_s"], "s")
    attempted = sum(done["attempted"] for done in passes)
    failed = sum(done["failed"] for done in passes)
    for done in passes:
        for problem in done["problems"]:
            print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if args.out is not None:
        with args.out.open("a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "env": env, "result": result,
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
