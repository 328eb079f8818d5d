#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a full-resolution suite run.

Run:  python tools/generate_experiments_md.py [--fast]

Runs every figure's micro-benchmark at the paper's sweep resolution,
evaluates the encoded paper claims, and writes the paper-vs-measured
record the repository ships as EXPERIMENTS.md (plus JSON/CSV data under
``results/figures/``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis import find_knee
from repro.arch import all_gpus
from repro.reporting import ascii_chart, check_expectations
from repro.reporting.tables import render_table
from repro.suite import run_suite
from repro.suite.runner import BENCHMARKS
from repro.verify import lint_kernel

REPO = Path(__file__).resolve().parent.parent

FIGURE_NOTES = {
    "fig7": (
        "ALU:Fetch ratio sweep, 16 inputs, 1024x1024, texture inputs. "
        "Key paper numbers: pixel-mode knees ~1.25 (float) / ~5.0 (float4) "
        "on RV670/RV770, ~9.0 on RV870 float4; compute 64x1 plateaus above "
        "pixel; float and float4 converge once ALU-bound."
    ),
    "fig8": (
        "Same sweep with a 4x16 compute block. Paper: RV770 float4 "
        "improves ~3x, RV870 ~4x over the naive 64x1 walk. Measured "
        "improvement is ~2x — the direction and significance hold, the "
        "magnitude is the one known shortfall of the tiled-line cache "
        "model (see Deviations)."
    ),
    "fig9": (
        "Global-memory inputs with pixel streaming stores. Paper: RV670 "
        "global reads are dramatically slower than its texture path; "
        "RV770/RV870 match or beat their naive compute-mode texture walk."
    ),
    "fig10": (
        "Global inputs and global outputs. Paper: 'little difference' "
        "from Figure 9 — one output is negligible against 16 global reads."
    ),
    "fig11": (
        "Texture fetch latency, inputs 2-18, ALU pinned to inputs-1. "
        "Paper: linear; n float4s cost what 4n floats cost; each "
        "generation fetches faster; RV870 shows a cache-pressure jump "
        "around 9 inputs."
    ),
    "fig12": (
        "Global read latency. Paper: float ~= float4 (vectorization is "
        "free on uncoalesced reads) and a dramatic RV670 -> RV770 "
        "improvement."
    ),
    "fig13": (
        "Streaming store latency, outputs 1-8, constant GPRs. Paper: "
        "fetch-bound floor then a linear write-bound rise; vectorized "
        "outputs move 4x the data at the same per-byte cost."
    ),
    "fig14": (
        "Global write latency. Paper: float time ~1/4 of float4 (writes "
        "stream at per-float bandwidth); faster per byte than the "
        "color-buffer path."
    ),
    "fig15a": (
        "Domain sweep 256..1024 (pixel, step 8), ALU-bound kernel. "
        "Paper: time scales with threads, 3870 slowest / 5870 fastest, "
        "float == float4."
    ),
    "fig15b": "Compute-mode domain sweep (step 64, padded to blocks).",
    "fig16": (
        "Register pressure sweep (GPR ~64 -> ~10 via Figure 6 space/step). "
        "Paper: RV670/RV770 improve significantly as wavefront residency "
        "rises, RV870 slightly less, and at the highest residency cache "
        "hit rates turn some curves back up. Domain 512x512 (64 float4 "
        "streams at 1024^2 exceed the 512 MiB boards — the paper sized "
        "domains by card memory)."
    ),
    "fig17": (
        "Register pressure with a 4x16 block. Paper: RV770 still degrades "
        "at high residency but stays faster than its 64x1 counterpart."
    ),
    "fig5ctl": (
        "Clause-usage control (Figure 5): identical clause layout, all "
        "sampling up front, constant GPRs. Paper: 'a constant execution "
        "time with no performance gain' — proving Figure 16 measures "
        "register pressure."
    ),
}

KNEE_FIGURES = ("fig7", "fig8", "fig9", "fig10")


def verifier_record(name: str) -> str:
    """Lint every kernel of one figure and summarize the verifier's verdict.

    The suite run itself compiles every kernel under full verification
    (any error would have aborted it); this pass re-runs the collect-all
    linter — IL dataflow, ISA clause legality, differential lowering
    check — over the figure's kernel family (fast sweep, every series)
    so EXPERIMENTS.md carries an explicit per-figure record.
    """
    bench = BENCHMARKS[name]()
    kernels = error_count = warning_count = 0
    for spec in bench.series_specs(all_gpus()):
        for value in bench.sweep_values(fast=True):
            kernel = bench.build_kernel(value, spec).build()
            report = lint_kernel(kernel, gpu=spec.gpu)
            kernels += 1
            error_count += report.error_count
            warning_count += report.warning_count
    if error_count or warning_count:
        return (
            f"Verifier: **{error_count} error(s), {warning_count} "
            f"warning(s)** across {kernels} kernels — run `repro lint` "
            "on the failing configuration for details."
        )
    return (
        f"Verifier: clean — all {kernels} kernels of this figure pass IL "
        "dataflow, ISA clause-legality and differential lowering checks "
        "(`repro lint`, see docs/verify.md)."
    )


def knee_table(result) -> str:
    rows = []
    for series in result.series:
        analysis = find_knee(series.xs(), series.ys())
        knee = f"{analysis.knee_x:g}" if analysis.has_knee else ">8"
        rows.append(
            (
                series.label,
                f"{analysis.plateau_seconds:.2f}",
                knee,
                f"{analysis.rise_slope:.2f}",
            )
        )
    return render_table(
        ("Series", "Plateau (s)", "Knee ratio", "Rise (s/ratio)"),
        rows,
        markdown=True,
    )


def series_endpoint_table(result) -> str:
    rows = []
    for series in result.series:
        points = sorted(series.points, key=lambda p: p.x)
        rows.append(
            (
                series.label,
                f"{points[0].x:g}",
                f"{points[0].seconds:.2f}",
                f"{points[-1].x:g}",
                f"{points[-1].seconds:.2f}",
                points[-1].bound or "-",
            )
        )
    return render_table(
        ("Series", "x0", "t(x0) s", "x1", "t(x1) s", "bound@x1"),
        rows,
        markdown=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="fast sweeps")
    args = parser.parse_args(argv)

    out_dir = REPO / "results" / "figures"
    manifest_path = out_dir / "manifest.jsonl"
    started = time.time()
    results = run_suite(
        fast=args.fast, out_dir=out_dir, telemetry_out=manifest_path
    )
    elapsed = time.time() - started
    for name, result in results.items():
        (out_dir / f"{name}.txt").write_text(ascii_chart(result) + "\n")

    outcomes = check_expectations(results)
    passed = sum(1 for o in outcomes if o.passed)

    lines: list[str] = []
    lines.append("# EXPERIMENTS — paper vs. measured")
    lines.append("")
    lines.append(
        "Reproduction record for *A Micro-benchmark Suite for AMD GPUs* "
        "(Taylor & Li, ICPP 2010 Workshops) on the simulated "
        "R600/R700/Evergreen substrate (see DESIGN.md). All timings are "
        "simulated kernel-only seconds over the paper's 5000 iterations; "
        "absolute values are calibrated to the paper's ranges while every "
        "*shape* claim below is checked mechanically."
    )
    lines.append("")
    lines.append(
        f"Generated by `python tools/generate_experiments_md.py"
        f"{' --fast' if args.fast else ''}` "
        f"({'fast' if args.fast else 'full'} sweeps, {elapsed:.0f}s; data "
        "tables under `results/figures/*.json|csv`)."
    )
    lines.append("")
    lines.append(
        "Telemetry manifest for the whole run (spans, per-stage metrics, "
        "config hash, git SHA): `results/figures/manifest.jsonl` — "
        "summarize with `python -m repro stats "
        "results/figures/manifest.jsonl` (see docs/telemetry.md)."
    )
    lines.append("")
    lines.append("## Claim checklist")
    lines.append("")
    lines.append(f"**{passed}/{len(outcomes)} encoded paper claims hold.**")
    lines.append("")
    rows = [
        (
            o.expectation.figure,
            o.expectation.claim,
            o.measured,
            "PASS" if o.passed else "DEVIATES",
        )
        for o in outcomes
    ]
    lines.append(
        render_table(
            ("Figure", "Paper claim", "Measured", "Status"),
            rows,
            markdown=True,
        )
    )
    lines.append("")

    lines.append("## Per-figure record")
    lines.append("")
    for name in sorted(results, key=lambda n: (len(n), n)):
        result = results[name]
        lines.append(f"### {name} — {result.title}")
        lines.append("")
        note = FIGURE_NOTES.get(name)
        if note:
            lines.append(note)
            lines.append("")
        if result.manifest:
            # As run_suite recorded it; a saved figure holds it relative
            # to out_dir, so resolve either form against out_dir.
            manifest_rel = (out_dir / result.manifest).relative_to(REPO)
            lines.append(f"Telemetry manifest: `{manifest_rel}`")
            lines.append("")
        lines.append(verifier_record(name))
        lines.append("")
        if name in KNEE_FIGURES:
            lines.append(knee_table(result))
        else:
            lines.append(series_endpoint_table(result))
        lines.append("")

    lines.append("## Known deviations")
    lines.append("")
    lines.append(
        "* **Figure 8 magnitude.** The paper reports ~3x (RV770) and ~4x "
        "(RV870) float4 improvement from the 4x16 block; our tiled-line "
        "cache model yields ~2x. The 64-byte line holds only a 2x2 float4 "
        "tile, capping the overfetch mechanism at 2x; reproducing the "
        "full factor would need a finer model of the texture unit's "
        "sub-line transaction waste. Direction, significance and the "
        "'one block size does not fit all GPUs' conclusion all hold."
    )
    lines.append(
        "* **Figure 11 RV870 jump at 9 inputs.** The paper attributes a "
        "step to an L1 hit-rate drop; our analytic cache model produces a "
        "smooth capacity-pressure degradation instead of a sharp step at "
        "exactly 9 inputs. The linearity, slopes and generation ordering "
        "all hold."
    )
    lines.append(
        "* **Absolute seconds.** Within ~10-40% of the paper's plot "
        "values where those are legible (e.g. Figure 15a: 3870 ~32s vs "
        "~35s in the paper; Figure 7 float4 pixel plateaus 13-25s vs "
        "~17-45s). The substrate is a calibrated simulator, not the "
        "authors' silicon; we claim shapes, not microseconds."
    )
    lines.append(
        "* **Figure 16 'ratio 4.0'.** The paper states the experiment "
        "uses ALU:Fetch ratio 4.0 while §III-A defines the SKA convention "
        "where 4 raw ALU ops per fetch report as 1.0. We read Figure 16's "
        "4.0 as the raw instruction ratio (SKA 1.0, inside the 'good "
        "band'): a kernel at SKA 4.0 would be so deeply ALU-bound that "
        "register pressure could not produce the figure's large swings."
    )
    lines.append("")

    (REPO / "EXPERIMENTS.md").write_text("\n".join(lines))
    print(f"wrote EXPERIMENTS.md ({passed}/{len(outcomes)} claims pass)")
    return 0 if passed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
