"""Text rendering of SKA reports."""

from __future__ import annotations

from repro.ska.analyzer import GOOD_RATIO_HIGH, GOOD_RATIO_LOW, SKAReport


def format_report(report: SKAReport) -> str:
    """Render a report in the spirit of the SKA's summary pane."""
    stats = report.stats
    lines = [
        f"Kernel: {report.kernel_name}",
        f"  GPRs used:            {stats.gpr_count}",
        f"  Clause temporaries:   {stats.clause_temp_count}",
        f"  Clauses:              {stats.num_clauses} "
        f"(TEX {stats.num_tex_clauses}, ALU {stats.num_alu_clauses}, "
        f"EXP {stats.num_export_clauses})",
        f"  Fetch instructions:   {stats.fetch_count} "
        f"({stats.global_fetch_count} global)",
        f"  ALU instructions:     {stats.bundle_count} bundles / "
        f"{stats.alu_op_count} ops (packing {stats.packing_density:.2f})",
        f"  Store instructions:   {stats.store_count} "
        f"({stats.burst_store_count} burst)",
        f"  ALU:Fetch ratio:      {report.alu_fetch_ratio:.2f} "
        + (
            "(in the good band "
            f"{GOOD_RATIO_LOW:.2f}-{GOOD_RATIO_HIGH:.2f})"
            if report.in_good_band
            else f"(outside {GOOD_RATIO_LOW:.2f}-{GOOD_RATIO_HIGH:.2f})"
        ),
        f"  Static bound guess:   {report.predicted_bound.value}",
    ]
    if report.max_wavefronts is not None:
        lines.append(f"  Wavefronts/SIMD:      {report.max_wavefronts}")
    return "\n".join(lines)
