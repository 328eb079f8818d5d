"""One pass of one workload in a fresh interpreter (started by run.py).

Usage: ``child.py <workload> <mode> <cache_dir|->`` where mode is
``time`` (one untraced pass), ``trace`` (one pass with the layer
wrappers installed) or ``probe`` (set-up only).

After set-up the child prints ``ready`` so the parent can time set-up
from process start; the last line of its output is a JSON object.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    workload, mode, cache_dir = argv
    from workloads import Workload, peak_rss_mb, reference

    work = Workload(workload, None if cache_dir == "-" else cache_dir)
    print("ready", flush=True)
    # The host's speed just after set-up, to scale setup_s by.
    setup_reference_s = [reference() for _ in range(3)]
    if mode == "probe":
        print(json.dumps({"setup_reference_s": setup_reference_s}))
        return 0

    recorder = None
    if mode == "trace":
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    done, outputs = work.run(latencies=recorder is None)
    covered_s = recorder.covered_s if recorder is not None else 0.0
    peak = peak_rss_mb()
    work.check(done, outputs)
    out = {
        "wall_s": done.wall_s,
        "cpu_s": done.cpu_s,
        "setup_reference_s": setup_reference_s,
        "reference_s": done.reference_s,
        "latencies_ms": done.latencies_ms,
        "points": done.points,
        "attempted": done.attempted,
        "failed": done.failed,
        "problems": done.problems,
        "peak_rss_mb": peak,
    }
    if recorder is not None:
        out["layers"] = layers.metrics(recorder, done.wall_s, covered_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
