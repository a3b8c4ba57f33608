"""Self-check of the benchmark: run every workload with few iterations and
check that the named metrics come out with their units, and that the
computed tape counters repeat exactly from one traced run to the next.

Usage (from the repository root): python3 bench/selfcheck.py
Exits 0 when every check holds; prints one line per problem otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

sys.path.insert(0, str(BENCH))
from run import REFERENCE_SEED, WORKLOADS  # noqa: E402

# grad-check's verdict fails on some seeds at this commit (README, known
# issue); the reference seed is one where all five losses pass
SEED = REFERENCE_SEED

DESCENT = ("recover", "coadjust", "ablate")

# end-to-end metrics named for each workload, with units
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}
END_TO_END_DESCENT = {"iters_per_s": "1/s", "abs_rel": "ratio"}
END_TO_END_GRADCHECK = {"evals_per_s": "1/s", "grad_max_rel_err": "ratio"}

# per-layer metrics named for the traced run (zero where a layer is not called)
PER_LAYER = {
    "autodiff.backward_s": "s", "autodiff.backward.calls": "count",
    "autodiff.tape_nodes": "count", "autodiff.tape_bytes": "bytes",
    "autodiff.box3_s": "s", "autodiff.bilinear_s": "s", "autodiff.axis_diff_s": "s",
    "losses.photometric_core_s": "s", "losses.cgdc_core_s": "s",
    "losses.differential_fields_core_s": "s", "losses.dpc_core_s": "s",
    "losses.bsca_core_s": "s", "losses.smoothness_core_s": "s", "losses.depth_metrics_s": "s",
    "triangulate.triangulate_depth_s": "s", "triangulate.calls": "count",
    "triangulate.valid_frac": "ratio", "geometry.rigid_flow_s": "s",
    "geometry.rigid_flow.calls": "count", "geometry.pixel_grid.calls": "count",
    "grad.build_loss_s": "s", "grad.build_loss.calls": "count",
    "grad.rotation_entries_s": "s", "grad.finite_difference_check_s": "s",
    "optim.self_s": "s", "optim.iterations": "count", "optim.ablation_suite_s": "s",
    "scene.synthesize_s": "s", "scene.calls": "count",
    "io_formats.write_s": "s", "io_formats.bytes_written": "bytes", "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}
# descent runs make hundreds of backward calls even when tiny
PER_LAYER_DESCENT = {"autodiff.backward_p50_ms": "ms", "autodiff.backward_p95_ms": "ms"}


def run(workload, trace):
    """Run the benchmark once; returns (last-line JSON, full report)."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    results = ROOT / ".bench_out" / "results" / f"{workload}-seed{SEED}-trace{trace}-tiny.json"
    report = json.loads(results.read_text(encoding="utf-8"))["reports"][0]
    return json.loads(lines[-1]), report


def expect(problems, label, metrics, named):
    for name, unit in named.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: {name} missing")
        elif got["unit"] != unit:
            problems.append(f"{label}: {name} has unit {got['unit']!r}, expected {unit!r}")


def main():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {w["name"] for w in contract["workloads"]}
    problems = []
    for name in WORKLOADS:
        line, report = run(name, 0)
        named = dict(END_TO_END, **(END_TO_END_DESCENT if name in DESCENT else END_TO_END_GRADCHECK))
        expect(problems, f"{name} trace 0", report["metrics"], named)
        if name in listed:
            expect(problems, f"{name} last line", line["metrics"],
                   {m["name"]: m["unit"] for m in contract["end_to_end"]})

        first_line, first = run(name, 1)
        second_line, second = run(name, 1)
        named = dict(PER_LAYER, **(PER_LAYER_DESCENT if name in DESCENT else {}))
        expect(problems, f"{name} trace 1", first["metrics"], named)
        if name in listed:
            expect(problems, f"{name} last line", first_line["metrics"],
                   {m["name"]: m["unit"] for m in contract["per_layer"]})
        for key in ("autodiff.tape_nodes", "autodiff.tape_bytes"):
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b or a <= 0:
                problems.append(f"{name}: {key} does not repeat exactly: {a} vs {b}")
        for traced_line in (first_line, second_line):
            if not traced_line["correct"]:
                problems.append(f"{name}: traced run not correct")
        print(f"{name}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
