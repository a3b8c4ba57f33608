"""flowgeo benchmark: CLI workloads timed end to end, plus a traced run
that splits the time by layer.

Usage (from the repository root):

    python3 bench/run.py --workload recover --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --capture-reference

Every CLI call runs in a fresh single-threaded Python child (bench/child.py),
one after another (a closed loop with one client), for --seconds. Each
call is checked: exit code 0, every announced artifact present, grad-check
passing for all losses, ablation rows without errors, and CSVs
byte-identical across the repeats of one invocation. Before the timed loop
one call at the reference seed is compared against bench/reference.json;
it also warms the file cache and bytecode cache. With --trace 1 the loop
alternates untraced and traced calls, and reports per-layer counters
instead of the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A full record, with the machine and settings, goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

REFERENCE_SEED = 7  # the README's grad-check example seed
REFERENCE_RTOL = 1e-4
MIN_CALLS = 2  # timed calls per invocation (per kind when tracing)
CALL_TIMEOUT_S = 150

README_SCENE = """family=affine-inverse-shift
a=0.21
b=0.0013
c=0.0009
ego_translation=0.31,0.02,0.42
"""

# tests/conftest.py::dynamic_bundle as a scene file
DYNAMIC_SCENE = README_SCENE + """dynamic_shape=rect
dynamic_center=30,26
dynamic_half_size=10,8
dynamic_translation=0,0.2,0
fx=100
fy=98
cx=48
cy=36
"""

# single-threaded numerics; DCPI_THREADS is set per run to the usable CPUs
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    command: str
    scene: str
    size: str
    args: tuple
    iters: int  # --iters per descent run; 0 for grad-check
    tiny_iters: int
    csvs: tuple  # outputs that must repeat byte for byte
    artifacts: tuple  # files every call must announce
    why: str


WORKLOADS = {
    "recover": Workload(
        "recover-depth", README_SCENE, "96x72", ("--weights", "1,1,0.1,0"), 300, 100,
        ("recover-trace.csv",), ("recover-trace.csv", "recover-depth.pfm", "run-manifest.txt"),
        "one large tape per iteration (photometric, CGDC, DPC); triangulates once",
    ),
    "coadjust": Workload(
        "co-adjust", DYNAMIC_SCENE, "96x72", ("--weights", "0,1,0.1,1"), 400, 60,
        ("co_adjust-trace.csv",),
        ("co_adjust-trace.csv", "co_adjust-depth.pfm", "co_adjust-flow.flo", "run-manifest.txt"),
        "two small tapes plus numpy triangulation and rigid flow every iteration; no photometric term",
    ),
    "gradcheck": Workload(
        "grad-check", README_SCENE, "16x12", (), 0, 0,
        ("grad_check.csv",), ("grad_check.csv", "run-manifest.txt"),
        "~700 tiny forward graphs against 5 backward calls: per-node tape overhead",
    ),
    "ablate": Workload(
        "ablate", README_SCENE, "48x36", (), 200, 30,
        ("ablation.csv",), ("ablation.csv", "run-manifest.txt"),
        "four independent photometric recover runs: the loop a worker pool can split",
    ),
}


# ---------------------------------------------------------------------------
# machine and settings


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]) or "unknown"
    return head or "unknown (not a git checkout)"


def machine_info():
    model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": _usable_cpus(),
        "cpu_model": model or platform.processor(),
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["DCPI_THREADS"] = str(_usable_cpus())
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------------
# one CLI call in a child process


def _size(text):
    w, h = text.split("x")
    return int(h), int(w)


def argv_for(w: Workload, scene_path, seed, out_dir, tiny):
    argv = [w.command, "--scene", str(scene_path), "--size", w.size, *w.args]
    if w.iters:
        argv += ["--iters", str(w.tiny_iters if tiny else w.iters)]
    return argv + ["--seed", str(seed), "--out", str(out_dir)]


def run_call(w: Workload, run_dir: Path, index, scene_path, seed, trace, tiny):
    """Run one CLI call in a fresh child; returns (record, out_dir, setup_s)."""
    out_dir = run_dir / f"call-{index}"
    spec_path = run_dir / f"call-{index}.spec.json"
    result_path = run_dir / f"call-{index}.result.json"
    height, width = _size(w.size)
    spec = {
        "src": str(SRC),
        "scene": str(scene_path),
        "height": height,
        "width": width,
        "trace": bool(trace),
        "argv": argv_for(w, scene_path, seed, out_dir, tiny),
        "result": str(result_path),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"problem": f"call exceeded {CALL_TIMEOUT_S} s"}, out_dir, None
    if proc.returncode != 0 or not result_path.exists():
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return {"problem": f"child exited {proc.returncode}: {tail[0]}"}, out_dir, None
    record = json.loads(result_path.read_text(encoding="utf-8"))
    return record, out_dir, record["ready"] - spawned


# ---------------------------------------------------------------------------
# correctness gate and outputs


def _announced(record):
    return [Path(line[6:]) for line in record["stdout"].splitlines() if line.startswith("wrote ")]


def _rows(path):
    with open(path, encoding="ascii", newline="") as fh:
        return list(csv.DictReader(fh))


def check_call(w: Workload, record, out_dir):
    """Problems with one call (empty when it is correct)."""
    if "problem" in record:
        return [record["problem"]]
    problems = []
    if record["traceback"]:
        problems.append("traceback: " + record["traceback"].strip().splitlines()[-1])
    if "Traceback" in record["stderr"]:
        problems.append("traceback on stderr")
    if record["exit_code"] != 0:
        problems.append(f"exit code {record['exit_code']}: {record['stderr'].strip()}")
    announced = _announced(record)
    for path in announced:
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"announced artifact missing or empty: {path}")
    names = {p.name for p in announced}
    problems += [f"artifact not announced: {a}" for a in w.artifacts if a not in names]
    if problems:
        return problems
    if w.command == "grad-check":
        verdicts = [line for line in record["stdout"].splitlines() if "max_rel_error=" in line]
        if len(verdicts) != 5 or not all(v.endswith("passed=True") for v in verdicts):
            problems.append("grad-check did not pass for all five losses: " + "; ".join(verdicts))
    if w.command == "ablate":
        errors = [r["error"] for r in _rows(out_dir / "ablation.csv") if r["error"]]
        problems += [f"ablation row failed: {e}" for e in errors]
    return problems


def csv_digests(w: Workload, out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in w.csvs}


def outputs(w: Workload, record, out_dir, tiny):
    """Work done and quality of one correct call, read from its artifacts."""
    if w.command == "grad-check":
        rows = _rows(out_dir / "grad_check.csv")
        losses = {r["loss"] for r in rows}
        errors = [
            float(line.split("max_rel_error=")[1].split()[0])
            for line in record["stdout"].splitlines()
            if "max_rel_error=" in line
        ]
        # one base build_loss per loss, then a +/- pair per checked coordinate
        return {"evals": len(losses) + 2 * len(rows), "grad_max_rel_err": max(errors)}
    iters = w.tiny_iters if tiny else w.iters
    if w.command == "ablate":
        rows = _rows(out_dir / "ablation.csv")
        abs_rel = statistics.fmean(float(r["abs_rel"]) for r in rows)
        return {"iterations": iters * len(rows), "abs_rel": abs_rel}
    last = _rows(out_dir / w.csvs[0])[-1]
    return {"iterations": int(last["iteration"]), "abs_rel": float(last["abs_rel"])}


def reference_values(w: Workload, out_dir):
    """Final numbers compared against bench/reference.json."""
    if w.command == "grad-check":
        values = {}
        for r in _rows(out_dir / "grad_check.csv"):
            a = float(r["analytic"])
            values[f"{r['loss']}.rows"] = values.get(f"{r['loss']}.rows", 0) + 1
            values[f"{r['loss']}.sum_analytic"] = values.get(f"{r['loss']}.sum_analytic", 0.0) + a
            values[f"{r['loss']}.sum_abs_analytic"] = values.get(f"{r['loss']}.sum_abs_analytic", 0.0) + abs(a)
        return values
    if w.command == "ablate":
        return {
            f"{r['config']}.{k}": float(r[k])
            for r in _rows(out_dir / "ablation.csv")
            for k in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1")
        }
    last = _rows(out_dir / w.csvs[0])[-1]
    return {k: float(v) for k, v in last.items() if k != "iteration"}


def compare_reference(name, values):
    if not REFERENCE.exists():
        return [f"{REFERENCE.name} is missing; run --capture-reference"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if name not in reference:
        return [f"no reference values for {name}"]
    entry = reference[name]
    problems = []
    for key, ref in entry["values"].items():
        got = values.get(key)
        if got is None or not abs(got - ref) <= entry["rtol"] * abs(ref) + 1e-12:
            problems.append(f"reference mismatch {key}: {got!r} vs {ref!r} (rtol {entry['rtol']})")
    return problems


# ---------------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    n = len(values)
    rank = math.ceil(q * n)
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def end_to_end_metrics(w: Workload, calls, attempted, failed):
    """calls: dicts with setup_s, run_s, rss_mb and the outputs of each correct timed call."""
    m = {
        "setup_s": (_median([c["setup_s"] for c in calls]), "s", len(calls)),
        "run_s": (_median([c["run_s"] for c in calls]), "s", len(calls)),
        "peak_rss_mb": (_median([c["rss_mb"] for c in calls]), "MB", len(calls)),
        "fail_frac": (failed / attempted, "ratio", attempted),
    }
    if w.command == "grad-check":
        m["evals_per_s"] = (_median([c["evals"] / c["run_s"] for c in calls]), "1/s", len(calls))
        m["grad_max_rel_err"] = (max((c["grad_max_rel_err"] for c in calls), default=float("nan")), "ratio", len(calls))
    else:
        m["iters_per_s"] = (_median([c["iterations"] / c["run_s"] for c in calls]), "1/s", len(calls))
        m["abs_rel"] = (_median([c["abs_rel"] for c in calls]), "ratio", len(calls))
    return m


def _per_call_layer_metrics(summary, iterations):
    m = {}
    for key, f in summary["functions"].items():
        m[f"{key}_s"] = (f["total_s"], "s")
        m[f"{key}.calls"] = (f["calls"], "count")
    for layer, acc in summary["layers"].items():
        m[f"{layer}.calls"] = (acc["calls"], "count")
        m[f"{layer}.inclusive_s"] = (acc["inclusive_s"], "s")
        m[f"{layer}.self_s"] = (acc["self_s"], "s")
    writes = [f["total_s"] for k, f in summary["functions"].items() if k.startswith("io_formats.write_")]
    m["io_formats.write_s"] = (sum(writes), "s")
    m["io_formats.bytes_written"] = (summary["bytes_written"], "bytes")
    m["autodiff.tape_nodes"] = (summary["tape_nodes"], "count")
    m["autodiff.tape_bytes"] = (summary["tape_bytes"], "bytes")
    pixels = summary["tri_pixels"]
    m["triangulate.valid_frac"] = (summary["tri_valid"] / pixels if pixels else 0.0, "ratio")
    m["optim.iterations"] = (iterations, "count")
    return m


def per_layer_metrics(traced, untraced_run_s):
    """traced: (summary, outputs, run_s) of each traced call. Values are
    medians per CLI call; backward percentiles pool every backward span."""
    per_call = [_per_call_layer_metrics(s, o.get("iterations", 0)) for s, o, _ in traced]
    m = {}
    for name, (_, unit) in per_call[0].items():
        m[name] = (_median([c[name][0] for c in per_call]), unit, len(per_call))
    backward = [ms for s, _, _ in traced for ms in s["backward_ms"]]
    for q, label in ((0.5, "p50"), (0.95, "p95")):
        value = _percentile(backward, q)
        if value is not None:
            m[f"autodiff.backward_{label}_ms"] = (value, "ms", len(backward))
    traced_run_s = _median([r for _, _, r in traced])
    m["trace_overhead_frac"] = (traced_run_s / _median(untraced_run_s) - 1.0, "ratio", len(traced))
    return m


# ---------------------------------------------------------------------------
# one workload


def _fresh_run_dir(dirname, w: Workload):
    """Empty scratch directory holding the workload's scene file."""
    run_dir = OUT / dirname
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scene_path = run_dir / "scene.txt"
    scene_path.write_text(w.scene, encoding="ascii")
    return run_dir, scene_path


def measure(name, seed, seconds, trace, tiny, log):
    """Reference call, then the timed (or traced) loop. Returns a report dict."""
    w = WORKLOADS[name]
    run_dir, scene_path = _fresh_run_dir(f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}", w)
    problems, attempted, failed = [], 0, 0

    def attempt(index, call_seed, traced):
        nonlocal attempted, failed
        record, out_dir, setup_s = run_call(w, run_dir, index, scene_path, call_seed, traced, tiny)
        attempted += 1
        issues = check_call(w, record, out_dir)
        if issues:
            failed += 1
            problems.extend(f"call {index}: {p}" for p in issues)
        return record, out_dir, setup_s, not issues

    # reference call: correctness against recorded values, and warm-up
    record, out_dir, _, ok = attempt("ref", REFERENCE_SEED, False)
    if ok and not tiny:
        issues = compare_reference(name, reference_values(w, out_dir))
        if issues:
            failed += 1
            problems.extend(f"call ref: {p}" for p in issues)
    shutil.rmtree(out_dir, ignore_errors=True)

    timed, traced, first_digests = [], [], None
    started = time.monotonic()
    index = 0
    while time.monotonic() - started < seconds or index < (2 * MIN_CALLS if trace else MIN_CALLS):
        use_trace = bool(trace) and index % 2 == 1
        record, out_dir, setup_s, ok = attempt(index, seed, use_trace)
        if ok:
            digests = csv_digests(w, out_dir)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                failed += 1
                problems.append(f"call {index}: CSV output differs from the first correct call")
                ok = False
        if ok:
            out = outputs(w, record, out_dir, tiny)
            if use_trace:
                traced.append((record["trace"], out, record["run_s"]))
            else:
                timed.append({
                    "setup_s": setup_s,
                    "run_s": record["run_s"],
                    "rss_mb": record["peak_rss_kib"] * 1024 / 1e6,
                    **out,
                })
        shutil.rmtree(out_dir, ignore_errors=True)
        index += 1

    if timed and (traced or not trace):
        if trace:
            metrics = per_layer_metrics(traced, [c["run_s"] for c in timed])
        else:
            metrics = end_to_end_metrics(w, timed, attempted, failed)
    else:
        metrics = {}
        problems.append("no correct calls to measure")
    for p in problems:
        log(f"{name}: FAIL {p}")
    shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": name,
        "why": w.why,
        "argv": argv_for(w, "scene.txt", seed, "OUT", tiny),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v[0], "unit": v[1], "n": v[2]} for k, v in metrics.items()},
        "timed_calls": timed,
    }


def capture_reference(log):
    """Record the reference-seed outputs of every workload at this commit."""
    reference = {}
    for name, w in WORKLOADS.items():
        run_dir, scene_path = _fresh_run_dir(f"reference-{name}", w)
        record, out_dir, _ = run_call(w, run_dir, "ref", scene_path, REFERENCE_SEED, False, False)
        problems = check_call(w, record, out_dir)
        if problems:
            for p in problems:
                log(f"{name}: FAIL {p}")
            return 1
        reference[name] = {
            "seed": REFERENCE_SEED,
            "rtol": REFERENCE_RTOL,
            "values": reference_values(w, out_dir),
        }
        shutil.rmtree(run_dir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    log(f"wrote {REFERENCE}")
    return 0


# ---------------------------------------------------------------------------
# reporting


def contract_names(name, trace):
    """Metric names the last line carries for a workload listed in
    BENCHMARK.json; None for a workload it does not list."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    if name not in {wl["name"] for wl in spec["workloads"]}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(report):
    print(f"== {report['workload']}: {' '.join(report['argv'])}")
    print(f"   attempted={report['attempted']} failed={report['failed']} correct={report['correct']}")
    for key, m in report["metrics"].items():
        if m["value"] == 0 and key != "fail_frac":  # layers this workload never calls
            continue
        print(f"   {key} = {_fmt(m['value'])} {m['unit']} (n={m['n']})")


def write_results(tag, payload):
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{tag}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="few iterations (self-check)")
    parser.add_argument("--capture-reference", action="store_true",
                        help=f"record reference outputs at seed {REFERENCE_SEED} into {REFERENCE.name}")
    args = parser.parse_args(argv)

    def log(message):
        print(message, file=sys.stderr, flush=True)

    if not (SRC / "flowgeo" / "cli.py").is_file():
        log(f"error: no flowgeo sources under {SRC}")
        return 2
    if args.capture_reference:
        return capture_reference(log)
    if args.workload is None:
        parser.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    settings = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "env": {**PINNED_ENV, "DCPI_THREADS": str(_usable_cpus())},
        "closed_loop_clients": 1,
    }
    reports = []
    for name in names:
        report = measure(name, args.seed, args.seconds, args.trace, args.tiny, log)
        print_report(report)
        reports.append(report)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    path = write_results(tag, {"machine": machine_info(), "settings": settings, "reports": reports})
    print(f"results: {path.relative_to(ROOT)}")

    if len(reports) == 1:
        report = reports[0]
        keep = contract_names(report["workload"], args.trace)
        metrics = {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in report["metrics"].items()
            if keep is None or k in keep
        }
        missing = [k for k in keep or () if k not in metrics]
        if missing and report["correct"]:
            log(f"error: metrics not measured: {', '.join(missing)}")
            return 1
    else:
        metrics = {
            f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
            for r in reports
            for k, m in r["metrics"].items()
        }
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
