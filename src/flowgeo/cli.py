"""Command-line entry point: scene generation, verification runs, and the
desk-scale experiments, with artifacts written as .pfm/.flo/.pnm/CSV.

Every run writes a `run-manifest.txt` under --out echoing the full
configuration (including defaults the user did not set), so a run is
reconstructible from its output directory; gen-scene also writes the
scene it rendered, default camera and ego-motion included, as `scene.txt`.
Artifact paths are announced on stdout, one per line, prefixed "wrote ".
Exit codes: 0 success, 2 usage error, 1 runtime failure (one-line
diagnostic on stderr). A descent run that diverges still writes and
announces the partial trace it carries before it exits 1.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AbortedRunError, FlowGeoError
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    RigidMotion,
    rotational_flow,
    translational_flow,
)
from .grad import LOSS_IDS, LossInputs, finite_difference_check
from .io_formats import read_depth_pfm, write_csv, write_depth_pfm, write_flow, write_image_pnm
from .losses import depth_metrics, differential_fields, dpc_loss
from .optim import OptimConfig, ablation_suite, co_adjust, recover_depth
from .scene import read_scene_file, synthesize, write_scene_file
from .triangulate import triangulate_depth

# default loss-weight combination (a configuration value, not a published one)
DEFAULT_WEIGHTS = (1.0, 0.5, 0.1, 0.1)

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors end in one stderr line, as every
    other diagnostic does, instead of argparse's usage block."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parse_size(text):
    try:
        w, h = text.lower().split("x")
        width, height = int(w), int(h)
    except ValueError:
        raise UsageError(f"--size must look like 96x72, got {text!r}") from None
    if width < 3 or height < 3:
        raise UsageError("--size must be at least 3x3")
    return height, width


def _int_at_least(lowest):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_seed = _int_at_least(0)  # numpy seeds are non-negative


def _parse_weights(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("--weights must be w_p,w_c,w_d,w_b")
    try:
        w = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"non-numeric weight in {text!r}") from None
    if not all(np.isfinite(w)):
        raise UsageError(f"weights must be finite, got {text!r}")
    if min(w) < 0:
        raise UsageError("weights must be non-negative")
    return w


def _build_parser():
    parser = _Parser(
        prog="flowgeo",
        description="synthetic two-view geometry experiments: scenes, "
        "triangulated depth, differential-field checks, and field optimization",
    )
    parser.add_argument("--version", action="version", version=f"flowgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scene=True):
        if scene:
            p.add_argument("--scene", required=True, help="key=value scene file")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--size", default="96x72", help="grid size WxH")

    common(sub.add_parser("gen-scene", help="write ground-truth depth/flow/images and the scene"))
    common(sub.add_parser("triangulate", help="triangulate depth from the scene flow"))
    common(sub.add_parser("check-dpc", help="verify the divergence/depth-gradient identity"))

    p = sub.add_parser("grad-check", help="finite-difference checks for every loss")
    common(p)
    p.add_argument("--stopgrad", choices=("on", "off"), default="off")

    for name in ("recover-depth", "co-adjust"):
        p = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} experiment")
        common(p)
        p.add_argument("--weights", default=None, help="w_p,w_c,w_d,w_b")
        p.add_argument("--iters", type=_positive_int, default=2000)

    p = sub.add_parser("ablate", help="weight-grid ablation over one scene")
    common(p)
    p.add_argument("--weights", default=None, help="w_p,w_c,w_d,w_b (grid toggles w_c and w_d)")
    p.add_argument("--iters", type=_positive_int, default=800)

    p = sub.add_parser("metrics", help="depth metrics between two .pfm files")
    p.add_argument("pred", help="predicted depth .pfm")
    p.add_argument("gt", help="ground-truth depth .pfm")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    return parser


# ---------------------------------------------------------------------------
# helpers


def _load_scene(args):
    height, width = _parse_size(args.size)
    spec, camera, ego = read_scene_file(args.scene)
    if camera is None:
        camera = CameraIntrinsics(100.0, 100.0, width / 2.0, height / 2.0)
    if ego is None:
        ego = RigidMotion(np.eye(3), np.array([0.31, 0.02, 0.42]))
    bundle = synthesize(spec, camera, ego, height, width)
    return bundle, spec, camera, ego


def _announce(path):
    print(f"wrote {path}")


def _write_manifest(out_dir, args, extra=None):
    lines = [f"flowgeo-version={__version__}", f"command={args.command}"]
    for key, value in sorted(vars(args).items()):
        if key == "command":
            continue
        lines.append(f"{key}={value}")
    for key, value in sorted((extra or {}).items()):
        lines.append(f"{key}={value}")
    path = Path(out_dir) / "run-manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    _announce(path)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from_args(args, weights):
    w_p, w_c, w_d, w_b = weights
    return OptimConfig(w_p=w_p, w_c=w_c, w_d=w_d, w_b=w_b, iterations=args.iters, seed=args.seed)


def _trace_outputs(out, trace, stem):
    csv_path = out / f"{stem}-trace.csv"
    write_csv(csv_path, trace.to_csv_rows())
    _announce(csv_path)
    depth_path = out / f"{stem}-depth.pfm"
    write_depth_pfm(depth_path, trace.final_depth)
    _announce(depth_path)
    if trace.final_flow is not None:
        flow_path = out / f"{stem}-flow.flo"
        write_flow(flow_path, trace.final_flow)
        _announce(flow_path)


def _run_traced(experiment, bundle, config, out, stem):
    """Run a descent experiment and write its trace outputs. A diverged
    run writes the partial trace it carries before its error propagates."""
    try:
        trace = experiment(bundle, config)
    except AbortedRunError as exc:
        if exc.trace is not None:
            _trace_outputs(out, exc.trace, stem)
        raise
    _trace_outputs(out, trace, stem)
    return trace


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_scene(args):
    bundle, spec, camera, ego = _load_scene(args)
    out = _out_dir(args)
    write_depth_pfm(out / "depth.pfm", bundle.depth_gt)
    _announce(out / "depth.pfm")
    write_flow(out / "flow.flo", bundle.flow_gt)
    _announce(out / "flow.flo")
    write_image_pnm(out / "image_t.pnm", bundle.image_t)
    _announce(out / "image_t.pnm")
    write_image_pnm(out / "image_s.pnm", bundle.image_s)
    _announce(out / "image_s.pnm")
    write_scene_file(out / "scene.txt", spec, camera, ego)
    _announce(out / "scene.txt")
    _write_manifest(out, args)
    return 0


def _cmd_triangulate(args):
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    result = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
    write_depth_pfm(out / "depth_g.pfm", result.depth_g)
    _announce(out / "depth_g.pfm")
    rel = np.abs(result.depth_g.values / bundle.depth_gt.values - 1.0)[result.validity]
    rows = [{
        "valid_fraction": result.valid_fraction,
        "max_rel_error_vs_gt": float(rel.max()) if rel.size else float("nan"),
        "mean_rel_error_vs_gt": float(rel.mean()) if rel.size else float("nan"),
        "near_zero_denominator": int((result.degeneracy == 1).sum()),
        "negative_depth": int((result.degeneracy == 2).sum()),
        "masked_flow": int((result.degeneracy == 3).sum()),
    }]
    write_csv(out / "triangulation.csv", rows)
    _announce(out / "triangulation.csv")
    _write_manifest(out, args)
    return 0


def _cmd_check_dpc(args):
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    rot = rotational_flow(bundle.camera, bundle.motion.rotation, *bundle.shape)
    f_tra = translational_flow(bundle.flow_gt, rot)
    analytic = differential_fields(
        bundle.camera, bundle.ego_motion, bundle.depth_gt, f_tra,
        depth_gradient=bundle.analytic_depth_gradient,
    )
    discrete = differential_fields(bundle.camera, bundle.ego_motion, bundle.depth_gt, f_tra)

    def gap(fields):
        diff = np.abs(fields.c_f.values - fields.c_d.values)
        return float(diff[fields.validity].max())

    rows = [{
        "max_abs_cf_minus_cd_analytic": gap(analytic),
        "max_abs_cf_minus_cd_discrete": gap(discrete),
        "dpc_loss_analytic": dpc_loss(analytic).value,
        "dpc_loss_discrete": dpc_loss(discrete).value,
        "guard_fraction": dpc_loss(analytic).guard_fraction,
        "valid_pixels": int(analytic.validity.sum()),
    }]
    write_csv(out / "check_dpc.csv", rows)
    _announce(out / "check_dpc.csv")
    print(f"max |C^F - C^D| (analytic depth gradient): {rows[0]['max_abs_cf_minus_cd_analytic']:.3e}")
    _write_manifest(out, args)
    return 0


def _cmd_grad_check(args):
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    depth = DepthMap(bundle.depth_gt.values * rng.uniform(0.7, 1.4, size=bundle.shape))
    inputs = LossInputs.from_bundle(bundle, depth=depth)
    all_rows = []
    all_passed = True
    for loss_id in LOSS_IDS:
        report = finite_difference_check(
            loss_id, inputs, targets=("depth", "twist"), seed=args.seed,
            stop_gradient_geo=args.stopgrad == "on",
        )
        for row in report.to_csv_rows():
            row["loss"] = loss_id
            all_rows.append(row)
        print(f"{loss_id}: max_rel_error={report.max_rel_error:.3e} passed={report.passed}")
        all_passed &= report.passed
    write_csv(out / "grad_check.csv", all_rows,
              headers=["loss"] + [k for k in all_rows[0] if k != "loss"])
    _announce(out / "grad_check.csv")
    _write_manifest(out, args, {"all_passed": all_passed})
    return 0 if all_passed else 1


def _cmd_recover_depth(args):
    weights = _parse_weights(args.weights) if args.weights else (1.0, 0.5, 0.1, 0.0)
    if max(weights[:3]) == 0:
        raise UsageError("all depth-loss weights are zero; nothing to optimize")
    if weights[3] > 0:
        raise UsageError("recover-depth does not co-adjust flow; use co-adjust for w_b > 0")
    bundle, *_ = _load_scene(args)
    if bundle.dynamic_mask.any():
        raise UsageError("the scene has a dynamic object; use co-adjust")
    out = _out_dir(args)
    trace = _run_traced(recover_depth, bundle, _config_from_args(args, weights), out, "recover")
    print(f"final abs_rel={trace.final_metrics.abs_rel:.6f}")
    _write_manifest(out, args, {"weights": weights})
    return 0


def _cmd_co_adjust(args):
    weights = _parse_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    if weights[3] <= 0:
        raise UsageError("co-adjust needs w_b > 0")
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    trace = _run_traced(co_adjust, bundle, _config_from_args(args, weights), out, "co_adjust")
    summary = trace.records[-1].extras
    print(
        "final "
        + " ".join(f"{k}={v:.6f}" for k, v in sorted(summary.items()))
    )
    _write_manifest(out, args, {"weights": weights})
    return 0


def _cmd_ablate(args):
    weights = _parse_weights(args.weights) if args.weights else DEFAULT_WEIGHTS
    w_p, w_c, w_d, _ = weights
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    configs = []
    for wc in (0.0, w_c):
        for wd in (0.0, w_d):
            name = f"wc={wc}-wd={wd}"
            configs.append((name, _config_from_args(args, (w_p, wc, wd, 0.0))))
    rows = ablation_suite([(Path(args.scene).stem, bundle)], configs)
    write_csv(out / "ablation.csv", rows)
    _announce(out / "ablation.csv")
    _write_manifest(out, args, {"weights": weights})
    return 0


def _cmd_metrics(args):
    pred = read_depth_pfm(args.pred)
    gt = read_depth_pfm(args.gt)
    out = _out_dir(args)
    m = depth_metrics(pred, gt)
    write_csv(out / "metrics.csv", [m.as_dict()])
    _announce(out / "metrics.csv")
    print(" ".join(f"{k}={v:.6f}" for k, v in m.as_dict().items()))
    _write_manifest(out, args)
    return 0


_COMMANDS = {
    "gen-scene": _cmd_gen_scene,
    "triangulate": _cmd_triangulate,
    "check-dpc": _cmd_check_dpc,
    "grad-check": _cmd_grad_check,
    "recover-depth": _cmd_recover_depth,
    "co-adjust": _cmd_co_adjust,
    "ablate": _cmd_ablate,
    "metrics": _cmd_metrics,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a run that overflows ends in a typed error or a diverged-run
        # abort; numpy's floating-point warnings would only add stderr lines.
        # They are filtered, not silenced by np.errstate: under "ignore" the
        # status flags stay set and numpy scalar arithmetic takes its slow
        # path (co-adjust ran ~5% slower that way on a 2-vCPU VM).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FlowGeoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(run())
