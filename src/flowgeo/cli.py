"""Command-line entry point: scene generation, verification runs, and the
desk-scale experiments, with artifacts written as .pfm/.flo/.pnm/CSV.

Every run writes a `run-manifest.txt` under --out echoing the full
configuration (including defaults the user did not set), so a run is
reconstructible from its output directory; gen-scene also writes the
scene it rendered, default camera, ego-motion and dynamic region included,
as `scene.txt`. Run it as `flowgeo`, `python -m flowgeo` or `python -m
flowgeo.cli`. Artifact paths are announced on stdout, one per line,
prefixed "wrote ". Exit codes: 0 success, 2 usage error, 1 runtime
failure (one-line diagnostic on stderr). A descent run that diverges still
writes and announces the partial trace it carries before it exits 1.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import AbortedRunError, FlowGeoError
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    rotational_flow,
    translational_flow,
)
from .grad import LOSS_IDS, LossInputs, finite_difference_check
from .io_formats import read_depth_pfm, write_csv, write_depth_pfm, write_flow, write_image_pnm
from .losses import depth_metrics, differential_fields, dpc_loss
from .optim import OptimConfig, ablation_suite, co_adjust, recover_depth
from .rng import PCG64
from .scene import EgoMotionKeys, read_scene_keys, synthesize, write_scene_file
from .triangulate import Degeneracy, triangulate_depth

# default loss-weight combination (a configuration value, not a published one),
# and its depth-only form, the default of recover-depth and ablate
DEFAULT_WEIGHTS = (1.0, 0.5, 0.1, 0.1)
DEPTH_ONLY_WEIGHTS = DEFAULT_WEIGHTS[:3] + (0.0,)

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
_seed = _int_at_least(0)  # OptimConfig and the gradient checker take non-negative seeds


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
    p.add_argument("--weights", default=None,
                   help="w_p,w_c,w_d,w_b (grid toggles w_c and w_d; depth-only, so w_b must be 0)")
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
    spec, camera, ego = read_scene_keys(args.scene)
    if camera is None:
        camera = CameraIntrinsics(100.0, 100.0, width / 2.0, height / 2.0)
    if ego is None:
        ego = EgoMotionKeys((0.31, 0.02, 0.42))
    if spec.dynamic is not None:
        spec = replace(spec, dynamic=spec.dynamic.sized(height, width))
    bundle = synthesize(spec, camera, ego.motion, height, width)
    return bundle, spec, camera, ego


def _emit(path, write, *values):
    """Write one artifact as `write(path, *values)` and announce its path."""
    write(path, *values)
    print(f"wrote {path}")


def _write_manifest(out_dir, args, extra=None):
    """One line per key: the arguments, with `extra`'s values in place of
    theirs (a resolved default) and its other keys added."""
    values = {**vars(args), **(extra or {})}
    del values["command"]
    lines = [f"flowgeo-version={__version__}", f"command={args.command}"]
    lines += [f"{key}={value}" for key, value in sorted(values.items())]
    _emit(Path(out_dir) / "run-manifest.txt", Path.write_text, "\n".join(lines) + "\n", "utf-8")


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_from_args(args, weights):
    w_p, w_c, w_d, w_b = weights
    return OptimConfig(w_p=w_p, w_c=w_c, w_d=w_d, w_b=w_b, iterations=args.iters, seed=args.seed)


def _trace_outputs(out, trace, stem):
    _emit(out / f"{stem}-trace.csv", write_csv, trace.to_csv_rows())
    _emit(out / f"{stem}-depth.pfm", write_depth_pfm, trace.final_depth)
    if trace.final_flow is not None:
        _emit(out / f"{stem}-flow.flo", write_flow, trace.final_flow)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_scene(args):
    bundle, spec, camera, ego = _load_scene(args)
    out = _out_dir(args)
    _emit(out / "depth.pfm", write_depth_pfm, bundle.depth_gt)
    _emit(out / "flow.flo", write_flow, bundle.flow_gt)
    _emit(out / "image_t.pnm", write_image_pnm, bundle.image_t)
    _emit(out / "image_s.pnm", write_image_pnm, bundle.image_s)
    _emit(out / "scene.txt", write_scene_file, spec, camera, ego)
    _write_manifest(out, args)
    return 0


def _cmd_triangulate(args):
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    result = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
    _emit(out / "depth_g.pfm", write_depth_pfm, result.depth_g)
    rel = np.abs(result.depth_g.values / bundle.depth_gt.values - 1.0)[result.validity]
    codes = result.degeneracy
    rows = [{
        "valid_fraction": result.valid_fraction,
        "max_rel_error_vs_gt": float(rel.max()) if rel.size else float("nan"),
        "mean_rel_error_vs_gt": float(rel.mean()) if rel.size else float("nan"),
        "near_zero_denominator": int((codes == Degeneracy.NEAR_ZERO_DENOMINATOR).sum()),
        "negative_depth": int((codes == Degeneracy.NEGATIVE_DEPTH).sum()),
        "masked_flow": int((codes == Degeneracy.MASKED_FLOW).sum()),
    }]
    _emit(out / "triangulation.csv", write_csv, rows)
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

    loss = dpc_loss(analytic)
    rows = [{
        "max_abs_cf_minus_cd_analytic": gap(analytic),
        "max_abs_cf_minus_cd_discrete": gap(discrete),
        "dpc_loss_analytic": loss.value,
        "dpc_loss_discrete": dpc_loss(discrete).value,
        "guard_fraction": loss.guard_fraction,
        "valid_pixels": int(analytic.validity.sum()),
    }]
    _emit(out / "check_dpc.csv", write_csv, rows)
    print(f"max |C^F - C^D| (analytic depth gradient): {rows[0]['max_abs_cf_minus_cd_analytic']:.3e}")
    _write_manifest(out, args)
    return 0


def _cmd_grad_check(args):
    """The finite-difference check of every loss at the ground-truth depth
    times U(0.7, 1.4), drawn by `rng.PCG64`. The checker's own picks come
    from numpy's `Generator.choice(replace=False)`, which `PCG64` does not
    reproduce, so this command, unlike the descent commands, imports
    `numpy.random`."""
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    depth = DepthMap(bundle.depth_gt.values * PCG64(args.seed).uniform(0.7, 1.4, bundle.shape))
    inputs = LossInputs.from_bundle(bundle, depth=depth)
    all_rows = []
    all_passed = True
    for loss_id in LOSS_IDS:
        report = finite_difference_check(
            loss_id, inputs, targets=("depth", "twist"), seed=args.seed,
            stop_gradient_geo=args.stopgrad == "on",
        )
        all_rows += [{"loss": loss_id, **row} for row in report.to_csv_rows()]
        print(f"{loss_id}: max_rel_error={report.max_rel_error:.3e} passed={report.passed}")
        all_passed &= report.passed
    _emit(out / "grad_check.csv", write_csv, all_rows)
    _write_manifest(out, args, {"all_passed": all_passed})
    return 0 if all_passed else 1


def _cmd_descend(args):
    """recover-depth and co-adjust: one descent run and its trace outputs.
    A diverged run writes the partial trace it carries before its error
    propagates."""
    co = args.command == "co-adjust"
    weights = (_parse_weights(args.weights) if args.weights
               else DEFAULT_WEIGHTS if co else DEPTH_ONLY_WEIGHTS)
    if co and weights[3] <= 0:
        raise UsageError("co-adjust needs w_b > 0")
    if not co and max(weights[:3]) == 0:
        raise UsageError("all depth-loss weights are zero; nothing to optimize")
    if not co and weights[3] > 0:
        raise UsageError("recover-depth does not co-adjust flow; use co-adjust for w_b > 0")
    bundle, *_ = _load_scene(args)
    if not co and bundle.dynamic_mask.any():
        raise UsageError("the scene has a dynamic object; use co-adjust")
    out = _out_dir(args)
    experiment, stem = (co_adjust, "co_adjust") if co else (recover_depth, "recover")
    try:
        trace = experiment(bundle, _config_from_args(args, weights))
    except AbortedRunError as exc:
        if exc.trace is not None:
            _trace_outputs(out, exc.trace, stem)
        raise
    _trace_outputs(out, trace, stem)
    summary = trace.records[-1].extras if co else {"abs_rel": trace.final_metrics.abs_rel}
    print("final " + " ".join(f"{k}={v:.6f}" for k, v in sorted(summary.items())))
    _write_manifest(out, args, {"weights": ",".join(map(str, weights))})
    return 0


def _cmd_ablate(args):
    weights = _parse_weights(args.weights) if args.weights else DEPTH_ONLY_WEIGHTS
    w_p, w_c, w_d, w_b = weights
    if w_b > 0:
        raise UsageError("ablate runs depth-only configs; w_b must be 0 (use co-adjust for w_b > 0)")
    bundle, *_ = _load_scene(args)
    out = _out_dir(args)
    configs = []
    for wc in (0.0, w_c):
        for wd in (0.0, w_d):
            name = f"wc={wc}-wd={wd}"
            configs.append((name, _config_from_args(args, (w_p, wc, wd, 0.0))))
    rows = ablation_suite([(Path(args.scene).stem, bundle)], configs)
    _emit(out / "ablation.csv", write_csv, rows)
    _write_manifest(out, args, {"weights": ",".join(map(str, weights))})
    return 0


def _cmd_metrics(args):
    pred = read_depth_pfm(args.pred)
    gt = read_depth_pfm(args.gt)
    out = _out_dir(args)
    m = depth_metrics(pred, gt)
    _emit(out / "metrics.csv", write_csv, [m.as_dict()])
    print(" ".join(f"{k}={v:.6f}" for k, v in m.as_dict().items()))
    _write_manifest(out, args)
    return 0


_COMMANDS = {
    "gen-scene": _cmd_gen_scene,
    "triangulate": _cmd_triangulate,
    "check-dpc": _cmd_check_dpc,
    "grad-check": _cmd_grad_check,
    "recover-depth": _cmd_descend,
    "co-adjust": _cmd_descend,
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


if __name__ == "__main__":
    entry()
