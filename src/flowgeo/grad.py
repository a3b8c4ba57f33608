"""Exact derivatives of every loss with respect to per-pixel depth, the
6-DoF pose, and the dense flow prior, plus a central-difference checker.

The pose enters as `TwistParams` on the *warp* motion (axis-angle rotation
plus translation). It goes through the package's one pose expression: the
rotation is `geometry.rotation_rows` on tape Vars (`rotation_entries`), and
graphs that need the source-to-target translation (the divergence/depth
relation) take it from `geometry.inverse_translation`, -R^T t on tape, so
pose gradients include that dependency. The float motions of `geometry`
evaluate the same expressions, so their values match the tape's bit for
bit. Geometric depth is differentiable in pose and flow by default;
`stop_gradient_geo=True` makes it the constant `triangulate_values` gives
for the inputs' own twist and flow, in every build.

Each loss term is the same tape node the optimizer steps on (`losses`,
and `warp_graph` here for the photometric warp); the rotation, the
triangulated depth, the rotational flow and the offsets that feed a node
from the pose and the flow stay composed graphs of elementary ops.

Masks (behind-camera, out-of-image, degeneracy) are treated as constants
of each forward pass; the checker detects coordinates whose perturbation
flips a mask and excludes them from the pass/fail verdict, reporting the
count instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import NoValidPixelsError
from .geometry import (
    Z_EPS,
    CameraGrid,
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    TwistParams,
    inverse_translation,
    rotation_rows,
)
from .losses import (
    bsca_core,
    cgdc_core,
    differential_fields_core,
    dpc_core,
    photometric_core,
    smoothness_core,
)
from .triangulate import depth_from_ratio, triangulate_values, triangulation_ratio

LOSS_IDS = ("photometric", "cgdc", "dpc", "bsca", "smoothness")
FLOW_SAMPLES = 32  # flow pixels the checker perturbs when "flow" is a target


@dataclass(frozen=True)
class LossInputs:
    """Everything a loss graph can consume; unused fields may stay None."""

    camera: CameraIntrinsics
    twist: TwistParams
    depth: DepthMap
    flow: FlowField | None = None
    image_t: Image | None = None
    image_s: Image | None = None

    @classmethod
    def from_bundle(cls, bundle, depth: DepthMap | None = None) -> "LossInputs":
        return cls(
            camera=bundle.camera,
            twist=TwistParams.from_motion(bundle.motion),
            depth=bundle.depth_gt if depth is None else depth,
            flow=bundle.flow_gt,
            image_t=bundle.image_t,
            image_s=bundle.image_s,
        )


@dataclass(frozen=True)
class LossGradient:
    value: float
    d_depth: np.ndarray | None = None
    d_twist: np.ndarray | None = None
    d_flow: np.ndarray | None = None


# ---------------------------------------------------------------------------
# tape geometry


def rotation_entries(w1, w2, w3):
    """`geometry.rotation_rows` on the tape: a 3x3 nested list of Vars."""
    return rotation_rows(w1, w2, w3, ad.sqrt, ad.sin, ad.cos)


def rigid_flow_terms(camera, rays, t, depth, grid):
    """The rigid-flow expression behind `rigid_flow_graph` and
    `warp_graph`: (y0, y1, y2, f_u, f_v) with y_i = D r_i + t_i the
    transformed point and f = K-projection of y minus the pixel. Operands
    may be arrays and floats or tape Vars alike; Vars build the composed
    graph, arrays evaluate the same operations in the same order."""
    y0, y1, y2 = (depth * rays[i] + t[i] for i in range(3))
    f_u = camera.fx * (y0 / y2) + camera.cx - grid.u
    f_v = camera.fy * (y1 / y2) + camera.cy - grid.v
    return y0, y1, y2, f_u, f_v


def rigid_flow_graph(camera, R, t, depth, height, width):
    """Rigid flow F(p) = proj(K (R backproject(p, D) + t)) - p as tape
    nodes; returns (f_u, f_v, valid mask const). R, t and the depth may be
    constants or tape nodes: a unit depth with zero translation gives the
    rotational flow."""
    grid = CameraGrid.of(camera, height, width)
    _, _, y2, f_u, f_v = rigid_flow_terms(camera, grid.rays(R), t, ad.as_var(depth), grid)
    return f_u, f_v, np.asarray(y2.value) > Z_EPS


@np.errstate(divide="ignore", invalid="ignore")
def warp_graph(camera, image, t, depth, grid, rays):
    """The photometric warp as one tape node: the bilinear sample of the
    constant `image` at p + F(p), F the rigid flow of `depth` under the
    rows `rays` = `grid.rays(R)` and the translation `t`. Returns (warped,
    valid), valid where the transformed depth is positive and the sample
    stays inside the image.

    The composed graph is `rigid_flow_terms` on Vars, then p + F and
    `ad.bilinear`. Replayed backward, y2 gathers f_v's contribution before
    f_u's, and the links run t2, D, r2, t1, D, r1, t0, D, r0.
    """
    d = ad.value_of(depth)
    r = [ad.value_of(x) for x in rays]
    tv = [ad.value_of(x) for x in t]
    y0, y1, y2, f_u, f_v = rigid_flow_terms(camera, r, tv, d, grid)
    out, inside, px, py = ad._bilinear_partials(image, f_u + grid.u, f_v + grid.v)
    d_act = ad.active(depth)
    y_act = [d_act or ad.active(rays[i]) or ad.active(t[i]) for i in range(3)]

    def vjp(g):
        grads = [None] * 9
        g_y = [None, None, None]
        if y_act[1] or y_act[2]:
            g_q = ad._bilinear_vjp(g, py) * camera.fy
            g_y[1] = g_q / y2
            if y_act[2]:
                g_y[2] = -g_q * y1 / (y2 * y2)
        if y_act[0] or y_act[2]:
            g_q = ad._bilinear_vjp(g, px) * camera.fx
            g_y[0] = g_q / y2
            if y_act[2]:
                g_y[2] = g_y[2] + -g_q * y0 / (y2 * y2)
        for k, i in enumerate((2, 1, 0)):
            if not y_act[i]:
                continue
            g_m = g_y[i]
            if ad.active(t[i]):
                grads[3 * k] = g_m
            if d_act:
                grads[3 * k + 1] = g_m * r[i]
            if ad.active(rays[i]):
                grads[3 * k + 2] = g_m * d
        return grads

    links = [x for i in (2, 1, 0) for x in (t[i], depth, rays[i])]
    return ad.Var(out, links, vjp), (y2 > Z_EPS) & inside


def triangulate_graph(camera, R, t, f_u, f_v, flow_mask):
    """Geometric depth as a tape node; returns (depth, validity const),
    the validity by `depth_from_ratio`'s rule."""
    num, den = triangulation_ratio(camera, R, t, ad.as_var(f_u), ad.as_var(f_v))
    _, validity, _ = depth_from_ratio(num.value, den.value, flow_mask)
    return ad.div(num, den), validity


# ---------------------------------------------------------------------------
# loss graph assembly


def _leaves(inputs: LossInputs, overrides: dict):
    depth_values = overrides.get("depth", inputs.depth.values)
    twist_values = overrides.get("twist", inputs.twist.values)
    d = ad.Var(np.asarray(depth_values, dtype=float))
    xi = [ad.Var(float(x)) for x in np.asarray(twist_values, dtype=float)]
    leaves = {"depth": d, "twist": xi}
    if inputs.flow is not None:
        flow_values = overrides.get("flow", inputs.flow.values)
        leaves["flow"] = (
            ad.Var(np.asarray(flow_values[..., 0], dtype=float)),
            ad.Var(np.asarray(flow_values[..., 1], dtype=float)),
        )
    return leaves


def build_loss(loss_id, inputs: LossInputs, overrides: dict | None = None,
               stop_gradient_geo: bool = False):
    """Assemble the graph for one loss.

    `overrides` maps "depth", "twist" or "flow" to values that replace the
    input's. With `stop_gradient_geo`, cgdc's geometric depth is the
    triangulation of the inputs' own twist and flow, whatever the
    overrides. Returns (loss Var, leaves dict, mask ndarray).
    """
    overrides = overrides or {}
    leaves = _leaves(inputs, overrides)
    camera = inputs.camera
    H, W = inputs.depth.shape
    xi = leaves["twist"]
    R = rotation_entries(xi[0], xi[1], xi[2])
    t = (xi[3], xi[4], xi[5])
    d = leaves["depth"]

    if loss_id == "photometric":
        if inputs.image_t is None or inputs.image_s is None:
            raise ValueError("photometric loss needs both images")
        grid = CameraGrid.of(camera, H, W)
        warped, valid = warp_graph(camera, inputs.image_s.values, t, d, grid, grid.rays(R))
        mask = valid & inputs.depth.mask
        if not mask.any():
            raise NoValidPixelsError("photometric: warp produced no valid pixels")
        loss = photometric_core(inputs.image_t.values, warped, mask)
        return loss, leaves, mask

    if loss_id == "cgdc":
        if inputs.flow is None:
            raise ValueError("cgdc loss needs the flow prior")
        if stop_gradient_geo:
            f = inputs.flow
            d_g, validity, _ = triangulate_values(
                camera, inputs.twist.to_motion(), f.values[..., 0], f.values[..., 1], f.mask
            )
        else:
            d_g, validity = triangulate_graph(camera, R, t, *leaves["flow"], inputs.flow.mask)
        mask = validity & inputs.depth.mask
        if not mask.any():
            raise NoValidPixelsError("cgdc: no valid triangulated pixels")
        loss = cgdc_core(d_g, d, mask)
        return loss, leaves, mask

    if loss_id == "dpc":
        if inputs.flow is None:
            raise ValueError("dpc loss needs the flow prior")
        f_u, f_v = leaves["flow"]
        r_u, r_v, _ = rigid_flow_graph(camera, R, (0.0, 0.0, 0.0), 1.0, H, W)
        t_ego = inverse_translation(R, t)
        side, _, _ = differential_fields_core(
            camera, t_ego, d, ad.sub(f_u, r_u), ad.sub(f_v, r_v)
        )
        mask = side.validity & inputs.flow.mask & inputs.depth.mask
        if not mask.any():
            raise NoValidPixelsError("dpc: no valid pixels")
        loss = dpc_core(side, mask)
        return loss, leaves, mask

    if loss_id == "bsca":
        if inputs.flow is None:
            raise ValueError("bsca loss needs the flow prior")
        f_u, f_v = leaves["flow"]
        r_u, r_v, flow_ok = rigid_flow_graph(camera, R, t, d, H, W)
        mask = flow_ok & inputs.flow.mask & inputs.depth.mask
        if not mask.any():
            raise NoValidPixelsError("bsca: no valid pixels")
        loss = bsca_core(r_u, r_v, f_u, f_v, mask)
        return loss, leaves, mask

    if loss_id == "smoothness":
        if inputs.image_t is None:
            raise ValueError("smoothness loss needs the target image")
        loss = smoothness_core(d, inputs.image_t.values)
        return loss, leaves, np.ones((H, W), bool)

    raise ValueError(f"unknown loss id {loss_id!r}")


def _grad_or_zero(var):
    if var.grad is None:  # leaf unreachable from this loss: derivative is 0
        return np.zeros(np.shape(var.value)) if np.shape(var.value) else 0.0
    return var.grad


def loss_gradient(loss_id, inputs: LossInputs, targets=("depth", "twist"),
                  stop_gradient_geo: bool = False) -> LossGradient:
    """Exact derivative of the masked-mean loss for the requested targets."""
    loss, leaves, _ = build_loss(loss_id, inputs, stop_gradient_geo=stop_gradient_geo)
    ad.backward(loss)
    d_depth = d_twist = d_flow = None
    if "depth" in targets:
        d_depth = np.asarray(_grad_or_zero(leaves["depth"]), dtype=float)
    if "twist" in targets:
        d_twist = np.array([float(_grad_or_zero(x)) for x in leaves["twist"]])
    if "flow" in targets:
        if "flow" not in leaves:
            raise ValueError("no flow input to differentiate")
        f_u, f_v = leaves["flow"]
        d_flow = np.stack(
            [np.asarray(_grad_or_zero(f_u)), np.asarray(_grad_or_zero(f_v))], axis=-1
        )
    return LossGradient(float(loss.value), d_depth, d_twist, d_flow)


# ---------------------------------------------------------------------------
# finite-difference checking


@dataclass(frozen=True)
class CheckRow:
    target: str
    coordinate: str
    analytic: float
    numeric: float
    rel_error: float
    mask_flipped: bool
    excluded: str = ""  # "", "mask-flip", or "fd-floor"


@dataclass(frozen=True)
class GradCheckReport:
    rows: tuple
    max_rel_error: float
    flipped_count: int
    passed: bool

    def to_csv_rows(self):
        return [
            {
                "target": r.target,
                "coordinate": r.coordinate,
                "analytic": r.analytic,
                "numeric": r.numeric,
                "rel_error": r.rel_error,
                "mask_flipped": int(r.mask_flipped),
                "excluded": r.excluded,
            }
            for r in self.rows
        ]


def _rel_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def finite_difference_check(
    loss_id,
    inputs: LossInputs,
    targets=("depth", "twist"),
    step: float = 1e-6,
    depth_samples: int = 64,
    tolerance: float = 1e-5,
    seed: int = 0,
    stop_gradient_geo: bool = False,
) -> GradCheckReport:
    """Compare analytic gradients against central differences.

    Checks all 6 twist coordinates and `depth_samples` random valid depth
    pixels (plus FLOW_SAMPLES flow coordinates when requested). Two kinds
    of coordinate are excluded from the verdict but counted in the report:
    those whose perturbation flips a validity mask, and those whose
    sensitivity is so small that the central difference sits at the
    rounding floor of the loss (|gradient| * step below a few dozen ulps
    of the loss value).

    With `stop_gradient_geo`, every build holds the triangulated depth at
    its value under the base twist and flow (see `build_loss`), as the
    analytic gradient does.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    loss, leaves, base_mask = build_loss(loss_id, inputs, None, stop_gradient_geo)
    ad.backward(loss)

    # one (target, label, analytic, index) per checked coordinate; the rng
    # draws the depth picks, then the flow picks, then one axis per flow pick
    rng = np.random.default_rng(seed)
    coords = []
    if "twist" in targets:
        coords += [("twist", f"xi[{i}]", float(_grad_or_zero(x)), i)
                   for i, x in enumerate(leaves["twist"])]
    if "depth" in targets:
        ok = np.argwhere(base_mask)
        if len(ok) == 0:
            raise NoValidPixelsError("no valid pixels to sample")
        picks = ok[rng.choice(len(ok), size=min(depth_samples, len(ok)), replace=False)]
        grad = np.asarray(_grad_or_zero(leaves["depth"]))
        coords += [("depth", f"pixel({vx},{vy})", float(grad[vy, vx]), (vy, vx))
                   for vy, vx in picks]
    if "flow" in targets and inputs.flow is not None:
        ok = np.argwhere(base_mask)
        picks = ok[rng.choice(len(ok), size=min(FLOW_SAMPLES, len(ok)), replace=False)]
        grads = [np.asarray(_grad_or_zero(f)) for f in leaves["flow"]]
        for vy, vx in picks:
            axis = int(rng.integers(0, 2))
            coords.append(("flow", f"pixel({vx},{vy})[{'uv'[axis]}]",
                           float(grads[axis][vy, vx]), (vy, vx, axis)))

    base = {"twist": inputs.twist, "depth": inputs.depth, "flow": inputs.flow}
    eps = np.finfo(float).eps
    rows = []
    for target, label, analytic, index in coords:
        f, flipped = [], False
        for delta in (step, -step):
            values = base[target].values.copy()
            values[index] += delta
            var, _, mask = build_loss(loss_id, inputs, {target: values}, stop_gradient_geo)
            f.append(float(var.value))
            flipped = flipped or not np.array_equal(mask, base_mask)
        numeric = (f[0] - f[1]) / (2.0 * step)
        excluded = ""
        if flipped:
            excluded = "mask-flip"
        else:
            # the loss evaluates with ~O(100 ulp) rounding noise; if that
            # noise exceeds `tolerance` of the difference being measured,
            # this coordinate cannot be certified by central differences
            noise = 256.0 * eps * max(abs(f[0]), abs(f[1]), 1e-3)
            if abs(f[0] - f[1]) * tolerance < noise:
                excluded = "fd-floor"
        rows.append(CheckRow(target, label, analytic, numeric,
                             _rel_error(analytic, numeric), flipped, excluded))

    live = [r.rel_error for r in rows if not r.excluded]
    max_rel = max(live) if live else 0.0
    flipped = sum(r.mask_flipped for r in rows)
    return GradCheckReport(tuple(rows), max_rel, flipped, max_rel < tolerance)
