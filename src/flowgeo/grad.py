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

Each loss term has one builder (`_TERMS`), and the checker and the
descent both call it: `build_loss` on a `_TapePlan`, `optim._terms` on the
numpy `optim._Plan`. The term itself is one tape node (`losses`, and
`warp_graph` here for the photometric warp); in a `_TapePlan` the rotation,
the rays, the triangulated depth, the rotational flow and the offsets that
feed it from the pose and the flow are composed graphs of elementary ops.

Masks (behind-camera, out-of-image, degeneracy) are treated as constants
of each forward pass; the checker detects coordinates whose perturbation
flips a mask and excludes them from the pass/fail verdict, reporting the
count instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from operator import attrgetter

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
    interior_mask,
    inverse_translation,
    rotation_rows,
)
from .losses import (
    bsca_core,
    cgdc_core,
    differential_depth_side,
    differential_flow_side,
    differential_offsets,
    dpc_core,
    photometric_core,
    reference_channels,
    smoothness_core,
)
from .triangulate import depth_from_ratio, triangulate_values, triangulation_ratio

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
        return cls(camera=bundle.camera, twist=TwistParams.from_motion(bundle.motion),
                   depth=bundle.depth_gt if depth is None else depth, flow=bundle.flow_gt,
                   image_t=bundle.image_t, image_s=bundle.image_s)


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
    """The rigid-flow expression behind `warp_graph` and the checker's
    rigid flow (bsca) and rotational flow (dpc, a unit depth under zero
    translation): (y0, y1, y2, f_u, f_v) with y_i = D r_i + t_i the
    transformed point and f = K-projection of y minus the pixel. Operands
    may be arrays and floats or tape Vars alike; Vars build the composed
    graph, arrays evaluate the same operations in the same order."""
    y0, y1, y2 = (depth * rays[i] + t[i] for i in range(3))
    f_u = camera.fx * (y0 / y2) + camera.cx - grid.u
    f_v = camera.fy * (y1 / y2) + camera.cy - grid.v
    return y0, y1, y2, f_u, f_v


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
#
# A term builder takes a plan, the depth (a leaf, or a lane stack of them)
# and the part of a flow side it reads, and returns (node, mask); the node
# is None when some lane's mask is empty. cgdc's mask is the triangulation
# validity, which both plans have checked.


def _photometric_term(plan, depth):
    warped, valid = warp_graph(plan.camera, plan.image_s, plan.t, depth, plan.grid, plan.rays)
    mask = valid & plan.depth_mask
    return (photometric_core(plan.image_t, warped, mask, reference=plan.reference)
            if mask.any(axis=(-2, -1)).all() else None), mask


def _cgdc_term(plan, depth, d_g, valid):
    return cgdc_core(d_g, depth, valid), valid


def _dpc_term(plan, depth, div_f, flow_mask):
    side = differential_depth_side(plan.t_ego[2], depth, *plan.q, div_f, interior=plan.interior)
    mask = side.validity & (np.abs(side.c_d) >= plan.dpc_floor) & flow_mask
    return (dpc_core(side, mask) if mask.any(axis=(-2, -1)).all() else None), mask


def _bsca_term(plan, depth, f_u, f_v, flow_mask):
    _, _, y2, r_u, r_v = rigid_flow_terms(plan.camera, plan.rays, plan.t, depth, plan.grid)
    mask = (y2.value > Z_EPS) & flow_mask
    return (bsca_core(r_u, r_v, f_u, f_v, mask) if mask.any(axis=(-2, -1)).all() else None), mask


def _smoothness_term(plan, depth):
    return smoothness_core(depth, plan.image_t), np.ones(plan.depth_mask.shape, bool)


# loss id -> (builder, the part of a flow side it reads (None: none), the
# `LossInputs` fields it needs, the error without them, the error of an
# empty mask)
_TERMS = {
    "photometric": (_photometric_term, None, ("image_t", "image_s"),
                    "photometric loss needs both images",
                    "photometric: warp produced no valid pixels"),
    "cgdc": (_cgdc_term, attrgetter("geo"), ("flow",), "cgdc loss needs the flow prior", None),
    "dpc": (_dpc_term, attrgetter("div_f", "flow_mask"), ("flow",),
            "dpc loss needs the flow prior", "dpc: no valid pixels"),
    "bsca": (_bsca_term, attrgetter("f_u", "f_v", "flow_mask"), ("flow",),
             "bsca loss needs the flow prior", "bsca: no valid pixels"),
    "smoothness": (_smoothness_term, None, ("image_t",),
                   "smoothness loss needs the target image", None),
}
LOSS_IDS = tuple(_TERMS)


class _TapePlan:
    """The checker's plan of one loss term on `LossInputs` with twist and
    flow overrides: what the term reads besides the depth, as graphs over
    the twist and flow leaves. The rotation, t and the rays are built at
    once; the SSIM statistics, cgdc's triangulated depth (with
    `stop_gradient_geo`, the constant `triangulate_values` of the inputs'
    own twist and flow) and dpc's t_ego, offsets and divergence of the flow
    minus the rotational flow on the term's first read. The masks are
    `optim._Plan`'s with the depth's mask ANDed in, and a DPC floor of 0."""

    def __init__(self, loss_id, inputs: LossInputs, overrides: dict, stop_gradient_geo: bool):
        if loss_id not in _TERMS:
            raise ValueError(f"unknown loss id {loss_id!r}")
        build, part, needs, missing, empty = _TERMS[loss_id]
        if any(getattr(inputs, name) is None for name in needs):
            raise ValueError(missing)
        self.term = build, part, empty
        self.inputs, self.stop_gradient_geo = inputs, stop_gradient_geo
        self.camera, shape = inputs.camera, inputs.depth.shape
        self.grid, self.interior = CameraGrid.of(inputs.camera, *shape), interior_mask(*shape)
        xi = [ad.Var(float(x)) for x in np.asarray(overrides.get("twist", inputs.twist.values),
                                                   dtype=float)]
        self.leaves = {"twist": xi}
        self.R, self.t = rotation_entries(xi[0], xi[1], xi[2]), (xi[3], xi[4], xi[5])
        self.rays = self.grid.rays(self.R)
        self.image_s, self.image_t = (None if image is None else image.values
                                      for image in (inputs.image_s, inputs.image_t))
        self.depth_mask, self.dpc_floor = inputs.depth.mask, 0.0
        if inputs.flow is not None:
            values = overrides.get("flow", inputs.flow.values)
            self.f_u, self.f_v = self.leaves["flow"] = tuple(
                ad.Var(np.asarray(values[..., i], dtype=float)) for i in (0, 1))
            self.flow_mask = inputs.flow.mask & inputs.depth.mask

    def build(self, depth_values):
        """(loss Var, leaves dict, mask) of the term at a depth leaf of
        `depth_values`."""
        build, part, empty = self.term
        d = ad.Var(np.asarray(depth_values, dtype=float))
        loss, mask = build(self, d, *(part(self) if part else ()))
        if loss is None:
            raise NoValidPixelsError(empty)
        return loss, {"depth": d, **self.leaves}, mask

    @cached_property
    def reference(self):
        return reference_channels(self.image_t)

    @cached_property
    def geo(self):
        flow = self.inputs.flow
        if self.stop_gradient_geo:
            d_g, validity, _ = triangulate_values(self.camera, self.inputs.twist.to_motion(),
                                                  flow.values[..., 0], flow.values[..., 1],
                                                  flow.mask)
        else:
            d_g, validity = triangulate_graph(self.camera, self.R, self.t, self.f_u, self.f_v,
                                              flow.mask)
        mask = validity & self.depth_mask
        if not mask.any():
            raise NoValidPixelsError("cgdc: no valid triangulated pixels")
        return d_g, mask

    @cached_property
    def t_ego(self):
        return inverse_translation(self.R, self.t)

    @cached_property
    def q(self):
        return differential_offsets(self.camera, self.t_ego, self.grid)

    @cached_property
    def div_f(self):
        # the rotational flow is the rigid flow of a unit depth under (R, 0)
        _, _, _, r_u, r_v = rigid_flow_terms(self.camera, self.rays, (0.0, 0.0, 0.0),
                                             ad.as_var(1.0), self.grid)
        return differential_flow_side(ad.sub(self.f_u, r_u), ad.sub(self.f_v, r_v))


def build_loss(loss_id, inputs: LossInputs, overrides: dict | None = None,
               stop_gradient_geo: bool = False):
    """Assemble the graph for one loss: its term builder, the one the
    descent steps on, on a `_TapePlan` of its own.

    `overrides` maps "depth", "twist" or "flow" to values that replace the
    input's. With `stop_gradient_geo`, cgdc's geometric depth is the
    triangulation of the inputs' own twist and flow, whatever the
    overrides. Returns (loss Var, leaves dict, mask ndarray).
    """
    overrides = overrides or {}
    plan = _TapePlan(loss_id, inputs, overrides, stop_gradient_geo)
    return plan.build(overrides.get("depth", inputs.depth.values))


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
        d_flow = np.stack([np.asarray(_grad_or_zero(f)) for f in leaves["flow"]], axis=-1)
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
        return [{**asdict(r), "mask_flipped": int(r.mask_flipped)} for r in self.rows]


def _rel_error(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def finite_difference_check(loss_id, inputs: LossInputs, targets=("depth", "twist"),
                            step: float = 1e-6, depth_samples: int = 64,
                            tolerance: float = 1e-5, seed: int = 0,
                            stop_gradient_geo: bool = False) -> GradCheckReport:
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
    analytic gradient does. Each build uses the term builder of
    `build_loss`: the base build and every +- build of a depth coordinate
    share one `_TapePlan`, and each +- build of a twist or flow coordinate
    makes its own.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    plan = _TapePlan(loss_id, inputs, {}, stop_gradient_geo)
    loss, leaves, base_mask = plan.build(inputs.depth.values)
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
            if target == "depth":  # the base plan: it holds no depth
                var, _, mask = plan.build(values)
            else:
                row_plan = _TapePlan(loss_id, inputs, {target: values}, stop_gradient_geo)
                var, _, mask = row_plan.build(inputs.depth.values)
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

    max_rel = max((r.rel_error for r in rows if not r.excluded), default=0.0)
    flipped = sum(r.mask_flipped for r in rows)
    return GradCheckReport(tuple(rows), max_rel, flipped, max_rel < tolerance)
