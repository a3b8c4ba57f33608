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
`stop_gradient_geo=True` makes it the constant depth of the inputs' own
twist and flow, in every build.

Each loss term has one builder (`_TERMS`), called as `build(plan, depth)`
on a `LossPlan`: the checker's `build_loss` and the descent's
`optim._terms` call the same builders in the same way, on plans of one
class, so `grad-check` certifies the nodes the descent steps on. The term
itself is one tape node (`losses`, and `warp_graph` here for the
photometric warp); in the
checker's plans, whose twist and flow are leaves, the rotation, the rays,
the triangulated depth, the rotational flow and the offsets that feed it
are composed graphs of elementary ops.

Masks (behind-camera, out-of-image, degeneracy) are treated as constants
of each forward pass; the checker detects coordinates whose perturbation
flips a mask and excludes them from the pass/fail verdict, reporting the
count instead.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass
from functools import cached_property

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
    _require_depth,
    interior_mask,
    inverse_translation,
    rotation_rows,
    rotational_flow,
    stencil_validity,
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
from .triangulate import depth_from_ratio, triangulation_ratio

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
    f_u's, and the links run t2, D, r2, t1, D, r1, t0, D, r0. The adjoint
    rebuilds the transformed points y_i = D r_i + t_i, one pass each, by
    `rigid_flow_terms`' own operations, rather than keeping them.

    The depth is on the tape whenever the vjp runs, a leaf or a lane pick
    of one, so its links always get their contributions; the rays and t are
    constants on a descent step, and only the checker puts them on the
    tape, so the vjp tests those.
    """
    d = ad.value_of(depth)
    r = [ad.value_of(x) for x in rays]
    tv = [ad.value_of(x) for x in t]
    _, _, y2, f_u, f_v = rigid_flow_terms(camera, r, tv, d, grid)
    out, inside, px, py = ad._bilinear_partials(image, f_u + grid.u, f_v + grid.v)

    def vjp(g):
        grads = [None] * 9
        y2 = d * r[2] + tv[2]
        g_q = ad._bilinear_vjp(g, py) * camera.fy
        g_y = [None, g_q / y2, -g_q * (d * r[1] + tv[1]) / (y2 * y2)]
        g_q = ad._bilinear_vjp(g, px) * camera.fx
        g_y[0] = g_q / y2
        g_y[2] = g_y[2] + -g_q * (d * r[0] + tv[0]) / (y2 * y2)
        for k, i in enumerate((2, 1, 0)):
            g_m = g_y[i]
            if ad.active(t[i]):
                grads[3 * k] = g_m
            grads[3 * k + 1] = g_m * r[i]
            if ad.active(rays[i]):
                grads[3 * k + 2] = g_m * d
        return grads

    links = [x for i in (2, 1, 0) for x in (t[i], depth, rays[i])]
    return ad.Var(out, links, vjp), (y2 > Z_EPS) & inside


# ---------------------------------------------------------------------------
# loss graph assembly
#
# A term builder takes a plan and the depth (a leaf, or a lane stack of
# them), reads the flow parts it needs from the plan, and returns (node,
# mask); the node is None when some lane's mask is empty. cgdc's mask is
# the triangulation validity, which the plan has checked, and dpc's starts
# from where the plan's divergence may be valid.


def _photometric_term(plan, depth):
    warped, valid = warp_graph(plan.camera, plan.image_s, plan.t, depth, plan.grid, plan.rays)
    mask = valid & plan.depth_mask
    return (photometric_core(plan.image_t, warped, mask, reference=plan.reference)
            if mask.any(axis=(-2, -1)).all() else None), mask


def _cgdc_term(plan, depth):
    d_g, valid = plan.geo
    return cgdc_core(d_g, depth, valid), valid


def _dpc_term(plan, depth):
    div_f, valid = plan.div
    t3, q_u, q_v = plan.q
    side = differential_depth_side(t3, depth, q_u, q_v, div_f, valid=valid)
    mask = side.validity & (np.abs(side.c_d) >= plan.dpc_floor)
    return (dpc_core(side, mask) if mask.any(axis=(-2, -1)).all() else None), mask


def _bsca_term(plan, depth):
    _, _, y2, r_u, r_v = rigid_flow_terms(plan.camera, plan.rays, plan.t, depth, plan.grid)
    mask = (y2.value > Z_EPS) & plan.flow_mask
    return (bsca_core(r_u, r_v, plan.f_u, plan.f_v, mask)
            if mask.any(axis=(-2, -1)).all() else None), mask


def _smoothness_term(plan, depth):
    return smoothness_core(depth, plan.image_t), np.ones(plan.depth_mask.shape, bool)


# loss id -> (builder, the plan fields it needs, the error without them,
# the error of an empty mask)
_TERMS = {
    "photometric": (_photometric_term, ("image_t", "image_s"),
                    "photometric loss needs both images",
                    "photometric: warp produced no valid pixels"),
    "cgdc": (_cgdc_term, ("f_u",), "cgdc loss needs the flow prior", None),
    "dpc": (_dpc_term, ("f_u",), "dpc loss needs the flow prior", "dpc: no valid pixels"),
    "bsca": (_bsca_term, ("f_u",), "bsca loss needs the flow prior", "bsca: no valid pixels"),
    "smoothness": (_smoothness_term, ("image_t",), "smoothness loss needs the target image",
                   None),
}
LOSS_IDS = tuple(_TERMS)


class LossPlan:
    """What the loss terms read besides the depth, for one pose (the warp
    R as rows and t, and the source-to-target `t_ego`) and one flow: the
    descent's, of constants, or the checker's, of twist and flow leaves. The rays R . [xn, yn, 1] are built at once,
    each other part on its first read, and a part whose checks fail raises
    at each read. A part is a tape graph where its inputs are on the tape
    (`ad.active`), else arrays: the rotational flow of a constant rotation
    is `geometry.rotational_flow`, None for the identity. The grids have
    no lane axis. Every lane of a descent's stack reads the stack's plan;
    a co-adjusted lane, alone in its stack, steps on the plan of its own
    flow (`with_flow`)."""

    def __init__(self, camera, R, t, t_ego, image_t, image_s, f_u, f_v, flow_mask, depth_mask,
                 dpc_floor, geo_plan=None):
        self.camera, self.R, self.t, self.t_ego = camera, R, t, t_ego
        self.image_t, self.image_s, self.f_u, self.f_v = image_t, image_s, f_u, f_v
        self.flow_mask, self.depth_mask, self.dpc_floor = flow_mask, depth_mask, dpc_floor
        self.geo_plan, self.grid = geo_plan, CameraGrid.of(camera, *flow_mask.shape)
        self.rays = self.grid.rays(R)

    @cached_property
    def reference(self):
        return reference_channels(self.image_t)

    @cached_property
    def geo(self):
        """The triangulated (depth, validity) of the flow, or the
        `geo_plan`'s; raises its FlowGeoError."""
        if self.geo_plan is not None:
            return self.geo_plan.geo
        num, den = triangulation_ratio(self.camera, self.R, self.t, self.f_u, self.f_v, self.grid,
                                       self.rays)
        depth, validity, _ = depth_from_ratio(ad.value_of(num), ad.value_of(den), self.flow_mask)
        d_g = ad.div(num, den) if ad.active(num) else depth
        _require_depth(depth, validity)
        if not validity.any():
            raise NoValidPixelsError("triangulation produced no valid pixels")
        return d_g, validity

    @cached_property
    def q(self):  # (t3, q_u, q_v); the checker's t_ego (None) is -R^T t
        t_ego = inverse_translation(self.R, self.t) if self.t_ego is None else self.t_ego
        return (t_ego[2], *differential_offsets(self.camera, t_ego, self.grid))

    @cached_property
    def rotation(self):  # the rigid flow of a unit depth under (R, 0)
        if ad.active(self.rays[0]):
            return rigid_flow_terms(self.camera, self.rays, (0.0, 0.0, 0.0), ad.as_var(1.0),
                                    self.grid)[3:]
        if np.abs(self.R - np.eye(3)).max() <= 1e-14:
            return None
        values = rotational_flow(self.camera, self.R, *self.flow_mask.shape).values
        return values[..., 0], values[..., 1]

    @cached_property
    def div(self):
        """The divergence of the flow less the rotational flow, and
        `dpc_validity`; raises the grid's error."""
        f_u, f_v = self.f_u, self.f_v
        if self.rotation is not None:
            f_u, f_v = f_u - self.rotation[0], f_v - self.rotation[1]
        return differential_flow_side(f_u, f_v), self.dpc_validity

    @cached_property
    def dpc_validity(self):
        """Where C^F may be valid: off the border, where the stencils read
        valid flow. It depends on the flow mask alone."""
        return stencil_validity(self.flow_mask) & interior_mask(*self.flow_mask.shape)

    def with_flow(self, f_u, f_v, flow_mask):
        """The plan of the flow (f_u, f_v) with valid pixels `flow_mask`:
        this plan's pose, images and depth mask, and every flow-independent
        part it has built (the rays, the SSIM statistics, the DPC offsets,
        the rotational flow), shared. Its `dpc_validity` is shared too when
        `flow_mask` is this plan's mask object; the triangulated depth and
        the divergence are built anew."""
        stale = ("geo", "div") if flow_mask is self.flow_mask else ("geo", "div", "dpc_validity")
        plan = object.__new__(LossPlan)
        vars(plan).update({k: v for k, v in vars(self).items() if k not in stale},
                          f_u=f_u, f_v=f_v, flow_mask=flow_mask)
        return plan


def _leaf_plan(inputs: LossInputs, overrides: dict, geo_plan=None, leaf=ad.Var):
    """(plan, leaves): the checker's plan of `inputs`, its twist and flow
    `leaf`s of the override values or the inputs' own, the depth's mask
    ANDed into the flow's, and a DPC floor of 0."""
    xi = [leaf(float(x)) for x in overrides.get("twist", inputs.twist.values)]
    R, t, leaves = rotation_entries(xi[0], xi[1], xi[2]), (xi[3], xi[4], xi[5]), {"twist": xi}
    f_u, f_v, mask = None, None, inputs.depth.mask
    if inputs.flow is not None:
        values = overrides.get("flow", inputs.flow.values)
        f_u, f_v = leaves["flow"] = tuple(
            leaf(np.asarray(values[..., i], dtype=float)) for i in (0, 1))
        mask = inputs.flow.mask & mask
    images = (getattr(image, "values", None) for image in (inputs.image_t, inputs.image_s))
    return LossPlan(inputs.camera, R, t, None, *images, f_u, f_v, mask, inputs.depth.mask, 0.0,
                    geo_plan), leaves


def _geo_plan(inputs: LossInputs, stop_gradient_geo: bool):
    """The constant plan whose geometric depth the checker's plans read."""
    return _leaf_plan(inputs, {}, leaf=ad.as_var)[0] if stop_gradient_geo else None


def _build(plan, loss_id, depth_values):
    """(loss Var, depth leaf, mask) of the term `loss_id` on `plan` at a
    depth leaf of `depth_values`."""
    if loss_id not in _TERMS:
        raise ValueError(f"unknown loss id {loss_id!r}")
    build, needs, missing, empty = _TERMS[loss_id]
    if any(getattr(plan, name) is None for name in needs):
        raise ValueError(missing)
    d = ad.Var(np.asarray(depth_values, dtype=float))
    loss, mask = build(plan, d)
    if loss is None:
        raise NoValidPixelsError(empty)
    return loss, d, mask


def build_loss(loss_id, inputs: LossInputs, overrides: dict | None = None,
               stop_gradient_geo: bool = False):
    """Assemble the graph for one loss: its term builder, the one the
    descent steps on, on a `LossPlan` of its own.

    `overrides` maps "depth", "twist" or "flow" to values that replace the
    input's. With `stop_gradient_geo`, cgdc's geometric depth is the
    triangulation of the inputs' own twist and flow, whatever the
    overrides. Returns (loss Var, leaves dict, mask ndarray).
    """
    overrides = overrides or {}
    plan, leaves = _leaf_plan(inputs, overrides, _geo_plan(inputs, stop_gradient_geo))
    loss, d, mask = _build(plan, loss_id, overrides.get("depth", inputs.depth.values))
    return loss, {"depth": d, **leaves}, mask


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
    share one `LossPlan`, and each +- build of a twist or flow coordinate
    makes its own.

    The picks come from `np.random.default_rng(seed)`, so a check imports
    `numpy.random` (`rng.PCG64` reproduces only its `uniform` draws).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    for name, value in (("depth_samples", depth_samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    geo_plan = _geo_plan(inputs, stop_gradient_geo)
    plan, leaves = _leaf_plan(inputs, {}, geo_plan)
    loss, d, base_mask = _build(plan, loss_id, inputs.depth.values)
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
        grad = np.asarray(_grad_or_zero(d))
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
                var, _, mask = _build(plan, loss_id, values)
            else:
                row_plan, _ = _leaf_plan(inputs, {target: values}, geo_plan)
                var, _, mask = _build(row_plan, loss_id, inputs.depth.values)
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
