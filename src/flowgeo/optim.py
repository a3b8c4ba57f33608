"""Desk-scale field optimization: recover a per-pixel depth map by
gradient descent on the correspondence-prior losses, and the two-stream
co-adjustment experiment with a free flow field.

The depth field is optimized as log-depth, a positivity-preserving
bijection, with plain gradient descent. Two stabilizers are built in and
recorded in the run configuration:

* per-coordinate step clipping (the relative-error losses have unbounded
  gradient spikes where their denominators approach the guard);
* a warmup schedule for the divergence-correlation term: it switches on
  only after the geometric-consistency phase has converged, and runs at a
  reduced step. Its constant-magnitude subgradients otherwise act as a
  noise source stronger than the consistency term's restoring force and
  freeze the field into rough local minima (measured ~2% depth error).

Both experiments run one descent loop, `_descend`. Its depth stream
steps theta on the weighted depth losses; `recover_depth` runs it alone.
`co_adjust` (any config with w_b > 0) adds the flow stream of the
bidirectional stream co-adjustment: from `FLOW_START_FRACTION` of the
budget on, each iteration first steps a free flow field on the
co-adjustment loss against the rigid flow of the current depth, so the
depth losses see the adjusted flow. The loop keeps the depth and the flow
as raw arrays, checks the depth once per iteration and the flow once per
update as `DepthMap` and `FlowField` would, and wraps them in containers
only at a record, an abort or the return.

Each run is one `_Lane` of a `_Stack`, and `_descend` steps every lane of
a scene in lockstep: theta, the decoded depth and a co-adjusted flow carry
a leading lane axis, each loss term is one tape node over the lanes that
have it, and one backward pass and one update serve them all, with each
lane's weights, rate and step clip. A run alone is a stack of one, which
steps on its grids themselves, without the lane axis; the ablation suite
stacks all configs of a scene. A stack holds at most `STACK_PIXELS`
pixels of lanes (at least one lane): past that a bigger stack stepped
slower than its lanes one after another (the lanes' tape outgrows the
cache), so a lane that finds the stack full waits and starts later from
its saved rows. Every lane keeps the bits of its run alone (see
`autodiff` on lane stacks), and a lane leaves the stack when its run
ends, with the trace or the error it has alone.

Configs equal but for w_d share one lane up to `dpc_active_after`, the
end of the dpc warmup: their runs are one run there, bit for bit, since
the dpc weight is 0 and the rate is the same whatever w_d is, and the dpc
value, still evaluated for the records and the divergence check, is not on
the tape of the step. So one lead config, with the dpc term on, descends
through the warmup, and each other config forks from the lead's lane
there and joins the stack with a copy of its theta and flow and the
records so far (without their dpc value when its w_d is 0).

Each loss term's node comes from the term builder of `grad` that
`grad.build_loss` and the gradient checker call too, so `grad-check`
certifies the nodes of this objective. The work of a step that does not
depend on the log-depth theta (the pixel grid and rotated rays, the DPC
offsets and interior mask, the rotational flow, the SSIM statistics of
the target image, the flow side of the scene's flow) is done once per
scene, in the `_Plan` its lanes share.
`_set_flows` refreshes only what depends on a co-adjusted flow: the
triangulated depth and its validity, and the divergence of the
translational flow.

Reductions and updates are sequential and seeded, so a run is
bit-reproducible for a fixed config.
"""

from __future__ import annotations

import ctypes
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import (
    AbortedRunError,
    DegenerateTranslationError,
    FlowGeoError,
    InvalidDepthError,
    NoValidPixelsError,
)
from .geometry import (
    FLOW_NOT_FINITE,
    CameraGrid,
    DepthMap,
    FlowField,
    _clamp,
    _require_depth,
    _require_finite,
    interior_mask,
    rigid_flow_values,
    rotational_flow,
)
from .grad import _TERMS
from .losses import (
    DepthMetrics,
    _bsca_terms,
    bsca_core,
    depth_metrics,
    differential_flow_side,
    differential_offsets,
    reference_channels,
)
from .scene import SceneBundle
from .triangulate import triangulate_depth, triangulate_values

DPC_LR_SCALE = 0.02  # step scale once the divergence-correlation term is on
DPC_FLOOR = 0.02  # |C^D| below this is excluded from the optimized mean
FLOW_START_FRACTION = 0.15  # co_adjust: flow updates join after this
INIT_SCALE_RANGE = (0.5, 2.0)  # "random-scale" init: ground truth times U(lo, hi)
DIVERGENCE_THRESHOLD = 1e6  # a summed loss above this aborts the run
STACK_PIXELS = 12288  # a lane stack steps at most this many pixels (lanes x H x W)
INITS = ("ground-truth", "random-scale", "triangulated")


@dataclass(frozen=True)
class OptimConfig:
    w_p: float = 0.0  # photometric
    w_c: float = 1.0  # geometric depth consistency
    w_d: float = 0.1  # divergence/depth-gradient correlation
    w_b: float = 0.0  # rigid/optical flow co-adjustment
    learning_rate: float = 8.0
    flow_learning_rate: float = 250.0
    iterations: int = 2000
    init: str = "random-scale"  # one of INITS
    seed: int = 0
    record_every: int = 50
    step_clip: float = 0.02
    dpc_warmup_fraction: float = 0.45
    allow_dynamic: bool = False  # permit depth-only runs on dynamic scenes (ablation control)

    def __post_init__(self):
        for name in ("iterations", "seed", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # negated comparisons, so a NaN fails them
        if not all(0 <= w < np.inf for w in (self.w_p, self.w_c, self.w_d, self.w_b)):
            raise ValueError("loss weights must be finite and non-negative")
        if not all(0 < r < np.inf for r in (self.learning_rate, self.flow_learning_rate)):
            raise ValueError("learning rates must be finite and positive")
        if not 0 < self.step_clip < np.inf:
            raise ValueError("step_clip must be finite and positive")
        if self.iterations < 1 or self.record_every < 1:
            raise ValueError("iterations and record_every must be at least 1")
        if not 0 <= self.dpc_warmup_fraction <= 1:
            raise ValueError("dpc_warmup_fraction must be in [0, 1]")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    losses: dict
    metrics: DepthMetrics
    extras: dict = field(default_factory=dict)


@dataclass
class RunTrace:
    records: list
    final_depth: DepthMap
    final_flow: FlowField | None
    wall_clock_seconds: float
    config: OptimConfig

    def to_csv_rows(self):
        rows = []
        for r in self.records:
            row = {"iteration": r.iteration}
            row.update({f"loss_{k}": v for k, v in sorted(r.losses.items())})
            row.update(r.metrics.as_dict())
            row.update(r.extras)
            rows.append(row)
        return rows

    @property
    def final_metrics(self) -> DepthMetrics:
        return self.records[-1].metrics


# ---------------------------------------------------------------------------
# log-depth parameterization


def _initial_theta(bundle: SceneBundle, config: OptimConfig, rng) -> np.ndarray:
    gt = bundle.depth_gt.values
    if config.init == "ground-truth":
        d0 = gt.copy()
    elif config.init == "random-scale":
        lo, hi = INIT_SCALE_RANGE
        d0 = gt * rng.uniform(lo, hi, size=gt.shape)
    else:  # "triangulated"
        tri = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
        d0 = np.where(tri.validity, tri.depth_g.values, gt)
    return np.log(d0)


@np.errstate(over="ignore")
def _decode_values(theta):
    return np.exp(theta)


# ---------------------------------------------------------------------------
# objective assembly

# glibc's mallopt parameters (malloc.h) and the value its dynamic mmap
# threshold stops growing at (32 MiB on 64-bit)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
HEAP_PIN_BYTES = 32 << 20


def _pin_heap() -> bool:
    """Fix glibc's mmap threshold at HEAP_PIN_BYTES and its trim threshold
    at twice that, so the per-iteration arrays of a descent run come from
    the heap and the freed heap top stays mapped. Left to glibc's dynamic
    thresholds, a run that frees a few hundred kB at once hands the heap
    top back to the kernel every iteration and faults it in again on the
    next one. The setting is process-wide; every `_Plan` makes it, so
    library callers of the descent loops get it as the CLI does.
    Returns False (and does nothing) without glibc."""
    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only: the parameter numbers are glibc's
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, HEAP_PIN_BYTES)) and bool(
        mallopt(M_TRIM_THRESHOLD, 2 * HEAP_PIN_BYTES))


class _Plan:
    """The work of a step that depends on neither theta nor the config, for
    one scene, built once per `_Stack` and shared by all its lanes: the
    `CameraGrid` (pixels, centred pixels, normalized rays) and the rows
    R . [xn, yn, 1] of the warp rotation that triangulation and the
    photometric rigid flow share, and the flow side of the scene's flow
    (`flow_sides`); then, only when one of `configs` has the term that
    reads them, the SSIM statistics of the fixed target image (w_p), the
    triangulated depth of the scene's flow (w_c), and the DPC offsets
    q_u/q_v, interior mask, rotational flow when the ego-motion rotates and
    divergence of the scene's translational flow (w_d). Its grids have no
    lane axis: they broadcast against a stack of several lanes, and a stack
    of one steps on its grid itself (see `_stacked`). The term builders of
    `grad` read it as the checker's `grad._TapePlan`, with no depth mask and
    the DPC floor `DPC_FLOOR`."""

    def __init__(self, bundle: SceneBundle, configs):
        _pin_heap()
        self.camera, self.motion = bundle.camera, bundle.motion
        self.grid = CameraGrid.of(bundle.camera, *bundle.shape)
        self.rays = self.grid.rays(bundle.motion.rotation)
        self.t = bundle.motion.translation
        self.image_s, self.image_t = bundle.image_s.values, bundle.image_t.values
        self.depth_mask, self.dpc_floor = True, DPC_FLOOR
        w_c, w_d, w_p = (any(getattr(config, name) > 0 for config in configs)
                         for name in ("w_c", "w_d", "w_p"))
        self.reference = reference_channels(self.image_t) if w_p else None
        self.rotation = None  # rotational flow values, when the dpc term needs them
        if w_d:
            self.t_ego = tuple(ad.as_var(t) for t in bundle.ego_motion.translation)
            self.q = differential_offsets(self.camera, self.t_ego, self.grid)
            self.interior = interior_mask(*bundle.shape)
            if np.abs(bundle.ego_motion.rotation - np.eye(3)).max() > 1e-14:
                self.rotation = rotational_flow(self.camera, self.motion.rotation,
                                                *bundle.shape).values
        flow = bundle.flow_gt
        self.flow_mask = flow.mask
        geo, div = self.flow_sides(flow.values[None], flow.mask[None], [0] if w_c else [],
                                   [0] if w_d else [])
        self.scene_geo, self.scene_div = geo.get(0), div.get(0)

    def flow_sides(self, values, masks, geo_rows, div_rows):
        """The flow side of a lane stack of flows (values (k, H, W, 2),
        masks (k, H, W)), as {lane: part}: for each lane of `geo_rows` its
        triangulated (depth, validity), for each lane of `div_rows` the
        divergence of its translational flow, or the error its checks
        raise instead."""
        f_u, f_v = values[..., 0], values[..., 1]
        geo, div = {}, {}
        if geo_rows:
            depth, validity, _ = triangulate_values(
                self.camera, self.motion, _pick(f_u, geo_rows), _pick(f_v, geo_rows),
                _pick(masks, geo_rows), self.grid, self.rays,
            )
            n = len(geo_rows)
            for i, lane_depth, valid in zip(geo_rows, _lanes_of(depth, n), _lanes_of(validity, n)):
                try:
                    _require_depth(lane_depth, valid)
                    if not valid.any():
                        raise NoValidPixelsError("triangulation produced no valid pixels")
                    geo[i] = lane_depth, valid
                except FlowGeoError as exc:
                    geo[i] = exc
        if div_rows:
            f_u, f_v = _pick(f_u, div_rows), _pick(f_v, div_rows)
            if self.rotation is not None:
                f_u = f_u - self.rotation[..., 0]
                f_v = f_v - self.rotation[..., 1]
            try:
                div_f = differential_flow_side(f_u, f_v)
                div = dict(zip(div_rows, _lanes_of(div_f, len(div_rows))))
            except (FlowGeoError, ValueError) as exc:  # the grid's, so every lane's
                div = {i: exc for i in div_rows}
        return geo, div


# Lane stacks: the lanes' grids stacked along a leading axis, and a stack of
# one lane is its grid itself, without the axis. So a run alone steps on
# plain grids, as the loss nodes' 2-D form has them, and numpy runs each
# operation on operands of one shape.


def _stacked(arrays):
    """The lane stack of the lanes' arrays (one per lane): a stack of one is
    the array itself, so writing it writes the lane's array."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _pick(array, rows):
    """The lane stack of the lanes `rows` (increasing) of a stored (k, ...)
    stack: its grid for one lane, the stack itself for all of its lanes."""
    if len(rows) == 1:
        return array[rows[0]]
    return array if len(rows) == len(array) else array[rows]


def _lanes_of(stack, n):
    """The n lanes' arrays of a lane stack (see `_stacked`)."""
    return [stack] if n == 1 else list(stack)


def _lane_values(value):
    """The per-lane values of a loss node over a lane stack, as floats."""
    return [value] if type(value) is float else value.tolist()


def _lane_stacks(parts):
    """One array per entry of the lanes' tuples of grids: the grid itself
    where every lane holds the same array (it broadcasts against the lane
    axis), else the lanes' stack."""
    first = parts[0]
    if len(parts) == 1:
        return first
    return tuple(a if all(p[j] is a for p in parts) else np.stack([p[j] for p in parts])
                 for j, a in enumerate(first))


class _DepthObjective:
    """What one config's run steps on: its config, the shared `_Plan` of its
    scene and the flow side of its flow (the triangulated depth and its
    validity when w_c > 0, the divergence of the translational flow when
    w_d > 0, and the flow's valid mask). A run on the scene's flow takes the
    plan's flow side; `fork` hands a forked run the side of its lead, and
    `_set_flows` refreshes it when the flow stream moves the flow."""

    def __init__(self, bundle: SceneBundle, config: OptimConfig, plan, side=None):
        self.bundle, self.config, self.plan = bundle, config, plan
        self.dpc_active_after = int(config.dpc_warmup_fraction * config.iterations)
        # the loss terms the objective holds, in `TERMS` order
        self.terms = tuple(name for name, w in zip(TERMS, (config.w_c, config.w_d, config.w_p))
                           if w > 0)
        if side is None:  # the scene's flow; a part that failed its checks raises anew
            plan = self.plan
            side = (plan.scene_geo if config.w_c > 0 else None,
                    plan.scene_div if config.w_d > 0 else None, plan.flow_mask)
            for part in side:
                if isinstance(part, Exception):
                    raise _error_of(part, config)
        self.geo, self.div_f, self.flow_mask = side

    def fork(self, config):
        """The objective of `config`, equal to this one's config but for w_d,
        on this one's plan and flow side (without the divergence when its w_d
        is 0). It cannot fail: it needs a part of what this one holds."""
        div_f = self.div_f if config.w_d > 0 else None
        return _DepthObjective(self.bundle, config, self.plan, (self.geo, div_f, self.flow_mask))

    def weights(self, iteration):
        cfg = self.config
        w = {"cgdc": cfg.w_c, "photometric": cfg.w_p, "dpc": cfg.w_d}
        if iteration < self.dpc_active_after:
            w["dpc"] = 0.0
        return w

    def rate(self, iteration):
        cfg = self.config
        if cfg.w_d > 0 and iteration >= self.dpc_active_after:
            return cfg.learning_rate * DPC_LR_SCALE
        return cfg.learning_rate


def _set_flows(objectives, values, masks):
    """Refresh the flow side of the objectives, lane i's from its flow
    (values[i], masks[i] of (k, ...) stacks), all on one plan; returns
    {lane: error} for the lanes whose new flow fails a check."""
    plan = objectives[0].plan
    geo, div = plan.flow_sides(
        values, masks, [i for i, o in enumerate(objectives) if o.config.w_c > 0],
        [i for i, o in enumerate(objectives) if o.config.w_d > 0],
    )
    errors = {}
    for i, objective in enumerate(objectives):
        for part in (geo.get(i), div.get(i)):
            if isinstance(part, Exception):
                errors.setdefault(i, _error_of(part, objective.config))
        if i in errors:
            continue
        objective.flow_mask = masks[i]
        if i in geo:
            objective.geo = geo[i]
        if i in div:
            objective.div_f = div[i]
    return errors


# the loss terms in the order a step creates their nodes: the reverse is the
# order in which the depth's gradient sums their contributions
TERMS = ("cgdc", "dpc", "photometric")


def _terms(objectives, depth, d=None, iteration=None):
    """The loss terms of a lane stack as tape nodes: lane i steps on
    objectives[i] at its decoded depth in the stack `depth` (see
    `_stacked`). Each term is one node over the lanes whose objective has
    it, in `TERMS` order. The lanes
    whose weight for the term is positive at `iteration` read the leaf `d`,
    the whole stack or `ad.lanes` of it; the others, all of them when `d`
    is None, read the plain depth, off the tape. A node comes from the
    term's builder in `grad._TERMS`, the one `grad.build_loss` checks, on
    the lanes' stacked flow sides. A lane whose valid set of a term is
    empty leaves that term out.

    Returns ([(node, lanes, their weights)] of the nodes on the tape, the
    lanes as an index of the stack's leading axis, each lane's loss values
    keyed by term in `TERMS` order, {lane: error}): a node call that raises
    ends the lanes it was over, and they take no further term."""
    k = len(objectives)
    everyone = list(range(k))
    # (term, on the tape) -> (lanes, their weights), in creation order
    groups = {(name, on_tape): ([], []) for name in TERMS for on_tape in (True, False)}
    for i, objective in enumerate(objectives):
        weights = None if d is None else objective.weights(iteration)
        for name in objective.terms:
            w = 0.0 if weights is None else weights[name]
            rows, ws = groups[name, w > 0]
            rows.append(i)
            ws.append(w)
    parts, values, errors = [], [{} for _ in everyone], {}
    plan = objectives[0].plan
    for (name, on_tape), (rows, ws) in groups.items():
        build, part = _TERMS[name][:2]
        while rows:
            if errors:
                rows = [i for i in rows if i not in errors]
                ws = [objectives[i].weights(iteration)[name] for i in rows] if on_tape else ws
                if not rows:
                    break
            # every lane (a slice, no copy), one lane (its grid) or several
            index = slice(None) if rows == everyone else rows[0] if len(rows) == 1 else rows
            stack = d if on_tape else depth
            if rows == everyone:
                lanes = stack
            else:
                lanes = ad.lanes(stack, index) if on_tape else stack[index]
            try:
                side = _lane_stacks([part(objectives[i]) for i in rows]) if part else ()
                node, mask = build(plan, lanes, *side)
            except (FlowGeoError, ValueError) as exc:
                for i in rows:
                    errors[i] = _error_of(exc, objectives[i].config)
                break
            if node is not None:
                for i, value in zip(rows, _lane_values(node.value)):
                    values[i][name] = value
                if on_tape:
                    parts.append((node, index, ws[0] if len(rows) == 1 else np.array(ws)))
                break
            # rebuilt without the lanes whose valid set is empty
            kept = np.atleast_1d(mask.any(axis=(-2, -1))).tolist()
            ws = [w for w, keep_lane in zip(ws, kept) if keep_lane]
            rows = [i for i, keep_lane in zip(rows, kept) if keep_lane]
    return parts, values, errors


def _weighted_total(parts, k):
    """The root of a stacked step: per lane, the weighted sum of its terms
    on the tape, as one (k,) node over the term nodes (`parts` of
    `_terms`), a float node for a stack of one. A term's seed is its lanes'
    weights, as `term * w` passes it in a run alone."""
    if k == 1:
        return ad.Var(sum(node.value * w for node, _, w in parts),
                      [node for node, _, _ in parts], lambda g: [g * w for _, _, w in parts])
    total = np.zeros(k)
    for node, rows, w in parts:
        total[rows] += node.value * w
    return ad.Var(total, [node for node, _, _ in parts],
                  lambda g: [g[rows] * w for _, rows, w in parts])


def _depth_step(objectives, theta, depth, iteration):
    """One step of each lane's theta, theta[i] on objectives[i], taken at
    its decoded depth depth[i] = exp(theta[i]): d(loss)/d(theta) =
    d(loss)/dD * D, with each lane's weights, rate and step clip.

    Returns (theta after the step, each lane's loss values, {lane: error}).
    A lane with no term on the tape (the warmup with only dpc configured)
    holds its field: its gradient is 0."""
    k = len(objectives)
    grid = depth[0] if k == 1 else depth  # a stack of one steps on its grid
    d = ad.Var(grid)
    parts, values, errors = _terms(objectives, grid, d, iteration)
    if not parts:
        return theta, values, errors
    ad.backward(_weighted_total(parts, k))
    lanes = [(o.rate(iteration), o.config.step_clip) for o in objectives]
    if k == 1:
        (rate, clip), = lanes
        return (theta[0] - _clamp(rate * (d.grad * grid), -clip, clip))[None], values, errors
    rate, clip = (column[:, None, None] for column in np.array(lanes).T)
    step = _clamp(rate * (d.grad * depth), -clip, clip)
    return theta - step, values, errors


def _record(bundle, depth, iteration, loss_values, flow=None, rigid=None):
    """Trace record of the losses evaluated at the decoded depth `depth`,
    with the extras `co_adjust` lists when the flow stream passes its `flow`
    and the `rigid` flow of the depth ((values, mask) pairs). Such a record
    always carries the co-adjustment loss: where the iteration took no flow
    step, it is `bsca_core`'s forward evaluated here, off the tape."""
    depth, gt, dynamic = DepthMap(depth), bundle.depth_gt, bundle.dynamic_mask
    losses, extras = dict(loss_values), {}
    if rigid is not None:
        if "bsca" not in losses:
            (values, mask), (r, r_valid) = flow, rigid
            rel = _bsca_terms(r[..., 0], r[..., 1], values[..., 0], values[..., 1])[0]
            losses["bsca"], _, _ = ad._mean_over(rel, mask & r_valid)
        gap = np.abs(flow[0] - rigid[0]).sum(axis=-1)
        if dynamic.any():
            extras["dynamic_abs_rel"] = depth_metrics(depth, gt, dynamic).abs_rel
            extras["patch_flow_gap"] = float(gap[dynamic].mean())
        extras["static_abs_rel"] = depth_metrics(depth, gt, bundle.static_mask).abs_rel
        extras["mean_flow_gap"] = float(gap.mean())
    return TraceRecord(iteration, losses, depth_metrics(depth, gt), extras)


@np.errstate(over="ignore")
def _float32_storable(values):
    """Which entries a float32 artifact can hold: finite after the cast."""
    return np.isfinite(values.astype(np.float32))


def _abort_if_diverged(iteration, loss_values, depth, records, started, config, flow=None,
                       flow_storable=True):
    """Raise AbortedRunError, carrying the partial trace, once the summed
    loss passes `DIVERGENCE_THRESHOLD` or any value stops being finite.
    `depth` is the decoded depth of the updated field; `flow` is the
    (values, mask) pair of a co-adjusted flow field, which has diverged too
    once it holds a value float32 (the flow file) cannot (`flow_storable`).
    The partial trace masks what its artifacts cannot store. A finite depth
    that is not strictly positive (theta underflowed) raises InvalidDepthError."""
    total = sum(loss_values.values())
    if (not np.isfinite(total) or total > DIVERGENCE_THRESHOLD
            or not np.isfinite(depth).all() or not flow_storable):
        ok = np.isfinite(depth) & (depth > 0)
        final_flow = None
        if flow is not None:
            keep = _float32_storable(flow[0]).all(axis=-1)
            final_flow = FlowField(np.where(keep[..., None], flow[0], 0.0), flow[1] & keep)
        trace = RunTrace(records, DepthMap(np.where(ok, depth, 1.0), ok), final_flow,
                         time.perf_counter() - started, config)
        raise AbortedRunError(f"run diverged at iteration {iteration} (loss {total:.3g})", trace)
    if not (depth > 0).all():
        raise InvalidDepthError("depth must be strictly positive where valid")


# ---------------------------------------------------------------------------
# experiments


def _preconditions(bundle, config):
    """Raise what the run of `config` raises before its descent starts; a
    co-adjusted run (w_b > 0) has no such checks."""
    if config.w_b > 0:
        return
    if bundle.dynamic_mask.any() and not config.allow_dynamic:
        raise ValueError("scene has a dynamic object; use co_adjust (w_b > 0) or allow_dynamic")
    if np.linalg.norm(bundle.motion.translation) == 0:
        raise DegenerateTranslationError("depth recovery needs a nonzero translation")
    if config.w_p == 0 and config.w_c == 0 and config.w_d == 0:
        raise ValueError("objective is empty: all depth-loss weights are zero")


def _run_alone(bundle, config):
    """The RunTrace of `config` descended alone; the error that ended the
    run is raised."""
    (outcome,) = _descend(bundle, [config])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def recover_depth(bundle: SceneBundle, config: OptimConfig) -> RunTrace:
    """Recover dense depth from the correspondence prior by gradient
    descent on the weighted losses; pose and flow are ground truth
    throughout. A config with w_b > 0 co-adjusts the flow: run it with
    `co_adjust`."""
    if config.w_b > 0:
        raise ValueError("recover_depth does not co-adjust flow; use co_adjust for w_b > 0")
    return _run_alone(bundle, config)


def co_adjust(bundle: SceneBundle, config: OptimConfig) -> RunTrace:
    """Jointly adjust a free flow field and the depth field: the descent
    loop of `recover_depth` with its flow stream on.

    The flow starts at the scene's observed flow (dynamic motion included,
    standing in for a pre-trained correspondence network) and is updated
    only by the rigid/optical co-adjustment loss against the rigid flow of
    the current depth; the depth field is updated by the depth losses
    computed from that flow.

    Phases: the flow is frozen for the first `FLOW_START_FRACTION` (a
    module constant) of the budget (the depth field must first lock onto
    the prior, otherwise the static flow drifts toward the rigid flow of
    the random init), then both fields adjust. `dpc_warmup_fraction` marks
    where the depth drops to its slow rate and the divergence-correlation
    term joins: set it *after* the flow transition has finished (e.g. 0.9)
    when a dynamic object must be pulled to quasi-rigid flow (the depth has
    to track the moving triangulation target at full rate meanwhile), or
    early for static scenes so the flow settles against a quiet depth
    field. Trace extras report the depth error over the static and dynamic
    regions and the flow gap |flow - rigid flow| over the dynamic region
    and the whole grid.
    """
    if config.w_b <= 0:
        raise ValueError("co_adjust needs w_b > 0")
    return _run_alone(bundle, config)


class _Lane:
    """One config's run in a `_Stack`: its objective, the co-adjusted flow
    ((values, mask) when w_b > 0, else None), its records so far and, for
    a lead before its fork, the configs that fork from it. Its theta and
    depth are its rows of the stack's."""

    def __init__(self, objective, flow, records, forks=()):
        self.objective, self.config = objective, objective.config
        self.flow, self.records, self.forks = flow, records, list(forks)
        self.flow_start = int(FLOW_START_FRACTION * self.config.iterations)
        # the flow's storability changes only when the flow does
        self.storable = flow is None or _float32_storable(flow[0]).all()

    def fork(self, config):
        """The lane of `config`, equal to this lane's config but for w_d:
        an objective forked from this one's, a copy of the flow, which the
        flow step updates in place, and the records so far, without their
        dpc value when its w_d is 0."""
        flow = None if self.flow is None else (self.flow[0].copy(), self.flow[1].copy())
        return _Lane(self.objective.fork(config), flow, _records_of(self.records, config))


def _records_of(records, config):
    """A copy of the records of the lead's lane as the run of `config`
    records them: without their dpc value when its w_d is 0."""
    if config.w_d == 0:
        return [replace(r, losses={k: v for k, v in r.losses.items() if k != "dpc"})
                for r in records]
    return list(records)


def _error_of(exc, config):
    """The error `exc`, as the run of `config` raises it: a new error of
    its type and message, whose trace, for an AbortedRunError, names
    `config` and holds its own copy of the records."""
    if isinstance(exc, AbortedRunError) and exc.trace is not None:
        trace = replace(exc.trace, records=_records_of(exc.trace.records, config),
                        config=config)
        return AbortedRunError(str(exc), trace)
    return type(exc)(*exc.args)


class _Stack:
    """The runs of one scene stepped in lockstep (see `_descend`): the
    lanes, their thetas and decoded depths as (k, H, W) stacks, row i lane
    i's, the shared plan, the lanes waiting to join and the outcome of
    every run that has ended. It holds at most `room` lanes, as many as
    `STACK_PIXELS` allows and at least one."""

    def __init__(self, bundle, configs):
        self.bundle = bundle
        self.plan = _Plan(bundle, configs)
        self.room = max(1, STACK_PIXELS // (bundle.shape[0] * bundle.shape[1]))
        self.started = time.perf_counter()
        self.lanes, self.theta = [], np.empty((0,) + bundle.shape)
        self.depth = self.theta
        self.waiting = []  # (iteration, lanes, their theta and depth rows)
        self.outcomes = {}

    def run(self, groups):
        """Start each group's lead, then step until every lane has left. A
        lane that finds the stack full waits, with its rows, and starts
        from them once the stack has room at its iteration, or has emptied."""
        for members in groups:
            self._start(members)
        it = 0
        while self.lanes or self.waiting:
            if not self.lanes:
                it = min(start for start, *_ in self.waiting)
            self._admit(it)
            leads = [lane for lane in self.lanes
                     if lane.forks and it == lane.objective.dpc_active_after]
            if leads:
                for lane in leads:
                    self._fork(lane, it)
                self._admit(it)
            done = [lane for lane in self.lanes if lane.config.iterations == it]
            if done:
                self._finish(done)
            if self.lanes:
                self._step(it)
            it += 1
        return self.outcomes

    def _start(self, members):
        lead = next((config for config in members if config.w_d > 0), members[0])
        bundle = self.bundle
        try:
            theta = _initial_theta(bundle, lead, np.random.default_rng(lead.seed))
            objective = _DepthObjective(bundle, lead, self.plan)
            depth = _decode_values(theta)
            _require_depth(depth)
        except (FlowGeoError, ValueError) as exc:
            self._group_failed(lead, members, exc)
            return
        flow = None
        if lead.w_b > 0:  # the flow stream starts from a copy of the scene's flow
            flow = bundle.flow_gt.values.copy(), bundle.flow_gt.mask.copy()
        forks = [config for config in members if config != lead]
        self.waiting.append((0, [_Lane(objective, flow, [], forks)], theta[None], depth[None]))

    def _group_failed(self, lead, members, exc):
        """The outcomes of a group whose lead failed before its fork: a
        config whose dpc term is on or off as in the lead's does the same
        work alone and takes the error its own run would raise, made from
        the lead's; each other config runs alone."""
        for config in members:
            if config == lead:
                self.outcomes[config] = exc
            elif (config.w_d > 0) == (lead.w_d > 0):  # the same work
                self.outcomes[config] = _error_of(exc, config)
            else:
                self.outcomes[config] = _descend(self.bundle, [config])[0]

    def _admit(self, it):
        """The lanes waiting to start at iteration `it` join the stack, in
        the order they came, while it has room."""
        waiting = []
        for start, lanes, theta, depth in self.waiting:
            n = min(self.room - len(self.lanes), len(lanes)) if start == it else 0
            if n:
                self.lanes += lanes[:n]
                self.theta = np.concatenate([self.theta, theta[:n]])
                self.depth = np.concatenate([self.depth, depth[:n]])
            if n < len(lanes):
                waiting.append((start, lanes[n:], theta[n:], depth[n:]))
        self.waiting = waiting

    def _leave(self, ended):
        """Take the lanes of `ended` ({lane: outcome}) off the stack; a lead
        that leaves before its fork ends its group."""
        keep = [i for i, lane in enumerate(self.lanes) if lane not in ended]
        self.lanes = [self.lanes[i] for i in keep]
        self.theta, self.depth = self.theta[keep], self.depth[keep]
        for lane, outcome in ended.items():
            if lane.forks:
                self._group_failed(lane.config, [lane.config, *lane.forks], outcome)
            else:
                self.outcomes[lane.config] = outcome

    def _fork(self, lead, it):
        """Every fork of `lead` waits to join the stack at iteration `it`,
        with copies of its rows."""
        i = self.lanes.index(lead)
        lanes = [lead.fork(config) for config in lead.forks]
        lead.forks = []
        rows = [i] * len(lanes)
        self.waiting.append((it, lanes, self.theta[rows], self.depth[rows]))

    def _rigid_flows(self, rows, ended):
        """{lane: (values, valid)}, the rigid flow of each lane of `rows` at
        its depth, checked finite where valid; a lane whose flow is not
        goes to `ended` with its error."""
        plan = self.plan
        values, valid = rigid_flow_values(plan.camera, plan.motion, _pick(self.depth, rows),
                                          grid=plan.grid)
        rigid = {}
        for i, lane_values, lane_valid in zip(rows, _lanes_of(values, len(rows)),
                                               _lanes_of(valid, len(rows))):
            lane = self.lanes[i]
            try:
                _require_finite(lane_values, lane_valid, FLOW_NOT_FINITE)
                rigid[lane] = lane_values, lane_valid
            except ValueError as exc:
                ended[lane] = exc
        return rigid

    def _flow_step(self, lanes, rigid, ended):
        """The flow step of the lanes in their flow phase: the co-adjustment
        loss only, against the rigid flow of each lane's depth, updating each
        lane's flow in place and then its objective's flow side. Returns
        {lane: its co-adjustment loss}."""
        n = len(lanes)
        values = _stacked([lane.flow[0] for lane in lanes])
        masks = _stacked([lane.flow[1] for lane in lanes])
        r_values = _stacked([rigid[lane][0] for lane in lanes])
        r_valid = _stacked([rigid[lane][1] for lane in lanes])
        f_u, f_v = ad.Var(values[..., 0]), ad.Var(values[..., 1])
        loss_b = bsca_core(r_values[..., 0], r_values[..., 1], f_u, f_v, masks & r_valid)
        ad.backward(loss_b)
        rates = [lane.config.flow_learning_rate * lane.config.w_b for lane in lanes]
        rate = rates[0] if n == 1 else np.array(rates)[:, None, None]
        values[..., 0] -= rate * f_u.grad
        values[..., 1] -= rate * f_v.grad
        moved = []
        for j, (lane, lane_values, lane_mask) in enumerate(
                zip(lanes, _lanes_of(values, n), _lanes_of(masks, n))):
            if n > 1:  # a stacked copy: the lane's own array takes the step
                lane.flow[0][...] = lane_values
            lane.storable = _float32_storable(lane_values).all()
            try:
                if not lane.storable:  # a flow float32 can hold is finite
                    _require_finite(lane_values, lane_mask, FLOW_NOT_FINITE)
                moved.append(j)
            except ValueError as exc:
                ended[lane] = exc
        if moved:
            if n == 1:
                values, masks = values[None], masks[None]
            if len(moved) < n:
                values, masks = values[moved], masks[moved]
            errors = _set_flows([lanes[j].objective for j in moved], values, masks)
            for m, exc in errors.items():
                ended[lanes[moved[m]]] = exc
        return dict(zip(lanes, _lane_values(loss_b.value)))

    def _step(self, it):
        """Iteration `it` of every lane: for a lane in its flow phase a flow
        step, then the depth step of the whole stack, then each lane's record
        and divergence check of its updated state. The rigid flow of a
        co-adjusted lane's depth is evaluated only where it is used: on the
        iterations of its flow phase and on its record iterations. A lane
        that fails leaves the stack at the phase where it fails."""
        lanes, ended = self.lanes, {}
        flowing = [i for i, lane in enumerate(lanes) if lane.flow is not None]
        rigid, bsca = {}, {}
        if flowing:
            rows = [i for i in flowing
                    if it >= lanes[i].flow_start or it % lanes[i].config.record_every == 0]
            if rows:
                rigid = self._rigid_flows(rows, ended)
            stepping = [lanes[i] for i in flowing
                        if it >= lanes[i].flow_start and lanes[i] not in ended]
            if stepping:
                bsca = self._flow_step(stepping, rigid, ended)
            if ended:
                self._leave(ended)
                lanes, ended = self.lanes, {}
                if not lanes:
                    return

        # depth step: consistency losses from the (adjusted) flow
        depth = self.depth
        theta, values, errors = _depth_step([lane.objective for lane in lanes], self.theta,
                                            depth, it)
        self.theta, self.depth = theta, _decode_values(theta)
        sound = bool(np.isfinite(self.depth).all() and (self.depth > 0).all())
        for i, lane in enumerate(lanes):
            if i in errors:
                ended[lane] = errors[i]
                continue
            if lane in bsca:
                values[i]["bsca"] = bsca[lane]
            try:
                if it % lane.config.record_every == 0:
                    # the record pairs this iteration's losses with the state
                    # they were evaluated at (before the update)
                    lane.records.append(_record(self.bundle, depth[i], it, values[i], lane.flow,
                                                rigid.get(lane)))
                total = sum(values[i].values())
                if not (sound and lane.storable and -np.inf < total <= DIVERGENCE_THRESHOLD):
                    _abort_if_diverged(it, values[i], self.depth[i], lane.records, self.started,
                                       lane.config, lane.flow, lane.storable)
            except (FlowGeoError, ValueError) as exc:
                ended[lane] = exc
        if ended:
            self._leave(ended)

    def _finish(self, lanes):
        """Each lane of `lanes` leaves with its RunTrace, its final record at
        the depth after its last step."""
        rows = [self.lanes.index(lane) for lane in lanes]
        _, values, ended = _terms([lane.objective for lane in lanes], _pick(self.depth, rows))
        depth = self.depth[rows]
        flowing = [rows[j] for j, lane in enumerate(lanes)
                   if lane.flow is not None and j not in ended]
        outcomes = {}
        rigid = self._rigid_flows(flowing, outcomes) if flowing else {}
        for j, lane in enumerate(lanes):
            if j in ended:
                outcomes[lane] = ended[j]
                continue
            if lane in outcomes:  # its rigid flow is not finite
                continue
            config = lane.config
            try:
                lane.records.append(_record(self.bundle, depth[j], config.iterations, values[j],
                                            lane.flow, rigid.get(lane)))
                final_flow = None if lane.flow is None else FlowField(*lane.flow)
                outcomes[lane] = RunTrace(lane.records, DepthMap(depth[j]), final_flow,
                                          time.perf_counter() - self.started, config)
            except (FlowGeoError, ValueError) as exc:
                outcomes[lane] = exc
        self._leave(outcomes)


def _descend(bundle, configs):
    """The descent loop of both experiments (see the module docstring) over
    any configs of one scene; a config with w_b > 0 runs the flow stream.
    Returns one outcome per config, in order: its RunTrace, or the
    FlowGeoError or ValueError that ended its run.

    The configs that are equal but for w_d form a group. Its lead, the first
    with the dpc term on (the first if none has it), is one lane through the
    dpc warmup, iterations [0, dpc_active_after); there each other distinct
    config of the group forks the lead's lane (`_Lane.fork`) and joins the
    stack with a copy of its theta and depth. Every lane of the stack takes
    each iteration in lockstep with the others: one node per loss term over
    the lanes that have it, one backward pass, one update of the stacked
    theta with each lane's weights, rate and step clip. A lane leaves the
    stack when it ends: after its last iteration with its trace, or with the
    error that ends it. The stack holds `_Stack.room` lanes; a lead or a
    fork that finds it full waits with its rows and joins once the stack
    has room at its iteration, or has emptied (the stack then goes back to
    the earliest iteration a lane waits at). The wall clock of every run
    counts from the stack's start, its wait included.

    This is each config run alone, bit for bit. Each lane's values, sums
    and gradient sums are those of its run alone (see `autodiff` on lane
    stacks). Up to `dpc_active_after` the dpc weight is 0 and the rate is
    the same whatever w_d is, and the dpc value, still evaluated for the
    records and the divergence check, is not on the tape of the step. The
    losses are non-negative, so a config whose losses are a subset of the
    lead's passes the divergence check wherever the lead passes it. If a
    lead fails before its fork, a config whose dpc term is on or off as in
    the lead's does the same work alone and takes the error its own run
    would raise, made from the lead's (`_error_of`); each other config runs
    alone."""
    outcomes, groups = {}, {}
    for config in dict.fromkeys(configs):
        try:
            _preconditions(bundle, config)
        except (FlowGeoError, ValueError) as exc:
            outcomes[config] = exc
            continue
        groups.setdefault(replace(config, w_d=0.0), []).append(config)
    if groups:
        running = [config for members in groups.values() for config in members]
        outcomes.update(_Stack(bundle, running).run(groups.values()))
    return [outcomes[config] for config in configs]


def ablation_suite(bundles, configs) -> list:
    """Run every (scene, config) pair; one result row per pair.

    `bundles` and `configs` are sequences of (name, object) pairs. Rows
    keep their input order; a failing run contributes a row with its error
    message instead of metrics. A config with w_b > 0 is co-adjusted as by
    `co_adjust`, any other runs as by `recover_depth`.

    All configs of a scene run as one call of `_descend`, stepped in
    lockstep as one stack as far as its room allows; the configs that differ only in w_d (equal after
    `replace(config, w_d=0.0)`) share one lane through the dpc warmup,
    iterations [0, dpc_active_after), and fork from it there. Every row is
    the row of its config run alone (see `_descend`).
    """
    if not bundles or not configs:
        raise ValueError("ablation needs at least one scene and one config")
    rows = []
    for scene_name, bundle in bundles:
        outcomes = _descend(bundle, [config for _, config in configs])
        for (config_name, config), outcome in zip(configs, outcomes):
            row = {
                "scene": scene_name,
                "config": config_name,
                "w_p": config.w_p,
                "w_c": config.w_c,
                "w_d": config.w_d,
                "w_b": config.w_b,
                "seed": config.seed,
                "error": "",
            }
            if isinstance(outcome, RunTrace):
                row.update(outcome.final_metrics.as_dict())
                row.update(outcome.records[-1].extras)
            else:
                row["error"] = f"{type(outcome).__name__}: {outcome}"
            rows.append(row)
    return rows
