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

Each run builds one plan, in `_DepthObjective`: the work of a step that
does not depend on the log-depth theta (the pixel grid and rotated rays,
the DPC offsets and interior mask, the rotational flow, the SSIM
statistics of the target image) is done once. `set_flow` refreshes only
what depends on the flow: the triangulated depth and its validity, and the
divergence of the translational flow.

Reductions and updates are sequential and seeded, so a run is
bit-reproducible for a fixed config.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    AbortedRunError,
    DegenerateTranslationError,
    FlowGeoError,
    NoValidPixelsError,
)
from .geometry import (
    FLOW_NOT_FINITE,
    CameraGrid,
    DepthMap,
    FlowField,
    _require_depth,
    _require_finite,
    interior_mask,
    rigid_flow_values,
    rotational_flow,
)
from .grad import warp_graph
from .losses import (
    DepthMetrics,
    bsca_core,
    cgdc_core,
    depth_metrics,
    differential_depth_side,
    differential_flow_side,
    differential_offsets,
    dpc_core,
    photometric_core,
    reference_channels,
)
from .scene import SceneBundle
from .triangulate import triangulate_depth, triangulate_values

DPC_LR_SCALE = 0.02  # step scale once the divergence-correlation term is on
DPC_FLOOR = 0.02  # |C^D| below this is excluded from the optimized mean
FLOW_START_FRACTION = 0.15  # co_adjust: flow updates join after this


@dataclass(frozen=True)
class OptimConfig:
    w_p: float = 0.0  # photometric
    w_c: float = 1.0  # geometric depth consistency
    w_d: float = 0.1  # divergence/depth-gradient correlation
    w_b: float = 0.0  # rigid/optical flow co-adjustment
    learning_rate: float = 8.0
    flow_learning_rate: float = 250.0
    iterations: int = 2000
    init: str = "random-scale"  # "ground-truth" | "random-scale" | "triangulated"
    init_scale_range: tuple = (0.5, 2.0)
    seed: int = 0
    record_every: int = 50
    step_clip: float = 0.02
    dpc_warmup_fraction: float = 0.45
    allow_dynamic: bool = False  # permit depth-only runs on dynamic scenes (ablation control)
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if min(self.w_p, self.w_c, self.w_d, self.w_b) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.learning_rate <= 0 or self.flow_learning_rate <= 0:
            raise ValueError("learning rates must be positive")


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
        lo, hi = config.init_scale_range
        d0 = gt * rng.uniform(lo, hi, size=gt.shape)
    elif config.init == "triangulated":
        tri = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
        d0 = np.where(tri.validity, tri.depth_g.values, gt)
    else:
        raise ValueError(f"unknown init {config.init!r}")
    return np.log(d0)


def _decode_values(theta):
    with np.errstate(over="ignore"):
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
    next one. The setting is process-wide; every `_DepthObjective` makes
    it, so library callers of the descent loops get it as the CLI does.
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


class _DepthObjective:
    """The per-iteration tape graph of the depth field, over one plan.

    The plan is built once, in `__init__`, from what does not depend on
    theta: the `CameraGrid` (pixels, centred pixels, normalized rays), the
    rows R . [xn, yn, 1] of the warp rotation that triangulation and the
    photometric rigid flow share, the DPC offsets q_u/q_v and interior mask,
    the rotational flow when the ego-motion rotates, and the SSIM statistics
    of the fixed target image. `set_flow` refreshes only the flow side: the
    triangulated depth and its validity, and the divergence of the
    translational flow. `losses` then builds only the nodes that depend on
    theta: one tape node per loss term (two for the photometric term, the
    warp and the SSIM + L1 mean), so a step records about ten nodes.
    """

    def __init__(self, bundle: SceneBundle, config: OptimConfig):
        _pin_heap()
        self.bundle = bundle
        self.config = config
        self.camera = bundle.camera
        self.motion = bundle.motion
        self.grid = CameraGrid.of(bundle.camera, *bundle.shape)
        self.rays = self.grid.rays(bundle.motion.rotation)
        self.dpc_active_after = int(config.dpc_warmup_fraction * config.iterations)
        self.reference = reference_channels(bundle.image_t.values) if config.w_p > 0 else None
        self.rotation = None  # rotational flow values, when the dpc term needs them
        if config.w_d > 0:
            self.t_ego = tuple(ad.as_var(t) for t in bundle.ego_motion.translation)
            self.q = differential_offsets(self.camera, self.t_ego, self.grid)
            self.interior = interior_mask(*bundle.shape)
            if np.abs(bundle.ego_motion.rotation - np.eye(3)).max() > 1e-14:
                rot = rotational_flow(self.camera, bundle.motion.rotation, *bundle.shape)
                self.rotation = rot.values
        self.geo = None  # (depth node, validity) of the triangulated depth
        self.div_f = None  # divergence of the translational flow
        self.set_flow(bundle.flow_gt.values, bundle.flow_gt.mask)

    def set_flow(self, values, mask):
        """Take a new flow (values (H, W, 2), valid mask): check that it is
        finite where valid and refresh the flow side of the plan."""
        _require_finite(values, mask, FLOW_NOT_FINITE)
        self.flow_mask = mask
        f_u, f_v = values[..., 0], values[..., 1]
        if self.config.w_c > 0:
            depth, validity, _ = triangulate_values(
                self.camera, self.motion, f_u, f_v, mask, self.grid, self.rays
            )
            _require_depth(depth, validity)
            if not validity.any():
                raise NoValidPixelsError("triangulation produced no valid pixels")
            self.geo = (ad.as_var(depth), validity)
        if self.config.w_d > 0:
            if self.rotation is not None:
                f_u = f_u - self.rotation[..., 0]
                f_v = f_v - self.rotation[..., 1]
            self.div_f = differential_flow_side(f_u, f_v)

    def rigid_flow(self, depth_values):
        """Rigid flow (values, valid) of a depth grid under the warp motion,
        checked finite where valid as `FlowField` checks it."""
        values, valid = rigid_flow_values(self.camera, self.motion, depth_values, grid=self.grid)
        _require_finite(values, valid, FLOW_NOT_FINITE)
        return values, valid

    def losses(self, depth_var):
        """Loss terms as tape nodes, keyed by short name; a term whose
        valid set is empty is left out."""
        cfg = self.config
        terms = {}
        if cfg.w_c > 0:
            geo_values, geo_valid = self.geo
            terms["cgdc"] = cgdc_core(geo_values, depth_var, geo_valid)
        if cfg.w_d > 0:
            side = differential_depth_side(
                self.t_ego[2], depth_var, *self.q, self.div_f, interior=self.interior
            )
            mask = side.validity & (np.abs(side.c_d) >= DPC_FLOOR) & self.flow_mask
            if mask.any():
                terms["dpc"] = dpc_core(side, mask)
        if cfg.w_p > 0:
            warped, pmask = warp_graph(
                self.camera, self.bundle.image_s.values, self.motion.translation, depth_var,
                self.grid, self.rays,
            )
            if pmask.any():
                terms["photometric"] = photometric_core(
                    self.bundle.image_t.values, warped, pmask, reference=self.reference
                )
        return terms

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


def _evaluate_record(bundle, theta, iteration, loss_values, extras=None):
    depth = DepthMap(_decode_values(theta))
    metrics = depth_metrics(depth, bundle.depth_gt)
    return TraceRecord(iteration, dict(loss_values), metrics, extras or {})


def _final_record(bundle, objective, theta, config, extras=None):
    """Record of the losses and metrics at the final state."""
    terms = objective.losses(ad.exp(ad.Var(theta)))
    final_values = {name: float(term.value) for name, term in terms.items()}
    return _evaluate_record(bundle, theta, config.iterations, final_values, extras)


def _safe_depth(values) -> DepthMap:
    """DepthMap that tolerates non-finite entries by masking them (used
    when packaging the state of an aborted run)."""
    ok = np.isfinite(values) & (values > 0)
    return DepthMap(np.where(ok, values, 1.0), ok)


def _float32_storable(values):
    """Which entries a float32 artifact can hold: finite after the cast."""
    with np.errstate(over="ignore"):
        return np.isfinite(values.astype(np.float32))


def _safe_flow(values, mask) -> FlowField:
    """FlowField that zeroes and masks the pixels a flow file cannot store
    (used when packaging the state of an aborted run)."""
    ok = _float32_storable(values).all(axis=-1)
    return FlowField(np.where(ok[..., None], values, 0.0), mask & ok)


def _abort_if_diverged(iteration, loss_values, decoded, records, started, config, flow=None):
    """Raise AbortedRunError, carrying the partial trace, once the summed
    loss passes `divergence_threshold` or any value stops being finite.
    `decoded` is the depth of the updated field; `flow` is the (values,
    mask) pair of a co-adjusted flow field, which has diverged too once it
    holds a value float32 (the flow file) cannot."""
    total = sum(loss_values.values())
    if (not np.isfinite(total) or total > config.divergence_threshold
            or not np.isfinite(decoded).all()
            or (flow is not None and not _float32_storable(flow[0]).all())):
        trace = RunTrace(records, _safe_depth(decoded),
                         None if flow is None else _safe_flow(*flow),
                         time.perf_counter() - started, config)
        raise AbortedRunError(f"run diverged at iteration {iteration} (loss {total:.3g})", trace)


# ---------------------------------------------------------------------------
# experiments


def recover_depth(bundle: SceneBundle, config: OptimConfig) -> RunTrace:
    """Recover dense depth from the correspondence prior by gradient
    descent on the weighted losses; pose is ground truth throughout."""
    if bundle.dynamic_mask.any() and config.w_b == 0 and not config.allow_dynamic:
        raise ValueError("scene has a dynamic object; use co_adjust (w_b > 0) or allow_dynamic")
    if np.linalg.norm(bundle.motion.translation) == 0:
        raise DegenerateTranslationError("depth recovery needs a nonzero translation")
    if config.w_p == 0 and config.w_c == 0 and config.w_d == 0:
        raise ValueError("objective is empty: all depth-loss weights are zero")

    rng = np.random.default_rng(config.seed)
    theta = _initial_theta(bundle, config, rng)
    objective = _DepthObjective(bundle, config)
    records = []
    started = time.perf_counter()

    for it in range(config.iterations):
        new_theta, loss_values = _depth_step(objective, theta, it, config)
        if it % config.record_every == 0:
            # the record pairs this iteration's losses with the state they
            # were evaluated at (before the update)
            records.append(_evaluate_record(bundle, theta, it, loss_values))
        theta = new_theta
        _abort_if_diverged(it, loss_values, _decode_values(theta), records, started, config)

    records.append(_final_record(bundle, objective, theta, config))
    return RunTrace(
        records,
        DepthMap(_decode_values(theta)),
        None,
        time.perf_counter() - started,
        config,
    )


def _depth_step(objective, theta, iteration, config):
    th = ad.Var(theta)
    terms = objective.losses(ad.exp(th))
    weights = objective.weights(iteration)
    total = None
    loss_values = {}
    for name, term in terms.items():
        loss_values[name] = float(term.value)
        w = weights.get(name, 0.0)
        if w > 0:
            total = term * w if total is None else total + term * w
    if total is None:  # warmup with only dpc configured: hold the field
        return theta, loss_values
    ad.backward(total)
    step = objective.rate(iteration) * np.asarray(th.grad)
    step = np.clip(step, -config.step_clip, config.step_clip)
    return theta - step, loss_values


def co_adjust(bundle: SceneBundle, config: OptimConfig) -> RunTrace:
    """Jointly adjust a free flow field and the depth field.

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
    field. Trace extras report static/dynamic-region depth error and the
    mean flow gap over the dynamic region.

    The loop keeps the flow and the depth as raw arrays, checked each
    iteration as `FlowField` and `DepthMap` check them, and wraps them in
    containers only at a record, an abort or the return. The rigid flow of
    the depth is evaluated only on the iterations that use it: those of the
    flow phase, record iterations and the final record.
    """
    if config.w_b <= 0:
        raise ValueError("co_adjust needs w_b > 0")
    rng = np.random.default_rng(config.seed)
    theta = _initial_theta(bundle, config, rng)
    objective = _DepthObjective(bundle, config)
    flow_start = int(FLOW_START_FRACTION * config.iterations)
    flow_values = bundle.flow_gt.values.copy()
    flow_mask = bundle.flow_gt.mask.copy()
    records = []
    started = time.perf_counter()

    depth_values = _decode_values(theta)
    for it in range(config.iterations):
        _require_depth(depth_values)
        flow_phase = it >= flow_start
        record = it % config.record_every == 0
        if flow_phase or record:
            rigid_values, rigid_valid = objective.rigid_flow(depth_values)

        loss_b = None
        if flow_phase:
            # flow step: co-adjustment loss only
            f_u = ad.Var(flow_values[..., 0])
            f_v = ad.Var(flow_values[..., 1])
            bmask = flow_mask & rigid_valid
            loss_b = bsca_core(rigid_values[..., 0], rigid_values[..., 1], f_u, f_v, bmask)
            ad.backward(loss_b)
            rate = config.flow_learning_rate * config.w_b
            flow_values = np.stack(
                [
                    flow_values[..., 0] - rate * np.asarray(f_u.grad),
                    flow_values[..., 1] - rate * np.asarray(f_v.grad),
                ],
                axis=-1,
            )
            objective.set_flow(flow_values, flow_mask)

        # depth step: consistency losses from the adjusted flow
        new_theta, loss_values = _depth_step(objective, theta, it, config)
        if loss_b is not None:
            loss_values["bsca"] = float(loss_b.value)
        if record:
            extras = _region_extras(bundle, theta, flow_values, rigid_values)
            records.append(_evaluate_record(bundle, theta, it, loss_values, extras))
        theta = new_theta
        depth_values = _decode_values(theta)
        _abort_if_diverged(it, loss_values, depth_values, records, started, config,
                           (flow_values, flow_mask))

    final_depth = DepthMap(depth_values)
    final_rigid, _ = objective.rigid_flow(final_depth.values)
    extras = _region_extras(bundle, theta, flow_values, final_rigid)
    records.append(_final_record(bundle, objective, theta, config, extras))
    return RunTrace(
        records,
        final_depth,
        FlowField(flow_values, flow_mask),
        time.perf_counter() - started,
        config,
    )


def _region_extras(bundle, theta, flow_values, rigid_values):
    depth = DepthMap(_decode_values(theta))
    extras = {}
    gap = np.abs(flow_values - rigid_values).sum(axis=-1)
    if bundle.dynamic_mask.any():
        extras["dynamic_abs_rel"] = depth_metrics(
            depth, bundle.depth_gt, bundle.dynamic_mask
        ).abs_rel
        extras["patch_flow_gap"] = float(gap[bundle.dynamic_mask].mean())
    extras["static_abs_rel"] = depth_metrics(depth, bundle.depth_gt, bundle.static_mask).abs_rel
    extras["mean_flow_gap"] = float(gap.mean())
    return extras


def ablation_suite(bundles, configs) -> list:
    """Run every (scene, config) pair; one result row per pair.

    `bundles` and `configs` are sequences of (name, object) pairs. Rows
    keep their input order; a failing run contributes a row with its error
    message instead of metrics.
    """
    if not bundles or not configs:
        raise ValueError("ablation needs at least one scene and one config")
    rows = []
    for scene_name, bundle in bundles:
        for config_name, config in configs:
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
            try:
                runner = co_adjust if config.w_b > 0 else recover_depth
                trace = runner(bundle, config)
                row.update(trace.final_metrics.as_dict())
                row.update(trace.records[-1].extras)
            except (FlowGeoError, ValueError) as exc:  # a failed run; keep the suite running
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    return rows
