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

Each run is one `_Lane`. `ablation_suite` hands `_descend` the configs of
a scene that are equal but for w_d. Until `dpc_active_after`, the end of
the dpc warmup, their runs are one run, bit for bit: the dpc weight is 0
there and the rate is the same whatever w_d is, and the dpc value, still
evaluated for the records and the divergence check, is not on the tape of
the step. So one lead config, with the dpc term on, descends through the
warmup, and each other config forks from the lead's lane there, with a
plan, a copy of the flow and the records so far of its own (without their
dpc value when its w_d is 0).

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
from .grad import warp_graph
from .losses import (
    DepthMetrics,
    _bsca_terms,
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
INIT_SCALE_RANGE = (0.5, 2.0)  # "random-scale" init: ground truth times U(lo, hi)
DIVERGENCE_THRESHOLD = 1e6  # a summed loss above this aborts the run
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
    of the fixed target image. The flow side is planned from `flow`, a
    (values, mask) pair, or else from the scene's flow; `set_flow`
    refreshes only that side: the triangulated depth and its validity, and
    the divergence of the translational flow. `losses` then builds only the
    nodes that depend on theta: one tape node per loss term (two for the
    photometric term, the warp and the SSIM + L1 mean), so a step records
    about ten nodes.
    """

    def __init__(self, bundle: SceneBundle, config: OptimConfig, flow=None):
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
        self.geo = None  # (depth, validity) of the triangulated depth
        self.div_f = None  # divergence of the translational flow
        if flow is None:
            flow = bundle.flow_gt.values, bundle.flow_gt.mask
        self.set_flow(*flow)

    def set_flow(self, values, mask):
        """Take a new flow (values (H, W, 2), valid mask), finite where
        valid, and refresh the flow side of the plan as plain arrays."""
        self.flow_mask = mask
        f_u, f_v = values[..., 0], values[..., 1]
        if self.config.w_c > 0:
            depth, validity, _ = triangulate_values(
                self.camera, self.motion, f_u, f_v, mask, self.grid, self.rays
            )
            _require_depth(depth, validity)
            if not validity.any():
                raise NoValidPixelsError("triangulation produced no valid pixels")
            self.geo = (depth, validity)
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


def _depth_step(objective, theta, depth, iteration, config):
    """One step of theta, taken at its decoded depth `depth` = exp(theta):
    d(loss)/d(theta) = d(loss)/dD * D."""
    d = ad.Var(depth)
    terms = objective.losses(d)
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
    step = objective.rate(iteration) * (np.asarray(d.grad) * depth)
    step = _clamp(step, -config.step_clip, config.step_clip)
    return theta - step, loss_values


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
    """The descent state of one config's run: theta, its decoded depth, the
    co-adjusted flow ((values, mask) when w_b > 0, else None), the
    objective they step on and the records so far."""

    def __init__(self, bundle, objective, theta, depth, flow, records, started):
        self.bundle, self.objective, self.records = bundle, objective, records
        self.theta, self.depth, self.flow, self.started = theta, depth, flow, started
        self.flow_start = int(FLOW_START_FRACTION * objective.config.iterations)
        # the flow's storability changes only when the flow does
        self.storable = flow is None or _float32_storable(flow[0]).all()

    @classmethod
    def start(cls, bundle, config):
        """The lane of `config` before its first step; the flow stream
        starts from a copy of the scene's flow."""
        theta = _initial_theta(bundle, config, np.random.default_rng(config.seed))
        objective = _DepthObjective(bundle, config)
        depth = _decode_values(theta)
        _require_depth(depth)
        flow = None
        if config.w_b > 0:
            flow = bundle.flow_gt.values.copy(), bundle.flow_gt.mask.copy()
        return cls(bundle, objective, theta, depth, flow, [], time.perf_counter())

    def step(self, it):
        """Iteration `it`: in the flow phase a flow step, then a depth step,
        then the record and the divergence check of the updated state. The
        rigid flow of the depth is evaluated only where it is used: on the
        iterations of the flow phase and on record iterations."""
        bundle, objective, flow = self.bundle, self.objective, self.flow
        config = objective.config
        record = it % config.record_every == 0
        flow_phase = flow is not None and it >= self.flow_start
        on_record = flow is not None and record
        rigid = objective.rigid_flow(self.depth) if flow_phase or on_record else None
        if flow_phase:
            # flow step: co-adjustment loss only, updating `flow` in place
            (values, mask), (r_values, r_valid) = flow, rigid
            f_u, f_v = ad.Var(values[..., 0]), ad.Var(values[..., 1])
            loss_b = bsca_core(r_values[..., 0], r_values[..., 1], f_u, f_v, mask & r_valid)
            ad.backward(loss_b)
            rate = config.flow_learning_rate * config.w_b
            values[..., 0] -= rate * np.asarray(f_u.grad)
            values[..., 1] -= rate * np.asarray(f_v.grad)
            self.storable = _float32_storable(values).all()
            if not self.storable:  # a flow float32 can hold is finite
                _require_finite(values, mask, FLOW_NOT_FINITE)
            objective.set_flow(values, mask)

        # depth step: consistency losses from the (adjusted) flow
        depth = self.depth
        self.theta, loss_values = _depth_step(objective, self.theta, depth, it, config)
        if flow_phase:
            loss_values["bsca"] = float(loss_b.value)
        self.depth = _decode_values(self.theta)
        if record:
            # the record pairs this iteration's losses with the state they
            # were evaluated at (before the update)
            self.records.append(_record(bundle, depth, it, loss_values, flow, rigid))
        _abort_if_diverged(it, loss_values, self.depth, self.records, self.started, config,
                           flow, self.storable)

    def fork(self, config):
        """The lane of `config`, equal to this lane's config but for w_d,
        from this lane's state: a plan of its own, a copy of the flow, which
        the flow step updates in place (theta and the depth are replaced at
        each step, never written to), and the records so far, without their
        dpc value when its w_d is 0. Building the plan cannot fail: it is
        this lane's plan, or the same without the dpc term, on the flow this
        lane's plan holds."""
        flow = None if self.flow is None else (self.flow[0].copy(), self.flow[1].copy())
        return _Lane(self.bundle, _DepthObjective(self.bundle, config, flow), self.theta,
                     self.depth, flow, _records_of(self.records, config), self.started)

    def finish(self):
        """The RunTrace of the run, with its final record at the depth after
        the last step."""
        bundle, depth, flow, config = self.bundle, self.depth, self.flow, self.objective.config
        terms = self.objective.losses(ad.Var(depth))
        final_values = {name: float(term.value) for name, term in terms.items()}
        rigid = self.objective.rigid_flow(depth) if flow is not None else None
        self.records.append(_record(bundle, depth, config.iterations, final_values, flow, rigid))
        final_flow = None if flow is None else FlowField(*flow)
        return RunTrace(self.records, DepthMap(depth), final_flow,
                        time.perf_counter() - self.started, config)


def _records_of(records, config):
    """A copy of the records of the lead's lane as the run of `config`
    records them: without their dpc value when its w_d is 0."""
    if config.w_d == 0:
        return [replace(r, losses={k: v for k, v in r.losses.items() if k != "dpc"})
                for r in records]
    return list(records)


def _error_of(exc, config):
    """The error `exc` that ended the lead's run, as the run of `config`
    raises it: a new error of its type and message, whose trace, for an
    AbortedRunError, names `config` and holds its own copy of the records."""
    if isinstance(exc, AbortedRunError) and exc.trace is not None:
        trace = replace(exc.trace, records=_records_of(exc.trace.records, config),
                        config=config)
        return AbortedRunError(str(exc), trace)
    return type(exc)(*exc.args)


def _descend(bundle, configs):
    """The descent loop of both experiments (see the module docstring) over
    configs that are equal but for w_d; a config with w_b > 0 runs the flow
    stream. Returns one outcome per config, in order: its RunTrace, or the
    FlowGeoError or ValueError that ended its run.

    The lead config, the first with the dpc term on (the first if none has
    it), runs alone through the dpc warmup, iterations [0,
    dpc_active_after). Each other distinct config then forks the lead's
    lane (`_Lane.fork`), and each lane runs to its end, one after another:
    after the fork they share no mutable state. The wall clock of every
    run counts from the lead's start, so it includes the lanes that ran
    before its own.

    This is each config run alone, bit for bit. Up to `dpc_active_after`
    the dpc weight is 0 and the rate is the same whatever w_d is, and the
    dpc value, still evaluated for the records and the divergence check, is
    not on the tape of the step. The losses are non-negative, so a config
    whose losses are a subset of the lead's passes the divergence check
    wherever the lead passes it. If the lead's run fails before the fork,
    a config whose dpc term is on or off as in the lead's does the same
    work alone and takes the error its own run would raise, made from the
    lead's (`_error_of`); each other config runs alone."""
    outcomes = {}
    for config in configs:
        try:
            _preconditions(bundle, config)
        except (FlowGeoError, ValueError) as exc:
            outcomes[config] = exc
    live = [config for config in dict.fromkeys(configs) if config not in outcomes]
    if not live:
        return [outcomes[config] for config in configs]
    lead = next((config for config in live if config.w_d > 0), live[0])
    try:
        lane = _Lane.start(bundle, lead)
        warmup = lane.objective.dpc_active_after
        for it in range(warmup):
            lane.step(it)
    except (FlowGeoError, ValueError) as exc:
        for config in live:
            if config == lead:
                outcomes[config] = exc
            elif (config.w_d > 0) == (lead.w_d > 0):  # the same work
                outcomes[config] = _error_of(exc, config)
            else:
                outcomes[config] = _descend(bundle, [config])[0]
        return [outcomes[config] for config in configs]
    # every fork before the lead's lane moves on
    lanes = {config: lane if config == lead else lane.fork(config) for config in live}
    for config, lane in lanes.items():
        try:
            for it in range(warmup, config.iterations):
                lane.step(it)
            outcomes[config] = lane.finish()
        except (FlowGeoError, ValueError) as exc:
            outcomes[config] = exc
    return [outcomes[config] for config in configs]


def ablation_suite(bundles, configs) -> list:
    """Run every (scene, config) pair; one result row per pair.

    `bundles` and `configs` are sequences of (name, object) pairs. Rows
    keep their input order; a failing run contributes a row with its error
    message instead of metrics. A config with w_b > 0 is co-adjusted as by
    `co_adjust`, any other runs as by `recover_depth`.

    The configs that differ only in w_d (equal after `replace(config,
    w_d=0.0)`) run on each scene as one call of `_descend`: the lead
    config descends alone through the dpc warmup, iterations [0,
    dpc_active_after), and each other config forks from it there. Every
    row is the row of its config run alone (see `_descend`).
    """
    if not bundles or not configs:
        raise ValueError("ablation needs at least one scene and one config")
    groups = {}  # indices of the configs equal but for w_d, in input order
    for index, (_, config) in enumerate(configs):
        groups.setdefault(replace(config, w_d=0.0), []).append(index)
    rows = []
    for scene_name, bundle in bundles:
        outcomes = {}
        for indices in groups.values():
            outcomes.update(zip(indices, _descend(bundle, [configs[i][1] for i in indices])))
        for index, (config_name, config) in enumerate(configs):
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
            outcome = outcomes[index]
            if isinstance(outcome, RunTrace):
                row.update(outcome.final_metrics.as_dict())
                row.update(outcome.records[-1].extras)
            else:
                row["error"] = f"{type(outcome).__name__}: {outcome}"
            rows.append(row)
    return rows
