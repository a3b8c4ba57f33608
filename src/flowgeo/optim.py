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

Each run is one `_Lane` of a `_Stack`, and a stack steps its lanes in
lockstep, all of them on its one plan. The depth step is stacked: theta and
the decoded depth carry a leading lane axis, each loss term is one tape node
over the lanes that have it, and one backward pass and one update serve
them all, with each lane's weights, rate and step clip. A run alone is a
stack of one, which steps on its grids themselves, without the lane axis:
on a (1, H, W) stack it keeps its bits but pays the lane axis on every step
(4 more calls per active step, and an in-process 96x72 `co_adjust` 6-19%
slower; see the README). The ablation suite stacks the depth-only configs
of a scene. A co-adjusted run steps alone, in a stack of its own, on the
plan of its own flow: its flow step (`_Lane.flow_step`), against the rigid
flow of its depth, replaces its plan with the plan of the updated flow. A
stack holds at most `STACK_PIXELS` pixels of lanes (at least one lane):
past that a bigger stack stepped slower than its lanes one after another
(the lanes' tape outgrows the cache), so a lane that finds the stack full
waits with its rows and joins once the stack has room at its iteration,
or has emptied (the stack then goes back to the earliest iteration a lane
waits at).

Through the dpc warmup, where its weight is 0, a lane builds the dpc term
only at its record iterations, off the tape, for the record's value (see
`_terms`). The divergence check sums what the iteration evaluated: every
term at a record, else the terms on the tape (and the flow step's
co-adjustment loss). So a run that diverges only through its warmup dpc
value is caught where that value is next evaluated, at its next record or
from `dpc_active_after` on, and not on the step after it diverged.

Depth-only configs equal but for w_d form a group, whose runs are one run
up to `dpc_active_after`, the end of the dpc warmup, bit for bit: the dpc
weight is 0 there and the rate is the same whatever w_d is, and the dpc
value, evaluated at the records alone, is not on the tape of the step. So
the group's lead, its first config with the dpc term on (its first if none
has it), descends through the warmup as one lane, and there each other
config forks from it (`_Lane.fork`) and joins the stack with a copy of its
theta and depth and of the records so far (without their dpc value when
its w_d is 0).

A lane leaves the stack when its run ends: after its last iteration with
its trace, or with the error that ends it; the lane records, checks and
ends its own run (`_Lane.record`, `check`, `trace`). A lead that ends
before its fork hands its forks back to the stack, where they start at
iteration 0 as a group of their own; a config doing the lead's work
repeats it until it fails too. So every outcome comes from its config's own run, the one it
has alone: each lane's values, sums and gradient sums are those of its run
alone (see `autodiff` on lane stacks), and the losses are non-negative, so
a fork, whose losses through the warmup are a subset of its lead's, passes
the divergence check wherever the lead passes it. The wall clock of every
run counts from the stack's start, its waits included.

Each loss term's node comes from the term builder of `grad` that
`grad.build_loss` and the gradient checker call too, on a `grad.LossPlan`
as here, so `grad-check` certifies the nodes of this objective. The work
of a step that does not depend on the log-depth theta is done once per
scene, in the plan its stacks share, each part on the first read of a
lane that needs it. The plan of a co-adjusted lane's updated flow shares
those parts, and the DPC validity of the flow mask, which the flow step
keeps, and builds anew only what depends on the flow values: the
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
    DepthMap,
    FlowField,
    _clamp,
    _require_depth,
    _require_finite,
    rigid_flow_values,
)
from .grad import _TERMS, LossPlan
from .losses import (
    DepthMetrics,
    bsca_core,
    depth_metrics,
)
from .rng import PCG64
from .scene import SceneBundle
from .triangulate import triangulate_depth

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
        for names, kind, what in (
                (("iterations", "seed", "record_every"), numbers.Integral, "an integer"),
                (("w_p", "w_c", "w_d", "w_b", "learning_rate", "flow_learning_rate", "step_clip",
                  "dpc_warmup_fraction"), numbers.Real, "a real number")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.allow_dynamic, bool):
            raise ValueError(f"allow_dynamic must be a bool, got {self.allow_dynamic!r}")
        # negated comparisons, so a NaN fails them
        if not all(0 <= w < np.inf for w in (self.w_p, self.w_c, self.w_d, self.w_b)):
            raise ValueError("loss weights must be finite and non-negative")
        if not all(0 < r < np.inf for r in (self.learning_rate, self.flow_learning_rate)):
            raise ValueError("learning rates must be finite and positive")
        if not 0 < self.step_clip < np.inf:
            raise ValueError("step_clip must be finite and positive")
        if self.iterations < 1 or self.record_every < 1:
            raise ValueError("iterations and record_every must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
    next one. The setting is process-wide; every `_Stack` makes it, so
    library callers of the descent loops get it as the CLI does, and the
    gradient checker leaves it alone.
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


def _plan(bundle: SceneBundle) -> LossPlan:
    """The plan of a scene's descent, shared by the stacks of `_descend`:
    no depth mask, and the DPC floor `DPC_FLOOR`."""
    motion, flow = bundle.motion, bundle.flow_gt
    return LossPlan(bundle.camera, motion.rotation, motion.translation,
                    bundle.ego_motion.translation, bundle.image_t.values, bundle.image_s.values,
                    flow.values[..., 0], flow.values[..., 1], flow.mask, True, DPC_FLOOR)


# each loss term of the depth stream and the `OptimConfig` field that weighs
# it, in the order a step creates their nodes: the reverse is the order in
# which the depth's gradient sums their contributions
TERMS = {"cgdc": "w_c", "dpc": "w_d", "photometric": "w_p"}


class _Lane:
    """One config's run in a `_Stack`: its config, its plan, its weight of
    each term (read from its config once, through `TERMS`), its records so
    far and, for a lead before its fork, the configs that fork from it. Its
    theta and depth are its rows of the stack's. The lane records, checks
    and ends its run (`record`, `check`, `trace`).

    Every lane of a stack holds the stack's plan, the scene's, and reads
    the flow parts of its terms here, so that their errors end its run at
    its start; a fork's lead has read them. A co-adjusted lane (w_b > 0) is
    alone in its stack, and its flow is its plan's: `flow_step` replaces
    the plan with the plan of the updated flow."""

    def __init__(self, config, plan, records=(), forks=()):
        self.config, self.plan = config, plan
        self.dpc_active_after = int(config.dpc_warmup_fraction * config.iterations)
        self.flow_start = int(FLOW_START_FRACTION * config.iterations)
        # its weight of each term, and the terms it steps on, in `TERMS` order
        self._weights = {name: getattr(config, w) for name, w in TERMS.items()}
        self.terms = tuple(name for name, w in self._weights.items() if w > 0)
        # the flow parts of its terms raise their errors here, the dpc
        # part's offsets first
        if config.w_c > 0:
            plan.geo
        if config.w_d > 0:
            plan.q and plan.div
        self.records, self.forks = list(records), list(forks)
        # the flow's storability changes only when the flow does
        self.storable = config.w_b <= 0 or all(
            _float32_storable(c).all() for c in (plan.f_u, plan.f_v))

    def fork(self, config):
        """The lane of `config`, equal to this lane's config but for w_d: on
        this lane's plan, with a copy of its records so far (without the
        records' dpc values when its w_d is 0). It cannot fail: it needs a
        part of what this lane has read."""
        records = self.records if config.w_d > 0 else [
            replace(r, losses={k: v for k, v in r.losses.items() if k != "dpc"})
            for r in self.records]
        return _Lane(config, self.plan, records)

    def weights(self, iteration):
        """The lane's weight of each term at `iteration`: its weight table,
        or through the dpc warmup a copy with dpc at 0."""
        if iteration < self.dpc_active_after:
            return {**self._weights, "dpc": 0.0}
        return self._weights

    def rate(self, iteration):
        cfg = self.config
        if cfg.w_d > 0 and iteration >= self.dpc_active_after:
            return cfg.learning_rate * DPC_LR_SCALE
        return cfg.learning_rate

    def rigid_flow(self, motion, depth):
        """(values, valid), the rigid flow under `motion` of the lane's
        depth grid `depth`, checked finite where valid; raises when it is
        not, or when the lane's flow mask holds no pixel where it is valid
        (its co-adjustment loss would be a mean over no pixels)."""
        plan = self.plan
        values, valid = rigid_flow_values(plan.camera, motion, depth, grid=plan.grid)
        _require_finite(values, valid, FLOW_NOT_FINITE)
        if not (plan.flow_mask & valid).any():
            raise NoValidPixelsError(_TERMS["bsca"][3])
        return values, valid

    def flow_step(self, rigid):
        """The lane's flow step: the co-adjustment loss only, against the
        rigid flow `rigid` of its depth ((values, valid)); the lane's plan
        becomes the plan of the updated flow. Returns its co-adjustment
        loss; raises what ends its run."""
        plan, (r_values, r_valid) = self.plan, rigid
        f_u, f_v = ad.Var(plan.f_u), ad.Var(plan.f_v)
        loss = bsca_core(r_values[..., 0], r_values[..., 1], f_u, f_v, plan.flow_mask & r_valid)
        ad.backward(loss)
        rate = self.config.flow_learning_rate * self.config.w_b
        flow = np.empty((2,) + plan.flow_mask.shape)  # one buffer: one storability test
        np.subtract(plan.f_u, rate * f_u.grad, out=flow[0])
        np.subtract(plan.f_v, rate * f_v.grad, out=flow[1])
        self.storable = _float32_storable(flow).all()
        if not self.storable:  # a flow float32 can hold is finite
            for c in flow:
                _require_finite(c, plan.flow_mask, FLOW_NOT_FINITE)
        self.plan = plan.with_flow(*flow, plan.flow_mask)
        return loss.value

    def record(self, bundle, depth, iteration, loss_values, rigid=None):
        """Record the losses evaluated at the decoded depth `depth`, with
        the extras `co_adjust` lists when the flow stream passes the `rigid`
        flow of the depth ((values, valid)). Such a record always carries
        the co-adjustment loss: where the iteration took no flow step, it is
        `bsca_core`'s value at constant inputs, off the tape."""
        depth, gt, dynamic = DepthMap(depth), bundle.depth_gt, bundle.dynamic_mask
        losses, extras = dict(loss_values), {}
        if rigid is not None:
            plan, (r, r_valid) = self.plan, rigid
            if "bsca" not in losses:
                losses["bsca"] = bsca_core(r[..., 0], r[..., 1], plan.f_u, plan.f_v,
                                           plan.flow_mask & r_valid).value
            # |flow - rigid| summed over (u, v), one component grid at a time
            gap = np.abs(plan.f_u - r[..., 0]) + np.abs(plan.f_v - r[..., 1])
            if dynamic.any():
                extras["dynamic_abs_rel"] = depth_metrics(depth, gt, dynamic).abs_rel
                extras["patch_flow_gap"] = float(gap[dynamic].mean())
            extras["static_abs_rel"] = depth_metrics(depth, gt, bundle.static_mask).abs_rel
            extras["mean_flow_gap"] = float(gap.mean())
        self.records.append(TraceRecord(iteration, losses, depth_metrics(depth, gt), extras))

    def check(self, iteration, loss_values, depth, started):
        """Raise AbortedRunError, carrying the partial trace, once the
        summed loss passes `DIVERGENCE_THRESHOLD` or stops being finite, or
        the run's state holds a value its artifacts cannot store: the
        decoded depth `depth` of the updated field not finite, the
        co-adjusted flow past float32 (the flow file). A finite depth that
        is not strictly positive (theta underflowed) raises
        InvalidDepthError.

        The sum is over `loss_values`, what the iteration evaluated: every
        term at a record, else the terms on the tape and the flow step's
        co-adjustment loss. Through the dpc warmup the dpc value is
        evaluated at the records alone, so a run that diverges only through
        it aborts at its next record or from `dpc_active_after` on."""
        total = sum(loss_values.values())
        # a decoded depth is NaN, +inf or >= 0, and NaN fails both tests
        if not (-np.inf < total <= DIVERGENCE_THRESHOLD and self.storable
                and depth.max() < np.inf):
            raise AbortedRunError(f"run diverged at iteration {iteration} (loss {total:.3g})",
                                  self.trace(depth, started))
        if not depth.min() > 0:
            raise InvalidDepthError("depth must be strictly positive where valid")

    def trace(self, depth, started):
        """The RunTrace of the run at the decoded depth `depth`, its wall
        clock counted from `started`, masking what its artifacts cannot
        store: a depth that is not finite and positive, a flow value that
        float32 cannot hold. A finished run stores all of its state."""
        ok = np.isfinite(depth) & (depth > 0)
        final_flow = None
        if self.config.w_b > 0:
            plan = self.plan
            keep = _float32_storable(plan.f_u) & _float32_storable(plan.f_v)
            flow = np.stack([plan.f_u, plan.f_v], axis=-1)
            final_flow = FlowField(np.where(keep[..., None], flow, 0.0), plan.flow_mask & keep)
        return RunTrace(self.records, DepthMap(np.where(ok, depth, 1.0), ok), final_flow,
                        time.perf_counter() - started, self.config)


def _terms(lanes, depth, d=None, iteration=None):
    """The loss terms of a lane stack as tape nodes: lanes[i] at its decoded
    depth in the stack `depth`, (k, H, W), or for a stack of one its grid
    itself, so that a run alone steps on plain grids, as the loss nodes'
    2-D form has them. The terms are built one at a time, in `TERMS` order,
    each over the lanes that have it and have not failed, in two nodes at
    most: the lanes whose weight for the term is positive at `iteration`
    read the leaf `d`, the whole stack or `ad.lanes` of it; the others read
    the plain depth, off the tape, all of them when `d` is None (the final
    record), else only the lanes that record at `iteration`. So through the
    dpc warmup a lane builds its dpc term only at its records. A node
    comes from the term's builder in `grad._TERMS`, the one
    `grad.build_loss` checks, called as there, `build(plan, depth)`, on the
    plan every lane of the stack holds. A lane whose valid set of a term is
    empty leaves that term out: the node is built again without it.

    Returns ([(node, lanes, their weights)] of the nodes on the tape, the
    lanes as an index of the stack's leading axis, each lane's loss values
    keyed by term in `TERMS` order, {lane: error}): a node call that raises
    ends the lanes it was over, and they take no further term."""
    k = len(lanes)
    everyone = list(range(k))
    parts, values, errors = [], [{} for _ in everyone], {}
    plan = lanes[0].plan
    weights = None if d is None else [lane.weights(iteration) for lane in lanes]
    recording = [d is None or iteration % lane.config.record_every == 0 for lane in lanes]
    for name in TERMS:
        build = _TERMS[name][0]
        on_tape, off_tape = [], []
        for i, lane in enumerate(lanes):
            if name not in lane.terms or i in errors:
                continue
            if weights and weights[i][name] > 0:
                on_tape.append(i)
            elif recording[i]:
                off_tape.append(i)
        for rows, stack in ((on_tape, d), (off_tape, depth)):
            while rows:
                # every lane (a slice, no copy), one lane (its grid) or several
                index = slice(None) if rows == everyone else rows[0] if len(rows) == 1 else rows
                if rows == everyone:
                    picked = stack
                else:
                    picked = ad.lanes(stack, index) if stack is d else stack[index]
                try:
                    node, mask = build(plan, picked)
                except (FlowGeoError, ValueError) as exc:
                    for i in rows:  # each lane takes an error of its own
                        errors[i] = type(exc)(*exc.args)
                    break
                if node is not None:
                    value = node.value  # a float for one lane, else a (k,) array
                    for i, v in zip(rows, [value] if type(value) is float else value.tolist()):
                        values[i][name] = v
                    if stack is d:
                        parts.append((node, index, weights[rows[0]][name] if len(rows) == 1
                                      else np.array([weights[i][name] for i in rows])))
                    break
                # rebuilt without the lanes whose valid set is empty
                kept = np.atleast_1d(mask.any(axis=(-2, -1))).tolist()
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


def _depth_step(lanes, theta, depth, iteration):
    """One step of each lane's theta, theta[i] of lanes[i], taken at
    its decoded depth depth[i] = exp(theta[i]): d(loss)/d(theta) =
    d(loss)/dD * D, with each lane's weights, rate and step clip.

    Returns (theta after the step, each lane's loss values, {lane: error}).
    A lane with no term on the tape (the warmup with only dpc configured)
    holds its field: its gradient is 0."""
    k = len(lanes)
    grid = depth[0] if k == 1 else depth  # a stack of one steps on its grid
    d = ad.Var(grid)
    parts, values, errors = _terms(lanes, grid, d, iteration)
    if not parts:
        return theta, values, errors
    ad.backward(_weighted_total(parts, k))
    steps = [(lane.rate(iteration), lane.config.step_clip) for lane in lanes]
    if k == 1:
        (rate, clip), = steps
        return (theta[0] - _clamp(rate * (d.grad * grid), -clip, clip))[None], values, errors
    rate, clip = (column[:, None, None] for column in np.array(steps).T)
    step = _clamp(rate * (d.grad * depth), -clip, clip)
    return theta - step, values, errors


@np.errstate(over="ignore")
def _float32_storable(values):
    """Which entries a float32 artifact can hold: finite after the cast."""
    return np.isfinite(values.astype(np.float32))


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


class _Stack:
    """Runs of one scene stepped in lockstep on one plan (see the module
    docstring): the lanes, their thetas and decoded depths as (k, H, W)
    stacks, row i lane i's, the plan its lanes start on, the lanes waiting
    to join and the outcome of every run that has ended. It holds at most
    `room` lanes, as many as `STACK_PIXELS` allows and at least one."""

    def __init__(self, bundle, plan):
        _pin_heap()
        self.bundle, self.plan = bundle, plan
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
                     if lane.forks and it == lane.dpc_active_after]
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
        """The lead of the group `members` (see the module docstring) waits
        to join at iteration 0 with its theta and depth, the others as its
        forks; a lead that fails here ends (`_end`)."""
        lead = next((config for config in members if config.w_d > 0), members[0])
        forks = [config for config in members if config != lead]
        try:
            theta = _initial_theta(self.bundle, lead, PCG64(lead.seed))
            lane = _Lane(lead, self.plan, forks=forks)
            depth = _decode_values(theta)
            _require_depth(depth)
        except (FlowGeoError, ValueError) as exc:
            self._end(lead, exc, forks)
            return
        self.waiting.append((0, [lane], theta[None], depth[None]))

    def _end(self, config, outcome, forks):
        """The run of `config` ends with `outcome`; the `forks` of a lead
        that ends before its fork start as a group of their own."""
        self.outcomes[config] = outcome
        if forks:
            self._start(forks)

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
        """Take the lanes of `ended` ({lane: outcome}) off the stack, each
        run ending with its outcome (`_end`)."""
        keep = [i for i, lane in enumerate(self.lanes) if lane not in ended]
        self.lanes = [self.lanes[i] for i in keep]
        self.theta, self.depth = self.theta[keep], self.depth[keep]
        for lane, outcome in ended.items():
            self._end(lane.config, outcome, lane.forks)

    def _fork(self, lead, it):
        """Every fork of `lead` waits to join the stack at iteration `it`,
        with copies of its rows."""
        i = self.lanes.index(lead)
        lanes = [lead.fork(config) for config in lead.forks]
        lead.forks = []
        rows = [i] * len(lanes)
        self.waiting.append((it, lanes, self.theta[rows], self.depth[rows]))

    def _step(self, it):
        """Iteration `it` of every lane: for a co-adjusted lane, alone in its
        stack, a flow step in its flow phase, then the depth step of the
        whole stack, then each lane's record and divergence check of its
        updated state. The rigid flow of a co-adjusted lane's depth is
        evaluated only where it is used: on the iterations of its flow phase
        and on its record iterations. A lane that fails leaves the stack at
        the phase where it fails."""
        lane, rigid, bsca = self.lanes[0], None, None
        if lane.config.w_b > 0 and (it >= lane.flow_start or it % lane.config.record_every == 0):
            try:
                rigid = lane.rigid_flow(self.bundle.motion, self.depth[0])
                if it >= lane.flow_start:
                    bsca = lane.flow_step(rigid)
            except (FlowGeoError, ValueError) as exc:
                self._leave({lane: exc})
                return

        # depth step: consistency losses from the (adjusted) flow
        lanes, depth, ended = self.lanes, self.depth, {}
        theta, values, errors = _depth_step(lanes, self.theta, depth, it)
        self.theta, self.depth = theta, _decode_values(theta)
        if bsca is not None:
            values[0]["bsca"] = bsca
        for i, lane in enumerate(lanes):
            if i in errors:
                ended[lane] = errors[i]
                continue
            try:
                if it % lane.config.record_every == 0:
                    # the record pairs this iteration's losses with the state
                    # they were evaluated at (before the update)
                    lane.record(self.bundle, depth[i], it, values[i], rigid)
                lane.check(it, values[i], self.depth[i], self.started)
            except (FlowGeoError, ValueError) as exc:
                ended[lane] = exc
        if ended:
            self._leave(ended)

    def _finish(self, lanes):
        """Each lane of `lanes` leaves with its RunTrace, its final record at
        the depth after its last step."""
        rows = [self.lanes.index(lane) for lane in lanes]
        depth = self.depth[rows]
        _, values, ended = _terms(lanes, depth[0] if len(rows) == 1 else depth)
        outcomes = {}
        for j, lane in enumerate(lanes):
            if j in ended:
                outcomes[lane] = ended[j]
                continue
            try:
                rigid = (lane.rigid_flow(self.bundle.motion, depth[j])
                         if lane.config.w_b > 0 else None)
                lane.record(self.bundle, depth[j], lane.config.iterations, values[j], rigid)
                outcomes[lane] = lane.trace(depth[j], self.started)
            except (FlowGeoError, ValueError) as exc:
                outcomes[lane] = exc
        self._leave(outcomes)


def _descend(bundle, configs):
    """The descent loop of both experiments over any configs of one scene
    (see the module docstring): the depth-only configs as one `_Stack`, in
    groups of configs equal but for w_d, and each config with w_b > 0,
    which runs the flow stream, as a stack of its own; all on one plan of
    the scene. Returns one outcome per config, in order: its RunTrace, or
    the FlowGeoError or ValueError that ended its run, as the config run
    alone has them."""
    outcomes, stacks = {}, {}
    for config in dict.fromkeys(configs):
        try:
            _preconditions(bundle, config)
        except (FlowGeoError, ValueError) as exc:
            outcomes[config] = exc
            continue
        stack = stacks.setdefault(config if config.w_b > 0 else None, {})
        stack.setdefault(replace(config, w_d=0.0), []).append(config)
    plan = _plan(bundle) if stacks else None
    for groups in stacks.values():
        outcomes.update(_Stack(bundle, plan).run(groups.values()))
    return [outcomes[config] for config in configs]


def ablation_suite(bundles, configs) -> list:
    """Run every (scene, config) pair; one result row per pair.

    `bundles` and `configs` are sequences of (name, object) pairs. Rows
    keep their input order; a failing run contributes a row with its error
    message instead of metrics. A config with w_b > 0 is co-adjusted as by
    `co_adjust`, any other runs as by `recover_depth`.

    All configs of a scene run as one call of `_descend`, the depth-only
    ones as one lane stack (see the module docstring), and every row is the
    row of its config run alone.
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
