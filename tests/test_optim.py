"""Field optimization: fixed-point stability, determinism, scale link,
divergence handling, and the co-adjustment reduction on static scenes."""

import gc
import platform
import sys
from dataclasses import replace

import numpy as np
import pytest
from composed import TWINS
from conftest import assert_bits_equal, run_python

from flowgeo import autodiff as ad
from flowgeo import cli, grad, optim
from flowgeo.errors import AbortedRunError, FlowGeoError, InvalidDepthError, NoValidPixelsError
from flowgeo.geometry import (
    CameraIntrinsics,
    DepthMap,
    RigidMotion,
    rigid_flow,
    rotation_from_axis_angle,
    rotational_flow,
    translational_flow,
)
from flowgeo.losses import (
    DifferentialFields,
    bsca_loss,
    cgdc_loss,
    differential_fields,
    dpc_loss,
)
from flowgeo.optim import OptimConfig, ablation_suite, co_adjust, recover_depth
from flowgeo.scene import SceneSpec, synthesize
from flowgeo.triangulate import triangulate_depth

README_SPEC = SceneSpec("affine-inverse-shift", a=0.21, b=0.0013, c=0.0009)
README_T = [0.31, 0.02, 0.42]


@pytest.fixture(scope="module")
def small_static(camera):
    spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
    ego = RigidMotion(np.eye(3), [0.31, 0.02, 0.42])
    return synthesize(spec, camera, ego, 36, 48)


class TestConfigValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            OptimConfig(w_c=-1.0)

    # unchecked, each value breaks a run: record_every=0 divides by zero,
    # step_clip=-1 steps away from the truth, w_c=nan empties the
    # objective, a NaN rate or clip diverges at iteration 0 and a NaN
    # warmup fraction fails its conversion to an iteration count
    @pytest.mark.parametrize("field, values, message", [
        ("w_p", [np.nan, np.inf], "loss weights"),
        ("w_c", [np.nan, -np.inf], "loss weights"),
        ("w_d", [np.nan, np.inf], "loss weights"),
        ("w_b", [np.nan, np.inf], "loss weights"),
        ("learning_rate", [np.nan, np.inf, 0.0, -8.0], "learning rates"),
        ("flow_learning_rate", [np.nan, np.inf, 0.0, -250.0], "learning rates"),
        ("step_clip", [np.nan, np.inf, 0.0, -1.0], "step_clip"),
        ("iterations", [0, -5], "iterations"),
        ("record_every", [0, -1], "record_every"),
        ("dpc_warmup_fraction", [np.nan, -0.1, 1.5], "dpc_warmup_fraction"),
        ("init", ["zeros", ""], "unknown init"),
    ])
    def test_field_rejects_values_that_break_a_run(self, field, values, message):
        for value in values:
            with pytest.raises(ValueError, match=message):
                OptimConfig(**{field: value})

    # unchecked, a fractional count breaks `range` only once the descent
    # starts (a fractional seed, in the rng), and a bool passes as 0 or 1
    @pytest.mark.parametrize("field, value", [
        ("iterations", 1.5), ("iterations", 2.0), ("iterations", True), ("iterations", "3"),
        ("seed", 1.5), ("seed", False), ("record_every", 2.5), ("record_every", True),
    ])
    def test_count_field_rejects_a_non_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OptimConfig(**{field: value})

    def test_count_fields_take_numpy_integers(self):
        config = OptimConfig(iterations=np.int64(3), seed=np.int32(2), record_every=np.uint8(1))
        assert (config.iterations, config.seed, config.record_every) == (3, 2, 1)

    @pytest.mark.parametrize("fields", [
        {"w_p": 0.0, "w_c": 0.0, "w_d": 0.0, "w_b": 0.0},
        {"iterations": 1, "record_every": 1, "step_clip": 1e-300},
        {"dpc_warmup_fraction": 0.0}, {"dpc_warmup_fraction": 1.0},
        {"init": "ground-truth"}, {"init": "triangulated"},
    ])
    def test_edge_values_accepted(self, fields):
        assert OptimConfig(**fields)

    def test_empty_objective(self, small_static):
        with pytest.raises(ValueError):
            recover_depth(small_static, OptimConfig(w_p=0, w_c=0, w_d=0, w_b=0))


class TestFixedPointStability:
    def test_ground_truth_is_stable(self, small_static):
        # tiny step keeps the unavoidable L1 tie-noise oscillation far
        # below the stated bounds; the correlation term is off (its
        # discrete-stencil minimum sits O(1e-6) off the analytic truth)
        config = OptimConfig(
            w_p=0.0, w_c=1.0, w_d=0.0, w_b=0.0,
            learning_rate=1e-7, iterations=100, init="ground-truth",
            record_every=1, seed=0,
        )
        trace = recover_depth(small_static, config)
        for record in trace.records:
            assert record.metrics.abs_rel < 1e-6
        for name in trace.records[0].losses:
            series = [r.losses[name] for r in trace.records]
            assert max(series) - series[0] <= 1e-9

    def test_triangulated_init_close_to_truth(self, small_static):
        config = OptimConfig(w_c=1.0, w_d=0.0, iterations=5, init="triangulated", seed=0)
        trace = recover_depth(small_static, config)
        assert trace.records[0].metrics.abs_rel < 1e-9


class TestDeterminism:
    def test_same_seed_same_trace(self, small_static):
        config = OptimConfig(w_c=1.0, w_d=0.1, iterations=120, seed=42, record_every=20)
        a = recover_depth(small_static, config)
        b = recover_depth(small_static, config)
        np.testing.assert_array_equal(a.final_depth.values, b.final_depth.values)
        for ra, rb in zip(a.records, b.records):
            assert ra.losses == rb.losses
            assert ra.metrics == rb.metrics

    def test_different_seed_differs(self, small_static):
        base = OptimConfig(w_c=1.0, w_d=0.0, iterations=40, seed=1)
        other = OptimConfig(w_c=1.0, w_d=0.0, iterations=40, seed=2)
        a = recover_depth(small_static, base)
        b = recover_depth(small_static, other)
        assert np.abs(a.final_depth.values - b.final_depth.values).max() > 0


class TestScaleLink:
    def test_joint_scaling_of_translation_and_init(self, camera):
        spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
        s = 2.5
        base_bundle = synthesize(spec, camera, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), 24, 32)
        # scaling the ego translation scales the family depth and the flow
        # stays identical only if the whole geometry scales; rebuild with
        # scaled translation and compare depths directly
        scaled_bundle = synthesize(
            SceneSpec("affine-inverse-shift", a=0.21 / s, b=1.3e-3 / s, c=0.9e-3 / s),
            camera,
            RigidMotion(np.eye(3), np.array([0.31, 0.02, 0.42]) * s),
            24, 32,
        )
        np.testing.assert_allclose(
            scaled_bundle.depth_gt.values, s * base_bundle.depth_gt.values, rtol=1e-12
        )
        np.testing.assert_allclose(
            scaled_bundle.flow_gt.values, base_bundle.flow_gt.values, atol=1e-10
        )
        # moderate step, mid-flight horizon: near convergence the absolute
        # -value ties resolve by rounding, and the two runs' trajectories
        # can bifurcate there, so test the scale structure away from ties
        config = OptimConfig(
            w_c=1.0, w_d=0.0, iterations=400, learning_rate=2.0, seed=5, record_every=100
        )
        a = recover_depth(base_bundle, config)
        b = recover_depth(scaled_bundle, config)
        rel = np.abs(b.final_depth.values / (s * a.final_depth.values) - 1.0)
        assert rel.max() < 1e-6


class TestDivergenceAbort:
    def test_aborts_with_trace(self, small_static):
        config = OptimConfig(
            w_c=1.0, w_d=0.0, iterations=400, seed=0,
            learning_rate=1e9, step_clip=1e9,
        )
        with pytest.raises(AbortedRunError) as exc_info:
            recover_depth(small_static, config)
        assert exc_info.value.trace is not None

    def test_an_overflowing_adjoint_still_ends_in_the_abort(self):
        # the README scene at 48x36: at this rate the warp's adjoint overflows
        # at iteration 2, and under the suite's warnings-as-errors that
        # overflow must not pre-empt the divergence check
        camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=24.0, cy=18.0)
        bundle = synthesize(README_SPEC, camera, RigidMotion(np.eye(3), README_T), 36, 48)
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, learning_rate=1500.0, step_clip=1e3,
                             init="ground-truth", dpc_warmup_fraction=0.0, iterations=40)
        with pytest.raises(AbortedRunError, match="^run diverged at iteration 2 "):
            recover_depth(bundle, config)

    def test_dynamic_scene_needs_co_adjust(self, dynamic_bundle):
        with pytest.raises(ValueError):
            recover_depth(dynamic_bundle, OptimConfig(w_c=1.0, w_b=0.0))

    @pytest.mark.parametrize("allow_dynamic", [False, True])
    def test_recover_rejects_flow_co_adjustment(self, dynamic_bundle, allow_dynamic):
        # a config with w_b > 0 is co_adjust's, with or without allow_dynamic
        config = OptimConfig(w_c=1.0, w_b=1.0, iterations=5, allow_dynamic=allow_dynamic)
        with pytest.raises(ValueError, match="^recover_depth does not co-adjust flow; "
                                             "use co_adjust for w_b > 0$"):
            recover_depth(dynamic_bundle, config)


class TestCoAdjustStatic:
    def test_reduces_to_recover_behavior(self, small_static):
        # no dynamic object: gentle flow updates keep the prior in place
        # and the final flow matches the rigid flow of the final depth
        config = OptimConfig(
            w_c=1.0, w_d=0.1, w_b=1.0, iterations=2500, seed=3,
            learning_rate=3.0, flow_learning_rate=30.0, record_every=500,
            dpc_warmup_fraction=0.3,  # depth quiets early; flow settles on it
        )
        trace = co_adjust(small_static, config)
        fr = rigid_flow(small_static.camera, small_static.motion, trace.final_depth)
        gap = np.abs(trace.final_flow.values - fr.values).sum(axis=-1).mean()
        assert gap < 0.01
        assert trace.final_metrics.abs_rel < 0.05

    def test_shares_the_depth_path_of_recover(self, monkeypatch):
        # with its flow stream held off for the whole budget, co_adjust is
        # recover_depth plus the region extras and the co-adjustment loss
        monkeypatch.setattr(optim, "FLOW_START_FRACTION", 1.0)
        bundle = synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 16.0, 12.0),
                            RigidMotion(np.eye(3), README_T), 24, 32)
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, w_b=1.0, iterations=60,
                             record_every=10, seed=3)
        co, rec = co_adjust(bundle, config), recover_depth(bundle, replace(config, w_b=0.0))
        assert len(co.records) == len(rec.records) == 7
        for a, b in zip(co.records, rec.records, strict=True):
            losses = dict(a.losses)
            assert np.isfinite(losses.pop("bsca"))
            assert (a.iteration, losses, a.metrics) == (b.iteration, b.losses, b.metrics)
            assert "static_abs_rel" in a.extras and b.extras == {}
        assert_bits_equal(co.final_depth.values, rec.final_depth.values)
        assert_bits_equal(co.final_flow.values, bundle.flow_gt.values)
        np.testing.assert_array_equal(co.final_flow.mask, bundle.flow_gt.mask)

    def test_requires_positive_wb(self, small_static):
        with pytest.raises(ValueError):
            co_adjust(small_static, OptimConfig(w_b=0.0))


class TestAblation:
    def test_rows_and_order(self, small_static):
        configs = [
            (f"wc={wc}-wd={wd}", OptimConfig(w_p=0.0, w_c=wc, w_d=wd, iterations=30, seed=1))
            for wc in (0.0, 1.0)
            for wd in (0.0, 0.1)
        ]
        # the all-zero config errors per-row; others complete
        rows = ablation_suite([("scene", small_static)], configs)
        assert len(rows) == 4
        assert [r["config"] for r in rows] == [c[0] for c in configs]
        assert rows[0]["error"].startswith("ValueError")
        assert all(r["error"] == "" for r in rows[1:])
        again = ablation_suite([("scene", small_static)], configs)
        assert [r["config"] for r in again] == [r["config"] for r in rows]
        for a, b in zip(rows[1:], again[1:]):
            assert a["abs_rel"] == b["abs_rel"]

    def test_empty_grid(self, small_static):
        with pytest.raises(ValueError):
            ablation_suite([], [])


    def test_programming_error_propagates(self, small_static, monkeypatch):
        def broken(*args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(optim, "_depth_step", broken)
        configs = [("wc=1", OptimConfig(w_c=1.0, w_d=0.0, iterations=5, seed=1))]
        with pytest.raises(TypeError, match="unsupported operand"):
            ablation_suite([("scene", small_static)], configs)


def run_alone(bundle, config):
    """The outcome of `config` run by itself: its RunTrace or its error."""
    runner = co_adjust if config.w_b > 0 else recover_depth
    try:
        return runner(bundle, config)
    except (FlowGeoError, ValueError) as exc:
        return exc


def objective_of(bundle, config):
    """The `_DepthObjective` of `config` on a plan of its own."""
    return optim._DepthObjective(bundle, config, optim._Plan(bundle, [config]))


def assert_same_outcome(shared, alone):
    if isinstance(alone, Exception):
        assert f"{type(shared).__name__}: {shared}" == f"{type(alone).__name__}: {alone}"
        return
    assert isinstance(shared, optim.RunTrace), shared
    assert ([repr((r.iteration, r.losses, r.metrics, r.extras)) for r in shared.records]
            == [repr((r.iteration, r.losses, r.metrics, r.extras)) for r in alone.records])
    assert_bits_equal(shared.final_depth.values, alone.final_depth.values)
    if alone.final_flow is None:
        assert shared.final_flow is None
    else:
        assert_bits_equal(shared.final_flow.values, alone.final_flow.values)
        np.testing.assert_array_equal(shared.final_flow.mask, alone.final_flow.mask)


class TestSharedWarmup:
    """The configs of a scene descend as one stack in lockstep; configs
    equal but for w_d share one lane through the dpc warmup and fork there.
    Every row and every trace is that of its config run alone."""

    @staticmethod
    def check(bundle, configs):
        """Rows of the grid, after checking them and the stack's traces
        against the configs run alone."""
        named = [(f"c{i}", config) for i, config in enumerate(configs)]
        rows = ablation_suite([("scene", bundle)], named)
        alone_rows = [ablation_suite([("scene", bundle)], [pair])[0] for pair in named]
        assert [repr(r) for r in rows] == [repr(r) for r in alone_rows]
        outcomes = optim._descend(bundle, configs)
        for shared, config in zip(outcomes, configs, strict=True):
            assert_same_outcome(shared, run_alone(bundle, config))
        return rows

    @staticmethod
    def stack_sizes(monkeypatch):
        """The lanes of each stacked depth step, from now on."""
        sizes = []
        real_step = optim._depth_step
        monkeypatch.setattr(optim, "_depth_step",
                            lambda *a: sizes.append(len(a[0])) or real_step(*a))
        return sizes

    def test_cli_grid(self, small_static):
        configs = [OptimConfig(w_p=1.0, w_c=wc, w_d=wd, iterations=40, record_every=7, seed=2)
                   for wc in (0.0, 1.0) for wd in (0.0, 0.1)]
        rows = self.check(small_static, configs)
        assert all(r["error"] == "" for r in rows)

    def test_several_dpc_weights_and_a_duplicate(self, small_static):
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=40, record_every=6, seed=1)
                   for wd in (0.0, 0.1, 0.2, 0.1)]
        rows = self.check(small_static, configs)
        assert all(r["error"] == "" for r in rows)
        assert rows[1]["abs_rel"] == rows[3]["abs_rel"] != rows[2]["abs_rel"]

    def test_lone_dpc_config(self, small_static):
        self.check(small_static, [OptimConfig(w_c=1.0, w_d=0.1, iterations=30, seed=1)])

    def test_dpc_alone_holds_the_field_through_warmup(self, small_static):
        configs = [OptimConfig(w_p=0.0, w_c=0.0, w_d=wd, iterations=30, seed=1)
                   for wd in (0.0, 0.1)]
        rows = self.check(small_static, configs)
        assert rows[0]["error"] == "ValueError: objective is empty: all depth-loss weights are zero"
        assert rows[1]["error"] == ""

    def test_co_adjust_group_copies_the_flow(self, dynamic_bundle):
        # the flow phase starts at iteration 4 and the dpc term joins at 18,
        # so the shared flow is updated in place before the fork
        configs = [OptimConfig(w_c=1.0, w_d=wd, w_b=1.0, iterations=30, record_every=4,
                               dpc_warmup_fraction=0.6, seed=3) for wd in (0.0, 0.1)]
        rows = self.check(dynamic_bundle, configs)
        assert all(r["error"] == "" for r in rows)
        assert rows[0]["patch_flow_gap"] != rows[1]["patch_flow_gap"]

    @pytest.mark.parametrize("warmup", [0.0, 1.0])
    def test_no_warmup_shares_nothing(self, small_static, warmup):
        # at 1.0 the fork falls after the last iteration, before the final record
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=20, dpc_warmup_fraction=warmup,
                               seed=1) for wd in (0.0, 0.1)]
        self.check(small_static, configs)

    def test_member_diverging_on_its_dpc_value_leaves_the_group(self, small_static):
        # steps of +-14.5 in log-depth: the dpc values of the first step
        # pass the divergence threshold, the cgdc value alone does not
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=40, learning_rate=1e9,
                               step_clip=14.5, seed=0) for wd in (0.0, 0.1, 0.2)]
        rows = self.check(small_static, configs)
        assert rows[0]["error"] == ""
        warmup = objective_of(small_static, configs[1]).dpc_active_after
        for row in rows[1:]:
            assert row["error"].startswith("AbortedRunError: run diverged at iteration ")
            assert int(row["error"].split()[5]) < warmup

    def test_each_config_takes_an_error_of_its_own(self, small_static):
        # the lead (w_d = 0.1) diverges in the warmup, and the w_d = 0.2
        # config, doing the same work, takes an error made for it
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=40, learning_rate=1e9,
                               step_clip=14.5, seed=0) for wd in (0.1, 0.2)]
        lead, other = optim._descend(small_static, configs)
        assert isinstance(other, AbortedRunError) and other is not lead
        assert lead.trace.config == configs[0]
        assert other.trace.config == configs[1]
        assert other.trace.records is not lead.trace.records
        alone = run_alone(small_static, configs[1])
        assert str(other) == str(alone)
        assert ([repr((r.iteration, r.losses, r.metrics)) for r in other.trace.records]
                == [repr((r.iteration, r.losses, r.metrics)) for r in alone.trace.records])
        assert_bits_equal(other.trace.final_depth.values, alone.trace.final_depth.values)

    def test_an_error_without_a_trace_is_made_anew(self, small_static, monkeypatch):
        def broken(*args):
            raise NoValidPixelsError("dpc: empty valid set")

        monkeypatch.setattr(grad, "dpc_core", broken)
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=30, seed=1) for wd in (0.1, 0.2)]
        lead, other = optim._descend(small_static, configs)
        assert type(other) is NoValidPixelsError and other is not lead
        assert str(other) == str(lead) == "dpc: empty valid set"

    def test_scene_too_small_for_the_dpc_stencil(self, camera):
        # a plan with the dpc term fails on a 2-row grid; the w_d = 0 member,
        # whose own run has no stencil, runs alone and completes
        bundle = synthesize(README_SPEC, camera, RigidMotion(np.eye(3), README_T), 2, 6)
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=10, seed=1) for wd in (0.0, 0.1)]
        rows = self.check(bundle, configs)
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("DimensionError: the difference stencil needs")

    def test_error_of_the_dpc_work_ends_only_its_members(self, small_static, monkeypatch):
        # the w_d = 0 member does no dpc work in its own run, so it runs alone
        def broken(*args):
            raise NoValidPixelsError("dpc: empty valid set")

        monkeypatch.setattr(grad, "dpc_core", broken)
        configs = [OptimConfig(w_c=1.0, w_d=wd, iterations=30, seed=1) for wd in (0.0, 0.1)]
        rows = self.check(small_static, configs)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] == "NoValidPixelsError: dpc: empty valid set"

    def test_programming_error_in_the_shared_phase_propagates(self, small_static, monkeypatch):
        calls = []
        real_dpc = grad.dpc_core

        def broken(*args):
            calls.append(1)
            if len(calls) == 5:
                raise TypeError("unsupported operand")
            return real_dpc(*args)

        monkeypatch.setattr(grad, "dpc_core", broken)
        configs = [(f"wd={wd}", OptimConfig(w_c=1.0, w_d=wd, iterations=30, seed=1))
                   for wd in (0.0, 0.1)]
        with pytest.raises(TypeError, match="unsupported operand"):
            ablation_suite([("scene", small_static)], configs)
        assert len(calls) == 5 < objective_of(small_static, configs[1][1]).dpc_active_after

    def test_a_lane_diverging_after_the_fork_leaves_the_stack(self, small_static, monkeypatch):
        # the dpc term joins at iteration 0, where the w_d = 0 and 1e-3
        # members fork from the w_d = 1e-4 lead. At the full rate the w_d = 0
        # lane's cgdc steps of the whole clip diverge at iteration 1, and the
        # w_d = 1e-3 lane diverges on its dpc value at 3; the lead, at
        # DPC_LR_SCALE, and the calm group finish
        fast = [OptimConfig(w_c=1.0, w_d=wd, iterations=10, record_every=3, learning_rate=6e4,
                            step_clip=16.0, dpc_warmup_fraction=0.0, seed=0)
                for wd in (0.0, 1e-4, 1e-3)]
        calm = [OptimConfig(w_c=1.0, w_d=wd, iterations=30, record_every=7, seed=1)
                for wd in (0.0, 0.1)]
        sizes = self.stack_sizes(monkeypatch)
        rows = self.check(small_static, fast + calm)
        assert rows[0]["error"].startswith("AbortedRunError: run diverged at iteration 1 ")
        assert rows[2]["error"].startswith("AbortedRunError: run diverged at iteration 3 ")
        assert [r["error"] for r in rows[1:2] + rows[3:]] == ["", "", ""]
        # the grid's stack: the fast group forks at 0 and its lanes leave at
        # 1, 3 and 10; the calm fork joins at 13
        assert sizes[:30] == [4] * 2 + [3] * 2 + [2] * 6 + [1] * 3 + [2] * 17

    def test_configs_with_their_own_iterations_and_records(self, small_static, monkeypatch):
        # three groups whose forks (at 18, 11, 6) and ends (at 40, 25, 33)
        # fall on different iterations, each recording at its own period
        configs = [OptimConfig(w_p=1.0, w_c=1.0, w_d=wd, iterations=40, record_every=7, seed=2)
                   for wd in (0.0, 0.1)]
        configs += [OptimConfig(w_c=1.0, w_d=wd, iterations=25, record_every=4, seed=3)
                    for wd in (0.1, 0.0)]
        configs += [OptimConfig(w_p=1.0, w_c=0.0, w_d=wd, iterations=33, record_every=5,
                                dpc_warmup_fraction=0.2, seed=1) for wd in (0.2, 0.0)]
        sizes = self.stack_sizes(monkeypatch)
        rows = self.check(small_static, configs)
        assert all(r["error"] == "" for r in rows)
        assert sizes[:40] == [3] * 6 + [4] * 5 + [5] * 7 + [6] * 7 + [4] * 8 + [2] * 7

    def test_co_adjusted_pair_next_to_depth_only_configs(self, dynamic_bundle, monkeypatch):
        # the co-adjusted lanes carry flows of their own in the stack, the
        # depth-only lanes step on the scene's flow
        co = [OptimConfig(w_c=1.0, w_d=wd, w_b=1.0, iterations=24, record_every=4,
                          dpc_warmup_fraction=0.6, seed=3) for wd in (0.0, 0.1)]
        depth_only = [OptimConfig(w_p=1.0, w_c=1.0, w_d=wd, iterations=20, record_every=6,
                                  allow_dynamic=True, seed=3) for wd in (0.1, 0.0)]
        # room for all four lanes of the 96x72 scene in one stack
        monkeypatch.setattr(optim, "STACK_PIXELS", 4 * 96 * 72)
        sizes = self.stack_sizes(monkeypatch)
        rows = self.check(dynamic_bundle, co + depth_only)
        assert all(r["error"] == "" for r in rows)
        assert rows[0]["patch_flow_gap"] != rows[1]["patch_flow_gap"]
        assert sizes[:24] == [2] * 9 + [3] * 5 + [4] * 6 + [2] * 4

    @pytest.mark.parametrize("room", [1, 2, 3])
    def test_lanes_wait_for_room_in_the_stack(self, small_static, monkeypatch, room):
        # the configs of the test above on a stack of `room` lanes: a lead
        # or a fork that finds the stack full waits with its rows, and
        # starts from them once the stack has room at its iteration or has
        # emptied
        configs = [OptimConfig(w_p=1.0, w_c=1.0, w_d=wd, iterations=40, record_every=7, seed=2)
                   for wd in (0.0, 0.1)]
        configs += [OptimConfig(w_c=1.0, w_d=wd, iterations=25, record_every=4, seed=3)
                    for wd in (0.1, 0.0)]
        configs += [OptimConfig(w_p=1.0, w_c=0.0, w_d=wd, iterations=33, record_every=5,
                                dpc_warmup_fraction=0.2, seed=1) for wd in (0.2, 0.0)]
        monkeypatch.setattr(optim, "STACK_PIXELS", room * 48 * 36 + 47)
        rows = self.check(small_static, configs)
        assert all(r["error"] == "" for r in rows)
        sizes = self.stack_sizes(monkeypatch)
        optim._descend(small_static, configs)
        # the six runs alone take 196 steps; in the stack the three leads'
        # 35 warmup steps serve their forks too
        lane_steps = 40 + 25 + 33 + (40 - 18) + (25 - 11) + (33 - 6)
        assert sum(sizes) == lane_steps == 161
        # the leads of the 40-, 25- and 33-iteration groups (A, B, C) wait
        # at 0 and their forks at 18, 11 and 6. Two lanes: A and B lead,
        # A alone; C lead, then with its fork from 6; the B fork from 11,
        # joined by the A fork at 18. Three lanes: the three leads until B
        # ends at 25, then A and C, A alone from 33; the C fork from 6,
        # joined by the B fork at 11 and the A fork at 18
        expected = {
            1: [1] * 161,
            2: [2] * 25 + [1] * 15 + [1] * 6 + [2] * 27 + [1] * 7 + [2] * 7 + [1] * 15,
            3: [3] * 25 + [2] * 8 + [1] * 7 + [1] * 5 + [2] * 7 + [3] * 7 + [2] * 8 + [1] * 7,
        }[room]
        assert sizes == expected

    def test_depth_steps(self, tmp_path, monkeypatch):
        steps = []  # the lanes of each stacked step
        real_step = optim._depth_step
        monkeypatch.setattr(optim, "_depth_step",
                            lambda *a: steps.append(len(a[0])) or real_step(*a))
        scene = tmp_path / "scene.txt"
        scene.write_text(TestComposedTwinRuns.SCENE)
        argv = ["ablate", "--scene", str(scene), "--size", "24x18", "--iters", "200",
                "--out", str(tmp_path / "o")]
        assert cli.run(argv) == 0
        # four runs of 200 steps, two pairs of which share their 90 warmup
        # steps: 200 stacked steps, two lanes through the warmup and four
        # after the fork, carry 620 lane-steps
        assert steps == [2] * 90 + [4] * 110
        assert sum(steps) == 620
        # on the CLI's default 96x72 grid a stack holds one lane
        # (STACK_PIXELS): the two leads, then their forks from iteration 9,
        # one after another
        steps.clear()
        argv[4], argv[6] = "96x72", "20"
        assert cli.run(argv) == 0
        assert steps == [1] * (20 + 20 + 11 + 11)
        bundle = synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 12.0, 9.0),
                            RigidMotion(np.eye(3), README_T), 18, 24)
        for runner, w_b in ((recover_depth, 0.0), (co_adjust, 1.0)):
            steps.clear()
            runner(bundle, OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, w_b=w_b, iterations=200))
            assert steps == [1] * 200


def step_calls(objectives, theta, it):
    """The "call" and "c_call" events of one `_depth_step` of the stack
    `theta`, after one step to warm it. The garbage collector is off while
    they are counted: a collection would count the finalizers of whatever
    other objects it frees."""
    depth = optim._decode_values(theta)
    optim._depth_step(objectives, theta, depth, it)
    calls = []

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            calls.append(event)

    gc.disable()
    sys.setprofile(count)
    try:
        optim._depth_step(objectives, theta, depth, it)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestPlan:
    """The plan `_DepthObjective` builds once per run, and the raw-array
    co-adjustment loop: same losses, same checks, fewer tape nodes."""

    @pytest.fixture(scope="class")
    def rotating(self):
        # the README scene with a rotating ego-motion at 24x18, CLI camera
        ego = RigidMotion(rotation_from_axis_angle([0.011, -0.017, 0.013]), README_T)
        return synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 12.0, 9.0), ego, 18, 24)

    def test_dpc_active_step_tape_size(self):
        # recover-depth benchmark scene, 96x72; 130 Vars per step when every
        # theta-independent term was rebuilt on each step, 106 while each
        # photometric channel pair took 28 elementary nodes, 68 while the
        # warp, cgdc and dpc terms were composed of elementary nodes, 14
        # while the step differentiated through an exp node of theta, 13
        # while each weighted term took a mul and an add node of its own
        ego = RigidMotion(np.eye(3), README_T)
        bundle = synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 48.0, 36.0), ego, 72, 96)
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, iterations=300, seed=1)
        objective = objective_of(bundle, config)
        theta = optim._initial_theta(bundle, config, np.random.default_rng(1))[None]
        it = objective.dpc_active_after
        assert objective.weights(it)["dpc"] > 0
        before = ad._counter
        optim._depth_step([objective], theta, optim._decode_values(theta), it)
        assert ad._counter - before <= 6

    def test_dpc_active_step_call_budget(self, rotating):
        # Python calls and calls of C functions (`sys.setprofile` "call" and
        # "c_call" events) in one active recover step at 24x18, the README
        # scene with a rotating ego-motion, a stack of one lane: 610 while
        # numpy's Python-level wrappers (np.clip, np.shape, np.ndim, np.sum)
        # and a np.errstate block per division site ran on every step, 343
        # before the lane axis, while each weighted term took a mul and an
        # add node of its own.
        # Array operators made through `+`, `*` and the like are not calls
        # and are not counted.
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, iterations=300, seed=1)
        objective = objective_of(rotating, config)
        theta = optim._initial_theta(rotating, config, np.random.default_rng(1))[None]
        it = objective.dpc_active_after
        assert objective.weights(it)["dpc"] > 0
        assert len(step_calls([objective], theta, it)) <= 332

    def test_stacked_step_call_budget(self, rotating):
        # one post-fork step of the CLI 2x2 grid (w_p = 1, w_c and w_d
        # toggled) at 24x18 as one stack of four lanes makes fewer calls
        # than the four steps of those lanes alone; its count repeats
        # exactly, so it is pinned, and a kernel that loops over the lanes
        # fails here
        configs = [OptimConfig(w_p=1.0, w_c=wc, w_d=wd, iterations=200, seed=7)
                   for wc in (0.0, 1.0) for wd in (0.0, 0.1)]
        plan = optim._Plan(rotating, configs)
        objectives = [optim._DepthObjective(rotating, config, plan) for config in configs]
        theta = np.stack([optim._initial_theta(rotating, c, np.random.default_rng(c.seed))
                          for c in configs])
        it = objectives[0].dpc_active_after
        stacked = len(step_calls(objectives, theta, it))
        alone = sum(len(step_calls([o], theta[i : i + 1], it)) for i, o in enumerate(objectives))
        assert stacked < alone
        assert stacked <= 429

    def test_stacked_step_equals_each_lane_alone(self, small_static):
        # the middle lane's depth is 1e-4 of the truth: its warp leaves the
        # image and its |C^D| stays under the floor, so the dpc and
        # photometric nodes are rebuilt over the outer lanes alone, and the
        # last lane has no cgdc term
        weights = [(1.0, 1.0, 0.1), (1.0, 1.0, 0.1), (1.0, 0.0, 0.1)]
        configs = [OptimConfig(w_p=wp, w_c=wc, w_d=wd, iterations=10, seed=0)
                   for wp, wc, wd in weights]
        plan = optim._Plan(small_static, configs)
        objectives = [optim._DepthObjective(small_static, config, plan) for config in configs]
        gt = small_static.depth_gt.values
        theta = np.log(np.stack([gt * 1.1, gt * 1e-4, gt * 0.9]))
        depth = optim._decode_values(theta)
        it = objectives[0].dpc_active_after
        stepped, values, errors = optim._depth_step(objectives, theta, depth, it)
        assert errors == {} and list(values[1]) == ["cgdc"]
        assert list(values[2]) == ["dpc", "photometric"]
        for i, objective in enumerate(objectives):
            alone, alone_values, _ = optim._depth_step([objective], theta[i : i + 1],
                                                       depth[i : i + 1], it)
            assert repr(alone_values) == repr(values[i : i + 1])
            assert_bits_equal(alone[0], stepped[i])

    def test_co_adjust_run_tape_size(self, dynamic_bundle):
        # co-adjust benchmark scene, 96x72, 400 iterations: 15.4 Vars per
        # iteration while the triangulated depth was a constant Var and the
        # flow divergence two constant axis_diff nodes and their sum, 10.24
        # while the step differentiated through an exp node of theta
        config = OptimConfig(w_c=1.0, w_d=0.1, w_b=1.0, iterations=400, seed=3)
        before = ad._counter
        co_adjust(dynamic_bundle, config)
        assert (ad._counter - before) / config.iterations <= 9.24

    def test_recover_step_equals_public_wrappers(self, rotating):
        b = rotating
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, iterations=1, record_every=1, seed=3)
        trace = recover_depth(b, config)
        depth = DepthMap(np.exp(optim._initial_theta(b, config, np.random.default_rng(3))))
        first = trace.records[0].losses
        tri = triangulate_depth(b.camera, b.motion, b.flow_gt)
        assert first["cgdc"] == cgdc_loss(tri, depth).value
        f_tra = translational_flow(b.flow_gt, rotational_flow(b.camera, b.motion.rotation, *b.shape))
        fields = differential_fields(b.camera, b.ego_motion, depth, f_tra)
        mask = fields.validity & (np.abs(fields.c_d.values) >= optim.DPC_FLOOR)
        floored = DifferentialFields(fields.c_f, fields.c_d, fields.q, mask)
        assert first["dpc"] == dpc_loss(floored).value
        # photometric has no bit-equal numpy twin (the tape's rigid flow sums
        # in another order), and the record after the step also checks the
        # backward pass: both against recorded bytes
        assert first["photometric"] == float.fromhex("0x1.2a75796961976p-3")
        assert trace.records[1].losses == {
            "cgdc": float.fromhex("0x1.4bf6121f88eb2p-2"),
            "dpc": float.fromhex("0x1.02226059e0a34p+0"),
            "photometric": float.fromhex("0x1.2968c56236b76p-3"),
        }

    def test_co_adjust_step_equals_public_wrappers(self, rotating):
        b = rotating
        config = OptimConfig(w_c=1.0, w_d=0.1, w_b=1.0, iterations=1, record_every=1, seed=3)
        trace = co_adjust(b, config)
        depth = DepthMap(np.exp(optim._initial_theta(b, config, np.random.default_rng(3))))
        first = trace.records[0].losses
        assert first["bsca"] == bsca_loss(rigid_flow(b.camera, b.motion, depth), b.flow_gt).value
        # the depth losses of a co-adjusted step see the updated flow
        assert first["cgdc"] == float.fromhex("0x1.3de676a4e2e32p-2")
        assert first["dpc"] == float.fromhex("0x1.0019e989b8393p+0")
        # the final record's bsca is evaluated off the tape, as bsca_loss's node
        final = rigid_flow(b.camera, b.motion, trace.final_depth)
        assert trace.records[1].losses == {
            "bsca": bsca_loss(final, trace.final_flow).value,
            "cgdc": float.fromhex("0x1.3d9266b1c8bbep-2"),
            "dpc": float.fromhex("0x1.f9effcf8ff617p-1"),
        }

    def test_records_before_the_flow_phase_carry_bsca(self, rotating, monkeypatch):
        # the flow phase starts at iteration 3 of 20; record 0 evaluates bsca
        # off the tape, equal to bsca_loss's node, and the node is still
        # built only by the 17 flow steps
        calls = []
        real_bsca = optim.bsca_core
        monkeypatch.setattr(optim, "bsca_core", lambda *a: calls.append(1) or real_bsca(*a))
        b = rotating
        config = OptimConfig(w_c=1.0, w_d=0.1, w_b=1.0, iterations=20, record_every=5, seed=3)
        trace = co_adjust(b, config)
        assert int(optim.FLOW_START_FRACTION * config.iterations) == 3 and len(calls) == 17
        assert [r.iteration for r in trace.records] == [0, 5, 10, 15, 20]
        assert all(np.isfinite(r.losses["bsca"]) for r in trace.records)
        depth = DepthMap(np.exp(optim._initial_theta(b, config, np.random.default_rng(3))))
        first = bsca_loss(rigid_flow(b.camera, b.motion, depth), b.flow_gt).value
        assert trace.records[0].losses["bsca"] == first

    def test_co_adjust_rejects_nonfinite_flow_at_first_flow_step(self, small_static, monkeypatch):
        calls = []
        real_bsca = optim.bsca_core
        monkeypatch.setattr(optim, "bsca_core", lambda *a: calls.append(1) or real_bsca(*a))
        # a flow step of infinite size leaves non-finite flow on valid pixels
        config = OptimConfig(
            w_c=1.0, w_d=0.1, w_b=1e300, flow_learning_rate=1e300, iterations=40, seed=0
        )
        with pytest.raises(ValueError, match="^flow contains non-finite values on valid pixels$"):
            co_adjust(small_static, config)
        assert len(calls) == 1

    def test_co_adjust_rejects_vanishing_depth_before_a_step(self, small_static, monkeypatch):
        steps = []
        real_step = optim._depth_step
        monkeypatch.setattr(optim, "_depth_step", lambda *a: steps.append(1) or real_step(*a))
        monkeypatch.setattr(optim, "_initial_theta", lambda b, c, rng: np.full(b.shape, -1000.0))
        with pytest.raises(InvalidDepthError, match="strictly positive"):
            co_adjust(small_static, OptimConfig(w_c=1.0, w_b=1.0, iterations=10))
        assert steps == []


def weighted_total(objective, theta, it):
    """The objective `objective` steps on at iteration `it`: the weighted
    sum of its loss values at the depth exp(theta)."""
    _, values, errors = optim._terms([objective], optim._decode_values(theta))
    assert not errors
    weights = objective.weights(it)
    return sum(weights[name] * value for name, value in values[0].items())


class TestObjectiveGradient:
    """The theta-gradient `_depth_step` steps on (the term weights, the
    warmup's zero DPC weight and the chain rule through D = exp(theta))
    against a central difference of the weighted total along a random
    direction (h = 1e-6), the whole gradient in one pair of evaluations as
    in PyTorch gradcheck's fast mode. The gradient is read off the step,
    theta - theta', at learning rate 1 without a clip.

    The CLI weight sets are checked before `dpc_active_after`, where the
    DPC weight is 0, and the w_d = 0 sets after it too (worst rel error
    7.6e-7). With the DPC term on, the same check reads up to 2.9e-5 (seed
    6, rotating), not yet told apart between a kink inside the DPC node and
    truncation error, so those iterations wait for the kink-aware checker
    of ROADMAP item 1."""

    # (w_p, w_c, w_d): recover-depth's and co-adjust's defaults, then the ablate grid
    WEIGHTS = [(1.0, 0.5, 0.1), (1.0, 0.0, 0.0), (1.0, 0.0, 0.1), (1.0, 1.0, 0.0), (1.0, 1.0, 0.1)]

    @pytest.mark.parametrize("rotating", [False, True], ids=["still", "rotating"])
    @pytest.mark.parametrize("seed", range(10))
    def test_step_is_the_gradient_of_the_weighted_total(self, rotating, seed):
        rotation = rotation_from_axis_angle([0.011, -0.017, 0.013]) if rotating else np.eye(3)
        bundle = synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 16.0, 12.0),
                            RigidMotion(rotation, README_T), 24, 32)
        h = 1e-6
        for w_p, w_c, w_d in self.WEIGHTS:
            config = OptimConfig(w_p=w_p, w_c=w_c, w_d=w_d, learning_rate=1.0, step_clip=1e300,
                                 iterations=20, seed=seed)
            objective = objective_of(bundle, config)
            rng = np.random.default_rng(seed)
            theta = optim._initial_theta(bundle, config, rng)
            direction = rng.normal(size=theta.shape)
            warmup = objective.dpc_active_after
            for it in [warmup - 1] + ([warmup] if w_d == 0 else []):
                assert objective.rate(it) == 1.0
                stepped, _, errors = optim._depth_step(
                    [objective], theta[None], optim._decode_values(theta[None]), it)
                assert not errors
                analytic = float(np.sum((theta - stepped[0]) * direction))
                numeric = (weighted_total(objective, theta + h * direction, it)
                           - weighted_total(objective, theta - h * direction, it)) / (2 * h)
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
                assert rel < 1e-5, (w_p, w_c, w_d, it, rel)


class TestComposedTwinRuns:
    """Whole runs on the loss nodes and on their composed twins,
    substituted at the module attributes the optimizer and the gradient
    checker call (the term builders of `grad`, and the flow step's
    `bsca_core` in `optim`), write the same bytes."""

    SCENE = ("family=affine-inverse-shift\na=0.21\nb=0.0013\nc=0.0009\n"
             "ego_rotation=0.011,-0.017,0.013\nego_translation=0.31,0.02,0.42\n")
    # 12 iterations: the dpc term joins at 5 and the flow at 1
    DESCENT = ("--size", "24x18", "--iters", "12", "--seed", "3")
    RUNS = {
        "recover-depth": ("--weights", "1,1,0.1,0", *DESCENT),
        "co-adjust": ("--weights", "1,1,0.1,1", *DESCENT),
        "ablate": ("--weights", "1,1,0.1,0", *DESCENT),
        # every loss term; exits 1 on this rotating scene (a BSCA twist kink)
        "grad-check": ("--size", "16x12", "--seed", "7"),
    }

    def outputs(self, tmp_path, command, tag):
        scene = tmp_path / "scene.txt"
        scene.write_text(self.SCENE)
        out = tmp_path / tag
        code = cli.run([command, "--scene", str(scene), *self.RUNS[command], "--out", str(out)])
        return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "run-manifest.txt"}

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_trace_bytes_match_composed(self, tmp_path, monkeypatch, capsys, command):
        fused = self.outputs(tmp_path, command, "fused")
        assert fused[0] == (1 if command == "grad-check" else 0)
        calls = {}
        for module in (grad, optim):
            for name, twin in TWINS.items():
                def counted(*args, twin=twin, name=name, **kwargs):
                    calls[name] = calls.get(name, 0) + 1
                    return twin(*args, **kwargs)

                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        composed = self.outputs(tmp_path, command, "composed")
        assert composed == fused
        expected = {"cgdc_core", "differential_depth_side", "dpc_core", "photometric_core",
                    "warp_graph"} | ({"bsca_core"} if command == "co-adjust" else set())
        assert set(calls) == (set(TWINS) if command == "grad-check" else expected)


# a second library recover_depth in a fresh process; prints its minor faults
_SECOND_RUN_FAULTS = """
import resource
import numpy as np
from flowgeo.geometry import CameraIntrinsics, RigidMotion
from flowgeo.optim import OptimConfig, recover_depth
from flowgeo.scene import SceneSpec, synthesize

spec = SceneSpec("affine-inverse-shift", a=0.21, b=0.0013, c=0.0009)
camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=48.0, cy=36.0)
bundle = synthesize(spec, camera, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), 72, 96)
config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, w_b=0.0, iterations={iters}, seed=1)
recover_depth(bundle, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
recover_depth(bundle, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestLibraryHeapPin:
    def test_second_library_run_adds_few_page_faults(self):
        # the pin is process-wide, so only a fresh process shows whether a
        # library caller gets it; left to glibc's dynamic thresholds, each
        # iteration faults the heap top in again (~270 minor faults per
        # iteration at 96x72)
        pytest.importorskip("resource")
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("needs glibc's mallopt")
        iters = 60
        done = run_python(["-c", _SECOND_RUN_FAULTS.format(iters=iters)])
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2 * iters
