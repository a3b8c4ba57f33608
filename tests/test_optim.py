"""Field optimization: fixed-point stability, determinism, scale link,
divergence handling, and the co-adjustment reduction on static scenes."""

import numpy as np
import pytest

from flowgeo.errors import AbortedRunError
from flowgeo.geometry import RigidMotion, rigid_flow
from flowgeo.optim import OptimConfig, ablation_suite, co_adjust, recover_depth
from flowgeo.scene import SceneSpec, synthesize


@pytest.fixture(scope="module")
def small_static(camera):
    spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
    ego = RigidMotion(np.eye(3), [0.31, 0.02, 0.42])
    return synthesize(spec, camera, ego, 36, 48)


class TestConfigValidation:
    def test_negative_weight(self):
        with pytest.raises(ValueError):
            OptimConfig(w_c=-1.0)

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
            learning_rate=1e9, step_clip=1e9, divergence_threshold=1e6,
        )
        with pytest.raises(AbortedRunError) as exc_info:
            recover_depth(small_static, config)
        assert exc_info.value.trace is not None

    def test_dynamic_scene_needs_co_adjust(self, dynamic_bundle):
        with pytest.raises(ValueError):
            recover_depth(dynamic_bundle, OptimConfig(w_c=1.0, w_b=0.0))


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
