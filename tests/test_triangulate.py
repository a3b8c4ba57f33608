"""Closed-form depth from correspondences: worked examples, degeneracy
codes, and round-trip/scale properties on synthetic scenes."""

import numpy as np
import pytest

from conftest import random_scene
from flowgeo import autodiff as ad
from flowgeo.geometry import CameraIntrinsics, FlowField, RigidMotion
from flowgeo.grad import triangulate_graph
from flowgeo.triangulate import (
    Degeneracy,
    normalized_correspondences,
    triangulate_depth,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0)


class TestNormalizedCorrespondences:
    def test_worked_example(self):
        p_t, p_s = normalized_correspondences(K, [64.0, 48.0], [20.0, 0.0])
        np.testing.assert_allclose(p_t, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(p_s, [0.2, 0.0, 1.0])

    def test_zero_flow_equal_rays(self):
        p_t, p_s = normalized_correspondences(K, [31.0, 17.0], [0.0, 0.0])
        np.testing.assert_array_equal(p_t, p_s)

    def test_unit_normalized_offset(self):
        p_t, _ = normalized_correspondences(K, [164.0, 48.0], [0.0, 0.0])
        np.testing.assert_allclose(p_t, [1.0, 0.0, 1.0])


class TestTriangulateDepth:
    def test_hand_worked_pixel(self):
        # numerator (1 - 0.2*0) + 0 = 1; denominator (0.2*1 - 0) + 0 = 0.2 -> 5
        H, W = 96, 128
        flow = np.zeros((H, W, 2))
        flow[48, 64] = [20.0, 0.0]
        result = triangulate_depth(K, RigidMotion(np.eye(3), [1.0, 0.0, 0.0]), FlowField(flow))
        assert result.depth_g.values[48, 64] == pytest.approx(5.0, rel=1e-12)

    def test_pure_rotation_all_invalid(self):
        rng = np.random.default_rng(0)
        flow = FlowField(rng.normal(scale=2.0, size=(24, 32, 2)))
        result = triangulate_depth(K, RigidMotion(np.eye(3), [0.0, 0.0, 0.0]), FlowField(flow.values))
        assert not result.validity.any()

    def test_negative_depth_code(self):
        # reversing the flow of a valid lateral-motion pixel flips the sign
        H, W = 10, 10
        flow = np.zeros((H, W, 2))
        flow[5, 5] = [-20.0, 0.0]
        result = triangulate_depth(K, RigidMotion(np.eye(3), [1.0, 0.0, 0.0]), FlowField(flow))
        assert result.degeneracy[5, 5] == Degeneracy.NEGATIVE_DEPTH
        assert not result.validity[5, 5]

    def test_masked_flow_code(self):
        flow = FlowField(np.zeros((6, 6, 2)), mask=np.zeros((6, 6), bool))
        result = triangulate_depth(K, RigidMotion(np.eye(3), [1.0, 0.0, 0.0]), flow)
        assert (result.degeneracy == Degeneracy.MASKED_FLOW).all()

    def test_round_trip_on_random_scenes(self):
        for seed in range(3):
            bundle = random_scene(seed, height=48, width=64)
            result = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
            rel = np.abs(result.depth_g.values / bundle.depth_gt.values - 1.0)
            assert rel[result.validity].max() < 1e-6
            interior = result.validity[1:-1, 1:-1]
            assert interior.mean() >= 0.99

    def test_scale_equivariance(self):
        bundle = random_scene(7, height=36, width=48)
        base = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
        s = 3.7
        scaled_motion = RigidMotion(bundle.motion.rotation, bundle.motion.translation * s)
        scaled = triangulate_depth(bundle.camera, scaled_motion, bundle.flow_gt)
        both = base.validity & scaled.validity
        rel = np.abs(scaled.depth_g.values[both] / (s * base.depth_g.values[both]) - 1.0)
        assert rel.max() < 1e-12

    def test_depth_positive_where_valid(self):
        bundle = random_scene(12, height=36, width=48)
        result = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
        assert (result.depth_g.values[result.validity] > 0).all()
        assert np.isfinite(result.depth_g.values).all()

    def test_numpy_and_tape_triangulation_agree_bitwise(self, small_bundle):
        # one ratio serves both paths: with a constant pose they must match
        # to the last bit, rotation included
        b = small_bundle
        result = triangulate_depth(b.camera, b.motion, b.flow_gt)
        depth, validity = triangulate_graph(
            b.camera, b.motion.rotation, b.motion.translation,
            ad.Var(b.flow_gt.values[..., 0]), ad.Var(b.flow_gt.values[..., 1]), b.flow_gt.mask,
        )
        np.testing.assert_array_equal(validity, result.validity)
        assert result.validity.any()
        np.testing.assert_array_equal(depth.value[validity], result.depth_g.values[validity])
        stopped, _ = triangulate_graph(
            b.camera, b.motion.rotation, b.motion.translation,
            b.flow_gt.values[..., 0], b.flow_gt.values[..., 1], b.flow_gt.mask, stop_gradient=True,
        )
        np.testing.assert_array_equal(stopped.value, result.depth_g.values)
