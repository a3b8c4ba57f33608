"""Closed-form depth from correspondences: worked examples, degeneracy
codes, and round-trip/scale properties on synthetic scenes."""

import numpy as np
import pytest

from conftest import assert_bits_equal, random_scene
from flowgeo import autodiff as ad
from flowgeo.errors import DimensionError
from flowgeo.geometry import CameraIntrinsics, FlowField, RigidMotion
from flowgeo.grad import LossPlan
from flowgeo.triangulate import (
    DEGENERATE_DENOMINATOR_EPS,
    Degeneracy,
    depth_from_ratio,
    normalized_correspondences,
    triangulate_depth,
    triangulation_ratio,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0)


def codes_first(numerator, denominator, flow_mask):
    """The validity rule written through the degeneracy codes: (depth,
    validity, codes), the reference for `depth_from_ratio` and for the
    codes of `triangulate_depth`."""
    codes = np.zeros(flow_mask.shape, dtype=np.uint8)
    codes[~flow_mask] = Degeneracy.MASKED_FLOW
    near_zero = np.abs(denominator) < DEGENERATE_DENOMINATOR_EPS
    small = near_zero & flow_mask
    codes[small] = Degeneracy.NEAR_ZERO_DENOMINATOR
    with np.errstate(divide="ignore", invalid="ignore"):
        depth = numerator / np.where(near_zero, 1.0, denominator)
    codes[(depth <= 0) & flow_mask & ~small] = Degeneracy.NEGATIVE_DEPTH
    validity = codes == Degeneracy.OK
    return np.where(validity, depth, 1.0), validity, codes


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

    @pytest.mark.parametrize("pixel, flow", [([1.0, 1.0], [1.0]), ([1.0], [1.0, 1.0]),
                                             (1.0, [0.0, 0.0])])
    def test_pixel_or_flow_that_is_not_a_2_vector(self, pixel, flow):
        with pytest.raises(DimensionError, match="2-vectors"):
            normalized_correspondences(K, pixel, flow)


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

    def test_validity_rule_matches_codes_first_form(self):
        # every pairing of special numerators and denominators, masked and
        # not: a NaN depth stays valid, as the codes-first rule left it
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-9, -5e-9, 1e-8, 2.0, -3.0]
        num, den = (a.ravel() for a in np.meshgrid(special, special))
        mask = np.arange(num.size) % 3 != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            depth, validity, near_zero = depth_from_ratio(num, den, mask)
        ref_depth, ref_validity, ref_codes = codes_first(num, den, mask)
        assert_bits_equal(depth, ref_depth)
        np.testing.assert_array_equal(validity, ref_validity)
        np.testing.assert_array_equal(near_zero & mask,
                                      ref_codes == Degeneracy.NEAR_ZERO_DENOMINATOR)
        assert np.isnan(depth[validity]).any()

    def test_codes_match_codes_first_form(self):
        # masked NaN flow, zero parallax (zero flow under no rotation gives
        # a zero denominator), negative depths and valid pixels on one grid
        rng = np.random.default_rng(5)
        flow = rng.normal(scale=20.0, size=(12, 16, 2))
        mask = rng.random((12, 16)) > 0.2
        flow[~mask] = np.nan
        flow[3, :] = 0.0
        motion = RigidMotion(np.eye(3), [0.3, 0.1, 0.5])
        result = triangulate_depth(K, motion, FlowField(flow, mask))
        f_u, f_v = flow[..., 0], flow[..., 1]
        with np.errstate(invalid="ignore"):
            numerator, denominator = triangulation_ratio(
                K, motion.rotation, motion.translation, f_u, f_v)
        ref_depth, ref_validity, ref_codes = codes_first(numerator, denominator, mask)
        np.testing.assert_array_equal(result.degeneracy, ref_codes)
        np.testing.assert_array_equal(result.validity, ref_validity)
        assert_bits_equal(result.depth_g.values, ref_depth)
        assert set(np.unique(ref_codes)) == set(Degeneracy)

    def test_numpy_and_tape_triangulation_agree_bitwise(self, small_bundle):
        # one ratio serves both paths: with a constant pose they must match
        # to the last bit, rotation included
        b = small_bundle
        result = triangulate_depth(b.camera, b.motion, b.flow_gt)
        depth, validity = LossPlan(
            b.camera, b.motion.rotation, b.motion.translation, None, None, None,
            ad.Var(b.flow_gt.values[..., 0]), ad.Var(b.flow_gt.values[..., 1]), b.flow_gt.mask,
            True, 0.0,
        ).geo
        np.testing.assert_array_equal(validity, result.validity)
        assert result.validity.any()
        np.testing.assert_array_equal(depth.value[validity], result.depth_g.values[validity])
