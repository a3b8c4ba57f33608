"""Gradient engine: central-difference agreement for every loss and
target, stop-gradient behavior, fixed-point gradients, and the checker's
exclusion bookkeeping."""

import numpy as np
import pytest

from flowgeo import autodiff as ad
from flowgeo.geometry import DepthMap, TwistParams
from flowgeo.grad import (
    LOSS_IDS,
    LossInputs,
    build_loss,
    finite_difference_check,
    loss_gradient,
    rotation_entries,
)
from flowgeo.geometry import rotation_from_axis_angle
from flowgeo.triangulate import triangulate_depth


@pytest.fixture(scope="module")
def perturbed_inputs(small_bundle):
    rng = np.random.default_rng(7)
    depth = DepthMap(small_bundle.depth_gt.values * rng.uniform(0.7, 1.4, small_bundle.shape))
    return LossInputs.from_bundle(small_bundle, depth=depth)


class TestRotationEntries:
    def test_matches_rodrigues(self):
        w = np.array([0.04, -0.11, 0.07])
        entries = rotation_entries(*[ad.Var(x) for x in w])
        values = np.array([[float(entries[i][j].value) for j in range(3)] for i in range(3)])
        np.testing.assert_allclose(values, rotation_from_axis_angle(w), atol=1e-14)

    def test_series_branch_at_zero(self):
        entries = rotation_entries(*[ad.Var(0.0) for _ in range(3)])
        values = np.array([[float(entries[i][j].value) for j in range(3)] for i in range(3)])
        np.testing.assert_array_equal(values, np.eye(3))


class TestFiniteDifferenceAgreement:
    @pytest.mark.parametrize("loss_id", LOSS_IDS)
    def test_depth_and_twist(self, perturbed_inputs, loss_id):
        report = finite_difference_check(
            loss_id, perturbed_inputs, targets=("depth", "twist"), seed=3
        )
        assert report.passed, max(
            (r for r in report.rows if not r.excluded), key=lambda r: r.rel_error
        )

    @pytest.mark.parametrize("loss_id", ("cgdc", "dpc", "bsca"))
    def test_flow_target(self, perturbed_inputs, loss_id):
        report = finite_difference_check(loss_id, perturbed_inputs, targets=("flow",), seed=5)
        assert report.passed

    def test_quadratic_functional_is_exact(self, perturbed_inputs):
        target = perturbed_inputs.depth.values * 1.1

        def quadratic(leaves, inputs):
            diff = ad.sub(leaves["depth"], target)
            mask = np.ones(target.shape, bool)
            return ad.masked_mean(ad.mul(diff, diff), mask), mask

        report = finite_difference_check(
            quadratic, perturbed_inputs, targets=("depth",), seed=1, tolerance=1e-9
        )
        # central differences are exact on quadratics
        assert report.max_rel_error < 1e-9

    def test_step_must_be_positive(self, perturbed_inputs):
        with pytest.raises(ValueError):
            finite_difference_check("cgdc", perturbed_inputs, step=0.0)


class TestStopGradient:
    def test_geometric_depth_frozen(self, perturbed_inputs):
        g = loss_gradient(
            "cgdc", perturbed_inputs, targets=("twist", "flow"), stop_gradient_geo=True
        )
        assert np.abs(g.d_twist).max() == 0.0
        assert np.abs(g.d_flow).max() == 0.0

    def test_geometric_depth_live_by_default(self, perturbed_inputs):
        g = loss_gradient("cgdc", perturbed_inputs, targets=("twist", "flow"))
        assert np.abs(g.d_twist).max() > 0.0
        assert np.abs(g.d_flow).max() > 0.0

    def test_depth_gradient_unaffected_by_stopgrad(self, perturbed_inputs):
        a = loss_gradient("cgdc", perturbed_inputs, targets=("depth",), stop_gradient_geo=True)
        b = loss_gradient("cgdc", perturbed_inputs, targets=("depth",))
        np.testing.assert_array_equal(a.d_depth, b.d_depth)


class TestFixedPoints:
    def test_cgdc_zero_gradient_at_exact_ties(self, small_bundle):
        # exact ties need the graph's own triangulated bits. The numpy and
        # tape triangulations agree bit for bit under one constant pose
        # (test_numpy_and_tape_triangulation_agree_bitwise), but the loss
        # graph rebuilds R from the twist on tape, an ulp off
        # `motion.rotation`; probe the graph once to harvest its bits
        probe = LossInputs.from_bundle(small_bundle)
        from flowgeo.grad import rotation_entries, triangulate_graph

        xi = [ad.Var(float(x)) for x in probe.twist.values]
        R = rotation_entries(*xi[:3])
        dg, validity = triangulate_graph(
            small_bundle.camera, R, (xi[3], xi[4], xi[5]),
            ad.Var(small_bundle.flow_gt.values[..., 0]),
            ad.Var(small_bundle.flow_gt.values[..., 1]),
            small_bundle.flow_gt.mask,
        )
        tied = DepthMap(np.where(validity, dg.value, 1.0), validity)
        inputs = LossInputs.from_bundle(small_bundle, depth=tied)
        g = loss_gradient("cgdc", inputs, targets=("depth",))
        # |x| at exactly-zero arguments takes subgradient 0
        assert g.value == 0.0
        assert np.abs(g.d_depth).max() == 0.0

    def test_photometric_twist_gradient_zero_at_identity_self_pair(self, small_bundle):
        inputs = LossInputs(
            camera=small_bundle.camera,
            twist=TwistParams(np.zeros(6)),
            depth=small_bundle.depth_gt,
            flow=small_bundle.flow_gt,
            image_t=small_bundle.image_t,
            image_s=small_bundle.image_t,  # self pair
        )
        g = loss_gradient("photometric", inputs, targets=("twist", "depth"))
        assert g.value == 0.0
        assert np.abs(g.d_twist).max() < 1e-10
        assert np.abs(g.d_depth).max() < 1e-10

    def test_bsca_zero_gradient_at_matching_flow(self, small_bundle):
        # flow prior = the graph's own rigid flow bits: exact ties everywhere
        from flowgeo.geometry import FlowField
        from flowgeo.grad import rigid_flow_graph, rotation_entries

        probe = LossInputs.from_bundle(small_bundle)
        xi = [ad.Var(float(x)) for x in probe.twist.values]
        R = rotation_entries(*xi[:3])
        f_u, f_v, ok = rigid_flow_graph(
            small_bundle.camera, R, (xi[3], xi[4], xi[5]),
            ad.Var(small_bundle.depth_gt.values), *small_bundle.shape
        )
        tied_flow = FlowField(np.stack([f_u.value, f_v.value], axis=-1), ok)
        inputs = LossInputs(
            camera=small_bundle.camera,
            twist=probe.twist,
            depth=small_bundle.depth_gt,
            flow=tied_flow,
        )
        g = loss_gradient("bsca", inputs, targets=("depth", "twist"))
        assert g.value == 0.0
        assert np.abs(g.d_depth).max() == 0.0
        assert np.abs(g.d_twist).max() == 0.0


class TestCheckerBookkeeping:
    def test_mask_flip_detected_and_excluded(self, perturbed_inputs):
        base = float(perturbed_inputs.depth.values[6, 8])

        def flippy(leaves, inputs):
            d = leaves["depth"]
            mask = np.asarray(d.value) <= base  # flips when pixel (8,6) moves up
            return ad.masked_mean(ad.mul(d, d), mask), mask

        report = finite_difference_check(
            flippy, perturbed_inputs, targets=("depth",), seed=2, depth_samples=192
        )
        flipped = [r for r in report.rows if r.mask_flipped]
        assert len(flipped) >= 1
        assert all(r.excluded == "mask-flip" for r in flipped)
        assert report.flipped_count == len(flipped)

    def test_fd_floor_exclusion(self, perturbed_inputs):
        def half_dead(leaves, inputs):
            d = leaves["depth"]
            mask = np.ones(np.shape(d.value), bool)
            weights = np.zeros(np.shape(d.value))
            weights[0, :] = 1.0  # only the first row influences the loss
            return ad.masked_mean(ad.mul(d, weights), mask), mask

        report = finite_difference_check(
            half_dead, perturbed_inputs, targets=("depth",), seed=2, depth_samples=100
        )
        floored = [r for r in report.rows if r.excluded == "fd-floor"]
        live = [r for r in report.rows if not r.excluded]
        assert floored and live
        assert report.passed  # dead coordinates do not fail the check

    def test_csv_rows_shape(self, perturbed_inputs):
        report = finite_difference_check("bsca", perturbed_inputs, seed=0, depth_samples=4)
        rows = report.to_csv_rows()
        assert len(rows) == len(report.rows)
        assert {"target", "coordinate", "analytic", "numeric", "rel_error"} <= set(rows[0])


class TestAgainstPlainEvaluation:
    def test_tape_forward_matches_loss_functions(self, small_bundle, perturbed_inputs):
        from flowgeo.losses import cgdc_loss

        tri = triangulate_depth(small_bundle.camera, small_bundle.motion, small_bundle.flow_gt)
        expected = cgdc_loss(tri, perturbed_inputs.depth)
        loss, _, _ = build_loss("cgdc", perturbed_inputs)
        assert float(loss.value) == pytest.approx(expected.value, rel=1e-12)
