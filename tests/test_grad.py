"""Gradient engine: central-difference agreement for every loss and
target, stop-gradient behavior, fixed-point gradients, and the checker's
exclusion bookkeeping."""

import numpy as np
import pytest
from composed import composed_warp, masked_mean, substitute_twins, total
from conftest import assert_bits_equal, assert_twins_agree, reachable
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgeo import autodiff as ad
from flowgeo import grad, losses
from flowgeo.geometry import (
    CameraGrid,
    CameraIntrinsics,
    DepthMap,
    RigidMotion,
    TwistParams,
    inverse_translation,
    rotation_from_axis_angle,
)
from flowgeo.grad import (
    LOSS_IDS,
    LossInputs,
    build_loss,
    finite_difference_check,
    loss_gradient,
    rotation_entries,
    warp_graph,
)
from flowgeo.losses import cgdc_loss
from flowgeo.scene import SceneSpec, synthesize
from flowgeo.triangulate import triangulate_depth


@pytest.fixture(scope="module")
def perturbed_inputs(small_bundle):
    rng = np.random.default_rng(7)
    depth = DepthMap(small_bundle.depth_gt.values * rng.uniform(0.7, 1.4, small_bundle.shape))
    return LossInputs.from_bundle(small_bundle, depth=depth)


def check_functional(monkeypatch, functional, inputs, **kwargs):
    """`finite_difference_check` of a custom functional (leaves, inputs) ->
    (loss Var, mask) of the depth leaf, handed to the checker as a term of
    its own."""
    def build(plan, depth):
        return functional({"depth": depth}, inputs)

    monkeypatch.setitem(grad._TERMS, "custom", (build, None, (), "", "custom: empty mask"))
    return finite_difference_check("custom", inputs, **kwargs)


def matrix_rodrigues(w):
    """Rodrigues in the matrix form I + a K + b K @ K with its own series
    below 1e-8 radians: an independent reference for the one expression."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    if theta < 1e-8:
        a, b = 1.0 - theta**2 / 6.0, 0.5 - theta**2 / 24.0
    else:
        a, b = np.sin(theta) / theta, (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + a * K + b * (K @ K)


# axis-angle vectors from zero rotation to near pi, through the series switch
axis_angles = st.builds(
    lambda axis, angle: np.asarray(axis) / np.linalg.norm(axis) * angle,
    st.tuples(*([st.floats(-1, 1)] * 3)).filter(lambda a: np.linalg.norm(a) > 1e-3),
    st.one_of(st.floats(0.0, 3.1), st.sampled_from([1e-9, 1e-4, 1e-3, 1.0000001e-3])),
)


def tape_rotation(w):
    entries = rotation_entries(*[ad.Var(float(x)) for x in w])
    return np.array([[entries[i][j].value for j in range(3)] for i in range(3)])


class TestRotationEntries:
    @given(w=axis_angles)
    @settings(max_examples=200, deadline=None)
    def test_matches_rodrigues(self, w):
        # the two forms round different terms; past 2.8 rad those reach
        # 1 - cos(theta) ~ 2 and the forms part by up to 1.1e-15
        atol = 1e-15 if np.linalg.norm(w) <= 2.8 else 2e-15
        np.testing.assert_allclose(rotation_from_axis_angle(w), matrix_rodrigues(w),
                                   rtol=0, atol=atol)

    @given(w=axis_angles)
    @settings(max_examples=200, deadline=None)
    def test_float_evaluation_is_the_tape_value(self, w):
        assert_bits_equal(rotation_from_axis_angle(w), tape_rotation(w))

    def test_series_branch_at_zero(self):
        # exactly the identity, without -0.0 entries
        assert_bits_equal(tape_rotation(np.zeros(3)), np.eye(3))
        assert_bits_equal(rotation_from_axis_angle(np.zeros(3)), np.eye(3))

    @given(w=axis_angles)
    @settings(max_examples=100, deadline=None)
    def test_reversed_rotation_is_the_transpose(self, w):
        assert_bits_equal(rotation_from_axis_angle(-w), rotation_from_axis_angle(w).T)

    @given(w=axis_angles, t=st.tuples(*([st.floats(-2, 2)] * 3)))
    @settings(max_examples=100, deadline=None)
    def test_inverse_translation_is_the_tape_value(self, w, t):
        R = rotation_entries(*[ad.Var(float(x)) for x in w])
        on_tape = inverse_translation(R, [ad.Var(x) for x in t])
        inverse = RigidMotion(rotation_from_axis_angle(w), t).inverse()
        assert_bits_equal(inverse.translation, [x.value for x in on_tape])


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

    def test_quadratic_functional_is_exact(self, perturbed_inputs, monkeypatch):
        target = perturbed_inputs.depth.values * 1.1

        def quadratic(leaves, inputs):
            diff = ad.sub(leaves["depth"], target)
            mask = np.ones(target.shape, bool)
            return masked_mean(ad.mul(diff, diff), mask), mask

        report = check_functional(
            monkeypatch, quadratic, perturbed_inputs, targets=("depth",), seed=1, tolerance=1e-9
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

    def test_stopped_depth_is_the_triangulation_of_the_inputs(self, perturbed_inputs):
        # with stop_gradient_geo, cgdc's geometric depth is the constant
        # triangulation of the inputs' own twist and flow, whatever the
        # overrides: the node reads only the depth leaf, and its value is
        # cgdc_loss of triangulate_depth under the twist's motion
        inputs = perturbed_inputs
        tri = triangulate_depth(inputs.camera, inputs.twist.to_motion(), inputs.flow)
        expected = cgdc_loss(tri, inputs.depth).value
        moved = (None, {"twist": inputs.twist.values + 1e-3}, {"flow": inputs.flow.values + 0.5})
        for overrides in moved:
            loss, leaves, mask = build_loss("cgdc", inputs, overrides, stop_gradient_geo=True)
            assert loss.value == expected
            assert [parent for parent, _ in loss._parents] == [leaves["depth"]] * 2
            np.testing.assert_array_equal(mask, tri.validity & inputs.depth.mask)

    def test_checker_holds_the_stopped_depth(self, perturbed_inputs):
        # the +/- rebuilds keep the base triangulated depth, as the analytic
        # gradient does, so the twist rows agree (both exactly zero) and the
        # base build is the stop-gradient build bit for bit
        report = finite_difference_check("cgdc", perturbed_inputs, stop_gradient_geo=True)
        twist = [r for r in report.rows if r.target == "twist"]
        assert len(twist) == 6 and all(r.analytic == r.numeric == 0.0 for r in twist)
        assert report.passed
        g = loss_gradient("cgdc", perturbed_inputs, targets=("depth",), stop_gradient_geo=True)
        for r in report.rows:
            if r.target == "depth":
                vx, vy = map(int, r.coordinate[len("pixel("):-1].split(","))
                assert r.analytic == g.d_depth[vy, vx]

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
        from flowgeo.geometry import Z_EPS, FlowField
        from flowgeo.grad import rigid_flow_terms, rotation_entries

        probe = LossInputs.from_bundle(small_bundle)
        xi = [ad.Var(float(x)) for x in probe.twist.values]
        grid = CameraGrid.of(small_bundle.camera, *small_bundle.shape)
        _, _, y2, f_u, f_v = rigid_flow_terms(
            small_bundle.camera, grid.rays(rotation_entries(*xi[:3])), (xi[3], xi[4], xi[5]),
            ad.Var(small_bundle.depth_gt.values), grid
        )
        tied_flow = FlowField(np.stack([f_u.value, f_v.value], axis=-1), y2.value > Z_EPS)
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
    def test_mask_flip_detected_and_excluded(self, perturbed_inputs, monkeypatch):
        base = float(perturbed_inputs.depth.values[6, 8])

        def flippy(leaves, inputs):
            d = leaves["depth"]
            mask = np.asarray(d.value) <= base  # flips when pixel (8,6) moves up
            return masked_mean(ad.mul(d, d), mask), mask

        report = check_functional(
            monkeypatch, flippy, perturbed_inputs, targets=("depth",), seed=2, depth_samples=192
        )
        flipped = [r for r in report.rows if r.mask_flipped]
        assert len(flipped) >= 1
        assert all(r.excluded == "mask-flip" for r in flipped)
        assert report.flipped_count == len(flipped)

    def test_fd_floor_exclusion(self, perturbed_inputs, monkeypatch):
        def half_dead(leaves, inputs):
            d = leaves["depth"]
            mask = np.ones(np.shape(d.value), bool)
            weights = np.zeros(np.shape(d.value))
            weights[0, :] = 1.0  # only the first row influences the loss
            return masked_mean(ad.mul(d, weights), mask), mask

        report = check_functional(
            monkeypatch, half_dead, perturbed_inputs, targets=("depth",), seed=2,
            depth_samples=100,
        )
        floored = [r for r in report.rows if r.excluded == "fd-floor"]
        live = [r for r in report.rows if not r.excluded]
        assert floored and live
        assert report.passed  # dead coordinates do not fail the check

    def test_depth_rebuilds_reuse_the_base_plan(self, perturbed_inputs, monkeypatch):
        # the pose graph is built once for the base build and all its
        # depth rebuilds, and once per +- build of a twist coordinate
        calls = []
        rotation_entries = grad.rotation_entries
        monkeypatch.setattr(grad, "rotation_entries",
                            lambda *w: calls.append(w) or rotation_entries(*w))
        for loss_id in ("photometric", "cgdc", "dpc", "bsca"):
            calls.clear()
            finite_difference_check(loss_id, perturbed_inputs, targets=("depth",), depth_samples=8)
            assert len(calls) == 1
            calls.clear()
            finite_difference_check(loss_id, perturbed_inputs, depth_samples=8)
            assert len(calls) == 1 + 2 * 6

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


# -- the warp node and build_loss against the composed twins -------------------


def warp_inputs(bundle, depth_scale=1.0):
    """Depth, rotated rays and translation of a bundle's warp motion, as
    named inputs. Two pixels are pushed behind the camera and one sample
    far outside the image, so the masks and the clamped edges are hit."""
    grid = CameraGrid.of(bundle.camera, *bundle.shape)
    rays = grid.rays(bundle.motion.rotation)
    depth = bundle.depth_gt.values * depth_scale
    depth.flat[0] = -depth.flat[0]
    depth.flat[-1] = -1e-12
    depth.flat[4 % depth.size] *= 40.0
    t = bundle.motion.translation
    inputs = {"depth": depth, "r0": rays[0], "r1": rays[1], "r2": rays[2],
              "t0": float(t[0]), "t1": float(t[1]), "t2": float(t[2])}
    return grid, inputs


def upstream_for(shape, seed=3):
    """An upstream gradient with +0.0 and -0.0 entries among the values."""
    g = np.random.default_rng(seed).normal(size=shape)
    g.flat[1::3] = -0.0
    g.flat[2::5] = 0.0
    return g


def tiny_bundle():
    """A 3x3 grid of a rotating scene with a 3-channel texture."""
    camera = CameraIntrinsics(fx=4.0, fy=4.0, cx=1.0, cy=1.0)
    ego = RigidMotion(np.eye(3), [0.05, 0.02, 0.1])
    spec = SceneSpec("affine-inverse-shift", a=0.22, b=2.3e-3, c=1.7e-3)
    return synthesize(spec, camera, ego, 3, 3)


class TestWarpNode:
    # depth only (the optimizer); depth, rays and translation (build_loss)
    @pytest.mark.parametrize("active", [("depth",), ("depth", "r0", "r1", "r2", "t0", "t1", "t2")])
    @pytest.mark.parametrize("channels", [None, 3])
    @pytest.mark.parametrize("where", ["small", "tiny"])
    def test_matches_composed(self, small_bundle, active, channels, where):
        bundle = small_bundle if where == "small" else tiny_bundle()
        grid, inputs = warp_inputs(bundle)
        image = bundle.image_s.values
        if channels:
            image = np.stack([image, image[::-1], image[:, ::-1]], axis=-1)
        upstream = upstream_for(image.shape)

        def build(warp):
            def root(depth, r0, r1, r2, t0, t1, t2):
                warped, _ = warp(bundle.camera, image, (t0, t1, t2), depth, grid, (r0, r1, r2))
                return total(ad.mul(warped, upstream))
            return root

        assert_twins_agree(build(warp_graph), build(composed_warp), inputs, active)

    def test_values_and_mask_match_composed(self, small_bundle):
        grid, inputs = warp_inputs(small_bundle)
        t = (inputs["t0"], inputs["t1"], inputs["t2"])
        rays = (inputs["r0"], inputs["r1"], inputs["r2"])
        depth = ad.Var(inputs["depth"])
        image = small_bundle.image_s.values
        warped, valid = warp_graph(small_bundle.camera, image, t, depth, grid, rays)
        twin, twin_valid = composed_warp(small_bundle.camera, image, t, depth, grid, rays)
        assert_bits_equal(warped.value, twin.value)
        np.testing.assert_array_equal(valid, twin_valid)
        assert not valid.all() and valid.any()
        # one node over the depth, linked once per composed contribution
        assert [parent for parent, _ in warped._parents] == [depth, depth, depth]


def loss_gradient_bits(loss_id, inputs, stop):
    g = loss_gradient(loss_id, inputs, targets=("depth", "twist", "flow"), stop_gradient_geo=stop)
    return [g.value, g.d_depth, g.d_twist, g.d_flow]


class TestBuildLossTwins:
    """build_loss with the nodes equals build_loss with the composed twins
    substituted for them, value and gradient bits, for pose, depth and flow."""

    @pytest.mark.parametrize("loss_id", ["photometric", "cgdc", "dpc", "bsca", "smoothness"])
    @pytest.mark.parametrize("stop", [False, True])
    @pytest.mark.parametrize("where", ["small", "tiny"])
    def test_gradients_match_composed(self, perturbed_inputs, monkeypatch, loss_id, stop, where):
        if where == "small":
            inputs = perturbed_inputs
        else:
            bundle = tiny_bundle()
            inputs = LossInputs.from_bundle(bundle, depth=DepthMap(bundle.depth_gt.values * 1.1))
        fused = loss_gradient_bits(loss_id, inputs, stop)
        substitute_twins(monkeypatch, grad, losses)
        composed = loss_gradient_bits(loss_id, inputs, stop)
        for actual, expected in zip(fused, composed, strict=True):
            assert_bits_equal(actual, expected)

    # the composed twins take 17 nodes for the warp and 29 for a 1-channel
    # SSIM + L1 pair with its masked mean (the nodes: 2), 5 for cgdc, 17
    # for dpc's depth side and mean, 11 for bsca and 12 for smoothness
    # (the nodes: 1 each)
    @pytest.mark.parametrize("loss_id, saved", [("photometric", 16 + 28), ("cgdc", 4),
                                                ("dpc", 16), ("bsca", 10), ("smoothness", 11)])
    def test_each_term_is_one_node(self, perturbed_inputs, monkeypatch, loss_id, saved):
        # the pose and flow graphs feeding the node stay composed
        fused = len(reachable(build_loss(loss_id, perturbed_inputs)[0]))
        substitute_twins(monkeypatch, grad, losses)
        composed = len(reachable(build_loss(loss_id, perturbed_inputs)[0]))
        assert fused == composed - saved
