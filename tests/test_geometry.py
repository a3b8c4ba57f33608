"""Camera model, rigid motion, flow primitives, stencils, and warping.

Expected values are hand-computed from the projection formulas (see the
inline arithmetic) rather than from the code under test.
"""

import numpy as np
import pytest
from conftest import assert_bits_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgeo.errors import BehindCameraError, DimensionError, InvalidDepthError, NonFiniteError
from flowgeo.geometry import (
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    RigidMotion,
    ScalarField,
    TwistParams,
    _axis_diff,
    axis_angle_from_rotation,
    backproject,
    divergence,
    grid_gradient,
    pixel_grid,
    project,
    rigid_flow,
    rotation_from_axis_angle,
    rotational_flow,
    translational_flow,
    warp,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0)


# ---------------------------------------------------------------------------
# projection / backprojection


def scalar_project(fx, fy, cx, cy, x, y, z):
    # independent oracle: the pinhole formula written out
    return (fx * x / z + cx, fy * y / z + cy)


class TestProject:
    def test_off_axis_point(self):
        expected = scalar_project(100, 100, 64, 48, 1.0, 0.0, 5.0)
        assert expected == (84.0, 48.0)
        np.testing.assert_allclose(project(K, [1.0, 0.0, 5.0]), expected)

    def test_principal_point_any_depth(self):
        for d in (0.1, 1.0, 17.3):
            np.testing.assert_allclose(project(K, [0.0, 0.0, d]), (64.0, 48.0))

    def test_behind_camera_raises(self):
        with pytest.raises(BehindCameraError):
            project(K, [1.0, 0.0, -2.0])
        with pytest.raises(BehindCameraError):
            project(K, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("point", [5.0, [1.0, 2.0]])
    def test_point_that_is_not_a_3_vector(self, point):
        with pytest.raises(DimensionError, match="3-vector"):
            project(K, point)


class TestBackproject:
    def test_principal_point_axis(self):
        np.testing.assert_allclose(backproject(K, [64.0, 48.0], 5.0), [0.0, 0.0, 5.0])

    def test_inverse_of_projection(self):
        np.testing.assert_allclose(backproject(K, [84.0, 48.0], 5.0), [1.0, 0.0, 5.0])

    def test_nonpositive_depth_raises(self):
        with pytest.raises(InvalidDepthError):
            backproject(K, [10.0, 10.0], 0.0)

    @pytest.mark.parametrize("pixel", [[1.0], 1.0, [1.0, 2.0, 3.0]])
    def test_pixel_that_is_not_a_2_vector(self, pixel):
        with pytest.raises(DimensionError, match="2-vector"):
            backproject(K, pixel, 1.0)

    @given(
        u=st.floats(0, 127),
        v=st.floats(0, 95),
        d=st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_project_backproject_identity(self, u, v, d):
        p = project(K, backproject(K, [u, v], d))
        assert abs(p[0] - u) < 1e-10 and abs(p[1] - v) < 1e-10


# ---------------------------------------------------------------------------
# rotations


class TestRotation:
    def test_rodrigues_small_yaw(self):
        R = rotation_from_axis_angle([0.0, 0.01, 0.0])
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-14)

    @given(
        axis=st.tuples(*([st.floats(-1, 1)] * 3)).filter(lambda a: np.linalg.norm(a) > 1e-3),
        angle=st.floats(1e-6, np.pi - 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_exp_log_round_trip(self, axis, angle):
        w = np.asarray(axis) / np.linalg.norm(axis) * angle
        back = axis_angle_from_rotation(rotation_from_axis_angle(w))
        assert np.abs(back - w).max() < 1e-10

    def test_twist_round_trip(self):
        motion = RigidMotion(rotation_from_axis_angle([0.1, -0.2, 0.05]), [1.0, 2.0, -0.5])
        again = TwistParams.from_motion(motion).to_motion()
        assert np.abs(again.rotation - motion.rotation).max() < 1e-12
        np.testing.assert_allclose(again.translation, motion.translation)

    def test_motion_validation(self):
        with pytest.raises(ValueError):
            RigidMotion(np.eye(3) * 1.1, np.zeros(3))
        with pytest.raises(ValueError):
            RigidMotion(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # det = -1

    def test_motion_rejects_nan_rotation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RigidMotion(np.full((3, 3), np.nan), np.zeros(3))

    def test_inverse_composes_to_identity(self):
        m = RigidMotion(rotation_from_axis_angle([0.2, 0.1, -0.3]), [0.4, -0.2, 0.9])
        inv = m.inverse()
        pts = np.random.default_rng(0).normal(size=(10, 3))
        np.testing.assert_allclose(inv.apply(m.apply(pts)), pts, atol=1e-12)

    @pytest.mark.parametrize("shape", [(72, 96), (36, 48), (5, 7), (1, 1)])
    def test_stacked_apply_keeps_the_grid_product_bits(self, shape):
        # one (3, 3) x (3, N) product against the (H, W, 3) x (3, 3) product
        # and the broadcast translation the rigid flow was first written with
        rng = np.random.default_rng(sum(shape))
        m = RigidMotion(rotation_from_axis_angle(rng.normal(size=3)), rng.normal(size=3))
        points = rng.normal(size=shape + (3,)) * 4.0
        expected = points @ m.rotation.T + m.translation
        assert_bits_equal(np.moveaxis(m.apply_stacked(np.moveaxis(points, -1, 0)), 0, -1),
                          expected)
        assert_bits_equal(m.apply(points), expected)


# ---------------------------------------------------------------------------
# flow fields


class TestRigidFlow:
    def test_lateral_translation_example(self):
        # backproject((64,48), 5) = (0,0,5); +t -> (1,0,5); project -> (84,48)
        depth = DepthMap(np.full((96, 128), 5.0))
        motion = RigidMotion(np.eye(3), [1.0, 0.0, 0.0])
        flow = rigid_flow(K, motion, depth)
        np.testing.assert_allclose(flow.values[48, 64], [20.0, 0.0])
        assert flow.mask.all()

    def test_identity_motion_zero_flow(self):
        depth = DepthMap(np.random.default_rng(1).uniform(2, 9, (24, 32)))
        flow = rigid_flow(K, RigidMotion.identity(), depth)
        assert np.abs(flow.values).max() == 0.0

    def test_behind_camera_masked(self):
        depth = DepthMap(np.full((8, 8), 5.0))
        flow = rigid_flow(K, RigidMotion(np.eye(3), [0.0, 0.0, -6.0]), depth)
        assert not flow.mask.any()  # z' = 5 - 6 = -1 everywhere


class TestRotationalFlow:
    def test_identity_rotation(self):
        flow = rotational_flow(K, np.eye(3), 10, 12)
        assert np.abs(flow.values).max() == 0.0

    def test_rotation_that_is_not_orthonormal_raises(self):
        with pytest.raises(ValueError, match="orthonormal"):
            rotational_flow(K, np.diag([1.0, 1.0, 2.0]), 10, 12)

    @pytest.mark.parametrize("size, name", [((2.5, 3), "height"), ((3, True), "width")])
    def test_size_that_is_not_an_integer(self, size, name):
        with pytest.raises(DimensionError, match=f"^{name} must be an integer"):
            rotational_flow(K, np.eye(3), *size)

    def test_small_yaw_at_principal_point(self):
        # rotating the optical axis by theta moves the principal point by fx tan(theta)
        R = rotation_from_axis_angle([0.0, 0.01, 0.0])
        flow = rotational_flow(K, R, 96, 128)
        expected = 100.0 * np.tan(0.01)
        assert abs(abs(flow.values[48, 64, 0]) - expected) < 1e-9
        assert abs(flow.values[48, 64, 1]) < 1e-12

    def test_depth_cancellation(self):
        R = rotation_from_axis_angle([0.02, -0.03, 0.01])
        rot = rotational_flow(K, R, 20, 24)
        rng = np.random.default_rng(2)
        for seed in (0, 1):
            depth = DepthMap(rng.uniform(1, 50, (20, 24)))
            full = rigid_flow(K, RigidMotion(R, np.zeros(3)), depth)
            assert np.abs(full.values - rot.values).max() < 1e-12

    def test_rigid_flow_identity_rotation_zero_translation(self):
        depth = DepthMap(np.random.default_rng(3).uniform(1, 9, (10, 10)))
        flow = rigid_flow(K, RigidMotion.identity(), depth)
        assert np.abs(flow.values).max() == 0.0


class TestTranslationalFlow:
    def test_zero_rotational_part(self):
        f = FlowField(np.random.default_rng(0).normal(size=(5, 6, 2)))
        zero = FlowField(np.zeros((5, 6, 2)))
        np.testing.assert_array_equal(translational_flow(f, zero).values, f.values)

    def test_equal_fields_cancel(self):
        f = FlowField(np.random.default_rng(1).normal(size=(5, 6, 2)))
        assert np.abs(translational_flow(f, f).values).max() == 0.0

    def test_componentwise(self):
        a = FlowField(np.tile([3.0, 1.0], (4, 4, 1)))
        b = FlowField(np.tile([1.0, 1.0], (4, 4, 1)))
        np.testing.assert_allclose(translational_flow(a, b).values[2, 2], [2.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            translational_flow(FlowField(np.zeros((4, 4, 2))), FlowField(np.zeros((4, 5, 2))))


# ---------------------------------------------------------------------------
# stencils


def stencil_divergence(values, uu, vv):
    # direct transcription of the interior stencil for one pixel
    return (
        -values[vv, uu - 1, 0]
        + values[vv, uu + 1, 0]
        + values[vv + 1, uu, 1]
        - values[vv - 1, uu, 1]
    )


class TestDivergence:
    def test_identity_field_is_four(self):
        u, v = pixel_grid(9, 11)
        div = divergence(FlowField(np.stack([u, v], axis=-1)))
        np.testing.assert_allclose(div.values, 4.0)

    def test_constant_field_is_zero(self):
        div = divergence(FlowField(np.tile([2.5, -1.0], (7, 7, 1))))
        assert np.abs(div.values).max() == 0.0

    def test_quadratic_stencil_value(self):
        u, v = pixel_grid(9, 9)
        field = FlowField(np.stack([u**2, np.zeros_like(v)], axis=-1))
        # at u=3: -(2^2) + (4^2) = 12
        assert divergence(field).values[4, 3] == 12.0

    def test_matches_direct_stencil_on_random_field(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(8, 9, 2))
        div = divergence(FlowField(values))
        for uu, vv in [(1, 1), (4, 3), (7, 6)]:
            assert div.values[vv, uu] == pytest.approx(stencil_divergence(values, uu, vv), abs=1e-15)

    def test_affine_field_constant_divergence(self):
        u, v = pixel_grid(10, 12)
        field = FlowField(np.stack([2.0 * u + 0.5 * v + 1, -1.0 * u + 3.0 * v], axis=-1))
        div = divergence(field)
        # twice the analytic divergence 2 + 3 = 5
        np.testing.assert_allclose(div.values, 10.0)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(11)
        f = rng.normal(size=(6, 7, 2))
        g = rng.normal(size=(6, 7, 2))
        combined = divergence(FlowField(a * f + b * g)).values
        separate = a * divergence(FlowField(f)).values + b * divergence(FlowField(g)).values
        assert np.abs(combined - separate).max() < 1e-12

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_short_axis_is_a_dimension_error(self, length, axis):
        shape = (length, 5) if axis == 0 else (5, length)
        with pytest.raises(DimensionError, match="at least 3 samples"):
            _axis_diff(np.ones(shape), axis)

    def test_too_small_grid(self):
        with pytest.raises(DimensionError):
            divergence(FlowField(np.zeros((2, 5, 2))))

    def test_inf_at_masked_out_pixels(self):
        # inf v-flow at the masked-out (0, 0) and (2, 0): the stencil at the
        # valid (1, 0) reads inf - inf, a typed error and no RuntimeWarning
        values = np.zeros((5, 5, 2))
        values[[0, 2], 0, 1] = np.inf
        mask = np.ones((5, 5), bool)
        mask[[0, 2], 0] = False
        with pytest.raises(NonFiniteError):
            divergence(FlowField(values, mask))
        mask[:4, 0] = False  # the pixels whose stencils read an inf
        div = divergence(FlowField(values, mask))
        assert np.isfinite(div.values[mask]).all()

    def test_gradient_same_convention(self):
        u, _ = pixel_grid(5, 7)
        g = grid_gradient(u * u)
        assert g[2, 3, 0] == 12.0  # same central stencil as the divergence


# ---------------------------------------------------------------------------
# warping


class TestWarp:
    def test_zero_flow_identity(self):
        img = Image(np.random.default_rng(0).uniform(0, 1, (6, 8)))
        out, mask = warp(img, FlowField(np.zeros((6, 8, 2))))
        np.testing.assert_array_equal(out.values, img.values)
        assert mask.all()

    def test_integer_shift(self):
        img = Image(np.random.default_rng(1).uniform(0, 1, (5, 7)))
        out, mask = warp(img, FlowField(np.tile([1.0, 0.0], (5, 7, 1))))
        np.testing.assert_allclose(out.values[:, :-1], img.values[:, 1:], atol=1e-12)
        assert mask[:, :-1].all() and not mask[:, -1].any()

    def test_all_outside(self):
        img = Image(np.random.default_rng(2).uniform(0, 1, (5, 7)))
        out, mask = warp(img, FlowField(np.tile([100.0, 0.0], (5, 7, 1))))
        assert not mask.any()

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            warp(Image(np.zeros((5, 7))), FlowField(np.zeros((5, 6, 2))))

    def test_nan_flow_on_an_invalid_pixel_is_masked(self):
        img = Image(np.random.default_rng(3).uniform(0, 1, (5, 7)))
        values = np.tile([1.0, 0.0], (5, 7, 1))
        mask = np.ones((5, 7), bool)
        values[2, 3] = np.nan
        values[4, 0, 1] = np.nan
        mask[2, 3] = mask[4, 0] = False
        out, out_mask = warp(img, FlowField(values, mask))
        expected, _ = warp(img, FlowField(np.tile([1.0, 0.0], (5, 7, 1))))
        assert not out_mask[2, 3] and not out_mask[4, 0]
        assert out_mask.sum() == 5 * 6 - 2
        assert_bits_equal(out.values[mask], expected.values[mask])


# ---------------------------------------------------------------------------
# value-type invariants


class TestTypes:
    def test_depth_rejects_nonpositive_valid_pixels(self):
        with pytest.raises(InvalidDepthError):
            DepthMap(np.array([[1.0, -2.0], [3.0, 4.0]]))

    def test_depth_masked_nonpositive_ok(self):
        mask = np.array([[True, False], [True, True]])
        d = DepthMap(np.array([[1.0, -2.0], [3.0, 4.0]]), mask)
        assert d.mask.sum() == 3

    def test_depth_rejects_nonfinite(self):
        with pytest.raises(InvalidDepthError):
            DepthMap(np.array([[1.0, np.inf], [3.0, 4.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_flow_and_scalar_reject_nonfinite_valid_pixel(self, bad):
        flow = np.zeros((3, 4, 2))
        flow[1, 2, 1] = bad
        with pytest.raises(ValueError, match="^flow contains non-finite values on valid pixels$"):
            FlowField(flow)
        mask = np.ones((3, 4), bool)
        mask[0, 0] = False  # a masked pixel elsewhere does not excuse the valid one
        with pytest.raises(ValueError, match="^flow contains non-finite values on valid pixels$"):
            FlowField(flow, mask)
        field = np.zeros((3, 4))
        field[2, 3] = bad
        with pytest.raises(ValueError, match="^scalar field has non-finite valid values$"):
            ScalarField(field)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_flow_and_scalar_accept_nonfinite_masked_pixel(self, bad):
        mask = np.ones((3, 4), bool)
        mask[1, 2] = False
        flow = np.zeros((3, 4, 2))
        flow[1, 2] = bad
        kept = FlowField(flow, mask)
        assert kept.values is flow and kept.mask.sum() == 11
        field = np.zeros((3, 4))
        field[1, 2] = bad
        assert ScalarField(field, mask).mask.sum() == 11

    def test_image_range(self):
        with pytest.raises(ValueError):
            Image(np.array([[0.5, 1.2]]))
        with pytest.raises(DimensionError):
            Image(np.zeros((4, 4, 2)))

    def test_intrinsics_positive_focals(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1.0, fy=1.0, cx=0.0, cy=0.0)

    @pytest.mark.parametrize("field, bad", [("fx", np.inf), ("fy", np.inf), ("cx", -np.inf),
                                            ("cy", np.nan)])
    def test_intrinsics_must_be_finite(self, field, bad):
        values = {"fx": 100.0, "fy": 100.0, "cx": 64.0, "cy": 48.0, field: bad}
        with pytest.raises(ValueError, match="^camera intrinsics must be finite$"):
            CameraIntrinsics(**values)

    def test_intrinsics_matrix_inverse(self):
        np.testing.assert_allclose(K.matrix @ K.inverse_matrix, np.eye(3), atol=1e-14)
