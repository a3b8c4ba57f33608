"""Loss functionals: frozen examples, guard behavior, fixed points,
scale/permutation symmetries, and the differential-field identity."""

import numpy as np
import pytest
from composed import (
    composed_bsca,
    composed_cgdc,
    composed_depth_side,
    composed_dpc,
    composed_photometric,
    composed_smoothness,
    composed_ssim,
)
from conftest import assert_bits_equal, assert_twins_agree, reachable
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgeo import autodiff as ad
from flowgeo.errors import (
    DegenerateTranslationError,
    DimensionError,
    FlowGeoError,
    NoValidPixelsError,
)
from flowgeo.geometry import (
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    RigidMotion,
    ScalarField,
    divergence,
    rotational_flow,
    translational_flow,
)
from flowgeo.losses import (
    ALPHA_DEFAULT,
    EPS_DIV,
    EPS_DPC,
    EPS_FLOW,
    DepthMetrics,
    DifferentialFields,
    LossValue,
    bsca_core,
    bsca_loss,
    cgdc_core,
    cgdc_loss,
    depth_metrics,
    differential_fields,
    differential_depth_side,
    differential_fields_core,
    dpc_core,
    dpc_loss,
    edge_aware_smoothness,
    photometric_core,
    photometric_loss,
    reference_channels,
    smoothness_core,
    ssim,
)
from flowgeo.triangulate import TriangulationResult

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0)
RNG = np.random.default_rng(9)


def tri_result(depth_values, validity):
    return TriangulationResult(
        DepthMap(np.where(validity, depth_values, 1.0), validity),
        validity,
        np.where(validity, 0, 1).astype(np.uint8),
    )


class TestLossValue:
    @pytest.mark.parametrize("value, count, error, message", [
        (np.nan, 1, ValueError, "^loss value is not finite$"),
        (1.0, 0, NoValidPixelsError, "^a reported loss needs at least one valid pixel$"),
    ], ids=["nan", "no-pixels"])
    def test_rejects(self, value, count, error, message):
        with pytest.raises(error, match=message):
            LossValue(value, count)


class TestSsim:
    def test_self_similarity_is_one(self):
        img = Image(RNG.uniform(0, 1, (12, 14)))
        assert np.abs(ssim(img, img).values - 1.0).max() == 0.0

    def test_constant_pair_is_one(self):
        a = Image(np.full((8, 8), 0.5))
        np.testing.assert_allclose(ssim(a, a).values, 1.0)

    def test_inverted_pattern_below_one(self):
        vals = 0.5 + 0.4 * np.sin(np.arange(100).reshape(10, 10))
        s = ssim(Image(vals), Image(1.0 - vals))
        assert s.values.min() < 0.0  # anti-correlated windows
        assert s.values.max() < 1.0

    def test_bounded(self):
        a = Image(RNG.uniform(0, 1, (16, 16)))
        b = Image(RNG.uniform(0, 1, (16, 16)))
        s = ssim(a, b).values
        assert s.min() >= -1.0 - 1e-12 and s.max() <= 1.0 + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ssim(Image(np.zeros((4, 4))), Image(np.zeros((4, 5))))


class TestPhotometric:
    def test_fixed_point(self):
        img = Image(RNG.uniform(0, 1, (10, 12)))
        loss = photometric_loss(img, img)
        assert loss.value == 0.0
        assert loss.valid_pixel_count == 120

    def test_mask_of_another_shape(self):
        # it raised numpy's IndexError from the boolean index
        img = Image(np.full((2, 2), 0.5))
        with pytest.raises(DimensionError, match="mask shape"):
            photometric_loss(img, img, mask=np.ones((3, 3), bool))

    def test_pure_l1_branch(self):
        a = Image(np.full((6, 6), 0.2))
        b = Image(np.full((6, 6), 0.5))
        loss = photometric_loss(a, b, alpha=0.0)
        assert loss.value == pytest.approx(0.3, abs=1e-12)

    def test_default_alpha(self):
        import inspect

        sig = inspect.signature(photometric_loss)
        assert sig.parameters["alpha"].default == 0.85

    def test_channels_averaged(self):
        a = Image(np.full((6, 6, 3), 0.2))
        b_vals = np.full((6, 6, 3), 0.2)
        b_vals[..., 0] = 0.5  # only one channel differs
        loss = photometric_loss(a, Image(b_vals), alpha=0.0)
        assert loss.value == pytest.approx(0.1, abs=1e-12)

    def test_empty_mask_raises(self):
        img = Image(np.zeros((4, 4)))
        with pytest.raises(NoValidPixelsError):
            photometric_loss(img, img, mask=np.zeros((4, 4), bool))

    def test_alpha_range(self):
        img = Image(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            photometric_loss(img, img, alpha=1.5)


# -- the photometric node against its composed twin ----------------------------


def photometric_pair(shape, seed=5):
    """A reference, a warped image that ties it on a quarter of the
    entries (the |.| kink), and a mask that drops about a third."""
    rng = np.random.default_rng(seed)
    i_t = rng.uniform(0.0, 1.0, shape)
    i_w = np.clip(i_t + rng.normal(0.0, 0.2, shape), 0.0, 1.0)
    i_w.flat[::4] = i_t.flat[::4]
    mask = rng.uniform(size=shape[:2]) > 0.35
    mask[0, 0] = True
    return i_t, i_w, mask


def input_gradient(build, i_w):
    """(root value, the gradient that reaches the input, the leaf's).
    The input sits one identity node below the leaf, so its gradient is
    the raw sum of the contributions, -0.0 entries included."""
    leaf = ad.Var(i_w.copy())
    x = ad.add(leaf, 0.0)
    root = build(x)
    ad.backward(root)
    return root.value, x.grad, leaf.grad


SHAPES = [(6, 7), (6, 7, 3), (3, 3)]


class TestPhotometricNode:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("precomputed", [False, True])
    @pytest.mark.parametrize("scale", [1.0, -1.0])  # -1: masked pixels send -0.0 upstream
    @pytest.mark.parametrize("alpha", [ALPHA_DEFAULT, 0.3])
    def test_loss_and_gradient_bytes_match_composed(self, shape, precomputed, scale, alpha):
        i_t, i_w, mask = photometric_pair(shape)
        reference = reference_channels(i_t) if precomputed else None
        fused = input_gradient(
            lambda x: photometric_core(i_t, x, mask, alpha, reference) * scale, i_w)
        composed = input_gradient(
            lambda x: composed_photometric(i_t, x, mask, alpha, precomputed=precomputed) * scale,
            i_w)
        for actual, expected in zip(fused, composed):
            assert_bits_equal(actual, expected)

    @pytest.mark.parametrize("shape", [(6, 7), (3, 3), (6, 7, 3)])
    def test_node_matches_composed_under_signed_zero_upstream(self, shape):
        # an upstream -0.0 meets the node's sign flips and doubled products
        i_t, i_w, mask = photometric_pair(shape, seed=11)
        fused = input_gradient(lambda x: ad.mul(photometric_core(i_t, x, mask), -0.0), i_w)
        composed = input_gradient(lambda x: ad.mul(composed_photometric(i_t, x, mask), -0.0), i_w)
        for actual, expected in zip(fused, composed):
            assert_bits_equal(actual, expected)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ssim_wrapper_matches_composed(self, shape):
        a, b, _ = photometric_pair(shape, seed=8)
        if len(shape) == 2:
            expected = composed_ssim(ad.as_var(a), ad.as_var(b)).value
        else:
            expected = np.mean([composed_ssim(ad.as_var(a[..., c]), ad.as_var(b[..., c])).value
                                for c in range(shape[2])], axis=0)
        assert_bits_equal(ssim(Image(a), Image(b)).values, expected)

    def test_one_node_per_term(self):
        i_t, i_w, mask = photometric_pair((6, 7, 3))
        root = photometric_core(i_t, ad.Var(i_w), mask)
        # the leaf and the node; the composed graph took 3 channel picks, 3
        # channel pairs of 28 nodes, 2 sums, the mean and the masked mean
        assert len(reachable(root)) == 2

    @pytest.mark.parametrize("shape", [(5, 6), (4, 5, 3)])
    def test_gradient_matches_central_differences(self, shape):
        rng = np.random.default_rng(21)
        i_t = rng.uniform(0.0, 1.0, shape)
        i_w = np.clip(i_t + rng.normal(0.0, 0.2, shape), 0.05, 0.95)
        mask = rng.uniform(size=shape[:2]) > 0.3
        leaf = ad.Var(i_w.copy())
        ad.backward(photometric_core(i_t, leaf, mask))
        numeric = np.zeros(shape)
        h = 1e-6
        for idx in np.ndindex(*shape):
            plus, minus = i_w.copy(), i_w.copy()
            plus[idx] += h
            minus[idx] -= h
            numeric[idx] = (photometric_core(i_t, plus, mask).value
                            - photometric_core(i_t, minus, mask).value) / (2 * h)
        assert np.abs(leaf.grad - numeric).max() < 1e-7
        assert np.abs(numeric).max() > 1e-3


# -- the other loss-term nodes against their composed twins ---------------------

# an upstream of 1, one that sends -0.0 from masked pixels, and a -0.0 upstream
SCALES = [1.0, -1.0, -0.0]
TERM_SHAPES = [(6, 7), (3, 3)]


def partial_mask(shape, seed):
    mask = np.random.default_rng(seed).uniform(size=shape) > 0.3
    mask.flat[0] = True
    return mask


def cgdc_inputs(shape):
    """Depths whose difference ties at some pixels (the |.| kink) and whose
    guard max(D_c, EPS_DIV) ties or clamps at others (the max kink)."""
    rng = np.random.default_rng(4)
    d_c = rng.uniform(1.0, 3.0, shape)
    d_g = d_c * rng.uniform(0.8, 1.2, shape)
    d_g.flat[::3] = d_c.flat[::3]
    d_c.flat[1] = EPS_DIV
    d_c.flat[-1] = 0.5 * EPS_DIV
    return {"d_g": d_g, "d_c": d_c}


class TestCgdcNode:
    @pytest.mark.parametrize("shape", TERM_SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    # depth only (the optimizer, and build_loss with stop_gradient_geo);
    # both depths (build_loss)
    @pytest.mark.parametrize("active", [("d_c",), ("d_g", "d_c")])
    def test_matches_composed(self, shape, scale, active):
        mask = partial_mask(shape, 1)
        assert_twins_agree(lambda d_g, d_c: ad.mul(cgdc_core(d_g, d_c, mask), scale),
                           lambda d_g, d_c: ad.mul(composed_cgdc(d_g, d_c, mask), scale),
                           cgdc_inputs(shape), active)

    def test_one_node_linking_the_depth_twice(self):
        d_g, d_c = (ad.Var(v) for v in cgdc_inputs((6, 7)).values())
        root = cgdc_core(d_g, d_c, partial_mask((6, 7), 1))
        assert [parent for parent, _ in root._parents] == [d_c, d_g, d_c]


def dpc_inputs(shape):
    """Depth-side inputs with t3 = 1 and a flat depth patch where div_f = 2:
    there c_d = 0 (the |c_d| kink) and c_f = (3 - 1) * 2 - 4 = 0 as well
    (the |c_d - c_f| kink)."""
    rng = np.random.default_rng(6)
    d = rng.uniform(2.0, 4.0, shape)
    d[:3, :3] = 3.0
    div_f = rng.normal(size=shape)
    div_f[1, 1] = 2.0
    return {"t3": 1.0, "d": d, "q_u": rng.normal(size=shape), "q_v": rng.normal(size=shape),
            "div_f": div_f}


def dpc_node(mask, scale):
    return lambda t3, d, q_u, q_v, div_f: ad.mul(
        dpc_core(differential_depth_side(t3, d, q_u, q_v, div_f), mask), scale)


def dpc_twin(mask, scale):
    return lambda t3, d, q_u, q_v, div_f: ad.mul(
        composed_dpc(composed_depth_side(t3, d, q_u, q_v, div_f), mask), scale)


class TestDpcNode:
    @pytest.mark.parametrize("shape", TERM_SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    # depth only (the optimizer); depth, pose and flow (build_loss)
    @pytest.mark.parametrize("active", [("d",), ("t3", "d", "q_u", "q_v", "div_f")])
    def test_matches_composed(self, shape, scale, active):
        inputs = dpc_inputs(shape)
        side = differential_depth_side(*inputs.values())
        assert side.c_d[1, 1] == 0.0 and side.c_f[1, 1] == 0.0
        mask = side.validity & partial_mask(shape, 2)
        mask[1, 1] = True
        assert_twins_agree(dpc_node(mask, scale), dpc_twin(mask, scale), inputs, active)

    def test_values_match_composed(self):
        inputs = dpc_inputs((6, 7))
        side = differential_depth_side(*inputs.values())
        twin = composed_depth_side(*inputs.values())
        for actual, expected in zip((side.c_f, side.c_d, side.validity),
                                    (twin.c_f, twin.c_d, twin.validity)):
            assert_bits_equal(actual, expected)

    def test_links_in_composed_order(self):
        t3, d, q_u, q_v, div_f = (ad.Var(v) for v in dpc_inputs((6, 7)).values())
        side = differential_depth_side(t3, d, q_u, q_v, div_f)
        root = dpc_core(side, side.validity)
        assert [parent for parent, _ in root._parents] == [q_v, q_u, d, d, div_f, t3, d, t3]


def bsca_inputs(shape):
    """Flows that tie at some pixels (the gap kinks) and an optical flow
    with zero components at others (the |F_o| kinks)."""
    rng = np.random.default_rng(8)
    f_o = rng.normal(size=shape + (2,))
    f_r = f_o + rng.normal(scale=0.3, size=shape + (2,))
    f_r.reshape(-1, 2)[::3, 0] = f_o.reshape(-1, 2)[::3, 0]
    f_r.reshape(-1, 2)[1::4, 1] = f_o.reshape(-1, 2)[1::4, 1]
    f_o.reshape(-1, 2)[2::5] = 0.0
    return {"r_u": f_r[..., 0], "r_v": f_r[..., 1], "o_u": f_o[..., 0], "o_v": f_o[..., 1]}


class TestBscaNode:
    @pytest.mark.parametrize("shape", TERM_SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    # the optical flow (co-adjust's flow step); both flows (build_loss)
    @pytest.mark.parametrize("active", [("o_u", "o_v"), ("r_u", "r_v", "o_u", "o_v")])
    def test_matches_composed(self, shape, scale, active):
        mask = partial_mask(shape, 3)

        def scaled(term):
            return lambda r_u, r_v, o_u, o_v: ad.mul(term(r_u, r_v, o_u, o_v, mask), scale)

        assert_twins_agree(scaled(bsca_core), scaled(composed_bsca), bsca_inputs(shape), active)


class TestCgdc:
    def test_fixed_point(self):
        d = DepthMap(RNG.uniform(1, 9, (8, 8)))
        result = tri_result(d.values.copy(), np.ones((8, 8), bool))
        assert cgdc_loss(result, d).value == 0.0

    def test_single_pixel_values(self):
        validity = np.zeros((4, 4), bool)
        validity[1, 2] = True
        result = tri_result(np.full((4, 4), 2.0), validity)
        loss = cgdc_loss(result, DepthMap(np.full((4, 4), 1.0)))
        assert loss.value == pytest.approx(1.0) and loss.valid_pixel_count == 1
        # asymmetry: |1 - 2| / 2 = 0.5
        result2 = tri_result(np.full((4, 4), 1.0), validity)
        loss2 = cgdc_loss(result2, DepthMap(np.full((4, 4), 2.0)))
        assert loss2.value == pytest.approx(0.5)

    def test_joint_scaling_invariance(self):
        d = RNG.uniform(1, 9, (8, 8))
        g = d * RNG.uniform(0.8, 1.2, (8, 8))
        validity = np.ones((8, 8), bool)
        base = cgdc_loss(tri_result(g, validity), DepthMap(d)).value
        for s in (0.3, 2.0, 41.5):
            scaled = cgdc_loss(tri_result(s * g, validity), DepthMap(s * d)).value
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_empty_validity(self):
        result = tri_result(np.ones((4, 4)), np.zeros((4, 4), bool))
        with pytest.raises(NoValidPixelsError):
            cgdc_loss(result, DepthMap(np.ones((4, 4))))

    def test_depth_of_another_shape(self):
        result = tri_result(np.ones((4, 4)), np.ones((4, 4), bool))
        with pytest.raises(DimensionError, match="shapes do not match"):
            cgdc_loss(result, DepthMap(np.ones((4, 5))))

    @pytest.mark.parametrize("dtype", [int, float])
    def test_validity_of_another_dtype(self, dtype):
        # an int validity indexed rows of the depth for the guard fraction,
        # and a float one made the mask's & raise TypeError
        validity = np.array([[1, 0], [0, 1]], dtype=dtype)
        result = TriangulationResult(DepthMap(np.full((2, 2), 2.0)), validity,
                                     np.zeros((2, 2), np.uint8))
        loss = cgdc_loss(result, DepthMap(np.array([[1e-9, 1.0], [1.0, 1.0]])))
        assert loss.valid_pixel_count == 2 and loss.guard_fraction == 0.5

    def test_validity_of_another_shape(self):
        result = TriangulationResult(DepthMap(np.ones((2, 2))), np.ones((3, 3), bool),
                                     np.zeros((2, 2), np.uint8))
        with pytest.raises(DimensionError, match="shapes do not match"):
            cgdc_loss(result, DepthMap(np.ones((2, 2))))


class TestDifferentialFields:
    def test_inf_flow_at_masked_out_pixels(self):
        # the stencils subtract inf from inf at the border pixel between two
        # masked-out corners, which raised a RuntimeWarning under
        # warnings-as-errors; the one interior pixel reads neither corner
        values = np.zeros((3, 3, 2))
        mask = np.ones((3, 3), bool)
        values[0, 0] = values[2, 0] = np.inf
        mask[0, 0] = mask[2, 0] = False
        fields = differential_fields(CameraIntrinsics(100.0, 100.0, 1.5, 1.5),
                                     RigidMotion(np.eye(3), [0.31, 0.02, 0.42]),
                                     DepthMap(np.full((3, 3), 3.0)), FlowField(values, mask))
        assert fields.validity.sum() == 1 and np.isfinite(fields.c_f.values[1, 1])

    def test_masked_out_flow_reaches_no_valid_pixel(self):
        # a masked-out v-flow of 50 at (0, 2) moved c_f at the valid (1, 2),
        # whose stencil reads it, from -4.0 to -329.0; (1, 2) is no longer
        # valid, and the valid pixels read the same fields as with a 0 there
        camera = CameraIntrinsics(10.0, 10.0, 2.0, 2.0)
        ego = RigidMotion(np.eye(3), [0.1, 0.05, 0.4])
        mask = np.ones((5, 5), bool)
        mask[0, 2] = False
        values = np.zeros((5, 5, 2))
        clean = differential_fields(camera, ego, DepthMap(np.full((5, 5), 3.0)),
                                    FlowField(values, mask))
        values[0, 2, 1] = 50.0
        fields = differential_fields(camera, ego, DepthMap(np.full((5, 5), 3.0)),
                                     FlowField(values, mask))
        assert not fields.validity[1, 2] and fields.validity[1, 1]
        np.testing.assert_array_equal(fields.validity, clean.validity)
        assert_bits_equal(fields.c_f.values[fields.validity], clean.c_f.values[clean.validity])

    def test_depth_and_flow_of_other_shapes(self):
        with pytest.raises(DimensionError, match="^depth and flow shapes do not match$"):
            differential_fields(K, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]),
                                DepthMap(np.ones((5, 6))), FlowField(np.zeros((6, 5, 2))))

    def test_inf_flow_on_a_one_high_grid(self):
        values = np.zeros((1, 4, 2))
        values[0, ::2] = np.inf
        flow = FlowField(values, np.array([[False, True, False, True]]))
        with pytest.raises(DimensionError, match="at least 3 samples"):
            differential_fields(CameraIntrinsics(100.0, 100.0, 2.0, 0.5),
                                RigidMotion(np.eye(3), [0.31, 0.02, 0.42]),
                                DepthMap(np.full((1, 4), 3.0)), flow)

    def test_q_offset_example(self):
        # t = (1, 0, 5): K-scaled offset (100*0.2, 0) = (20, 0); at p=(80,48): q = (16,0)-(20,0)
        d = DepthMap(np.full((96, 128), 7.0))
        f = FlowField(np.zeros((96, 128, 2)))
        fields = differential_fields(K, RigidMotion(np.eye(3), [1.0, 0.0, 5.0]), d, f)
        np.testing.assert_allclose(fields.q[48, 80], [-4.0, 0.0])

    def test_flat_scene_both_sides_zero(self):
        # fronto-plane: F_tra = (t3/(D - t3)) q makes C^F = 0; flat depth makes C^D = 0
        H, W = 48, 64
        Kc = CameraIntrinsics(100.0, 100.0, W / 2, H / 2)
        d = DepthMap(np.full((H, W), 5.0))
        ego = RigidMotion(np.eye(3), [0.0, 0.0, 1.0])
        from flowgeo.geometry import pixel_grid

        u, v = pixel_grid(H, W)
        q = np.stack([u - Kc.cx, v - Kc.cy], axis=-1)
        f_tra = FlowField((1.0 / (5.0 - 1.0)) * q)
        fields = differential_fields(Kc, ego, d, f_tra)
        assert np.abs(fields.c_d.values[fields.validity]).max() < 1e-12
        assert np.abs(fields.c_f.values[fields.validity]).max() < 1e-12

    def test_affine_identity_with_analytic_gradient(self, affine_bundle):
        b = affine_bundle
        rot = rotational_flow(b.camera, b.motion.rotation, *b.shape)
        f_tra = translational_flow(b.flow_gt, rot)
        fields = differential_fields(
            b.camera, b.ego_motion, b.depth_gt, f_tra,
            depth_gradient=b.analytic_depth_gradient,
        )
        gap = np.abs(fields.c_f.values - fields.c_d.values)
        assert gap[fields.validity].max() < 1e-10
        # closed form: both sides equal 2 q.(b, c) / g
        from flowgeo.geometry import pixel_grid

        u, v = pixel_grid(*b.shape)
        g = b.spec.a + b.spec.b * u + b.spec.c * v
        closed = 2.0 * (fields.q[..., 0] * b.spec.b + fields.q[..., 1] * b.spec.c) / g
        assert np.abs(fields.c_f.values - closed)[fields.validity].max() < 1e-10

    def test_degenerate_forward_translation(self):
        d = DepthMap(np.full((8, 8), 5.0))
        f = FlowField(np.zeros((8, 8, 2)))
        with pytest.raises(DegenerateTranslationError):
            differential_fields(K, RigidMotion(np.eye(3), [0.5, 0.0, 0.0]), d, f)

    @pytest.mark.parametrize("shape", [(1, 5), (2, 5), (5, 1), (5, 2)])
    def test_short_grid_is_a_dimension_error(self, shape):
        # both the numpy wrapper and the tape core reach the stencil
        d, f = np.full(shape, 5.0), np.zeros(shape + (2,))
        short_axis = 0 if shape[0] < 3 else 1
        with pytest.raises(DimensionError, match="at least 3 samples"):
            differential_fields(K, RigidMotion(np.eye(3), [0.0, 0.0, 1.0]), DepthMap(d), FlowField(f))
        with pytest.raises(DimensionError, match="at least 3 samples"):
            differential_fields_core(K, (0.0, 0.0, 1.0), ad.Var(d), ad.Var(f[..., 0]), ad.Var(f[..., 1]))
        with pytest.raises(DimensionError, match="at least 3 samples"):
            ad.axis_diff(ad.Var(d), axis=short_axis)

    def test_validity_excludes_border_and_geo_degenerate(self):
        H, W = 10, 12
        vals = np.full((H, W), 5.0)
        vals[4, 4] = 1.0  # equals t3 -> |D - t3| = 0 masked
        d = DepthMap(vals)
        f = FlowField(np.zeros((H, W, 2)))
        fields = differential_fields(K, RigidMotion(np.eye(3), [0.0, 0.0, 1.0]), d, f)
        assert not fields.validity[0, :].any() and not fields.validity[:, -1].any()
        assert not fields.validity[4, 4]
        assert fields.validity[2, 2]


class TestDpc:
    def field_pair(self, c_d, c_f):
        validity = np.zeros((3, 3), bool)
        validity[1, 1] = True
        from flowgeo.geometry import ScalarField

        return DifferentialFields(
            ScalarField(np.full((3, 3), c_f), validity),
            ScalarField(np.full((3, 3), c_d), validity),
            np.zeros((3, 3, 2)),
            validity,
        )

    def test_fixed_point(self):
        fields = self.field_pair(0.7, 0.7)
        assert dpc_loss(fields).value == 0.0

    def test_single_pixel_value(self):
        fields = self.field_pair(2.0, 1.0)
        assert dpc_loss(fields).value == pytest.approx(1.0 / (2.0 + EPS_DPC))

    def test_guard_band(self):
        fields = self.field_pair(0.0, 0.01)
        loss = dpc_loss(fields)
        assert loss.value == pytest.approx(0.01 / EPS_DPC)  # == 100
        assert loss.guard_fraction == 1.0

    def test_scene_fixed_point(self, affine_bundle):
        b = affine_bundle
        rot = rotational_flow(b.camera, b.motion.rotation, *b.shape)
        f_tra = translational_flow(b.flow_gt, rot)
        fields = differential_fields(
            b.camera, b.ego_motion, b.depth_gt, f_tra,
            depth_gradient=b.analytic_depth_gradient,
        )
        assert dpc_loss(fields).value < 1e-8


class TestBsca:
    def one_pixel(self, fr, fo):
        return (
            FlowField(np.tile(np.asarray(fr, float), (1, 1, 1))),
            FlowField(np.tile(np.asarray(fo, float), (1, 1, 1))),
        )

    def test_fixed_point(self):
        f = FlowField(RNG.normal(size=(6, 6, 2)))
        assert bsca_loss(f, FlowField(f.values.copy())).value == 0.0

    def test_single_pixel_value(self):
        f_r, f_o = self.one_pixel([2.0, 0.0], [1.0, 0.0])
        assert bsca_loss(f_r, f_o).value == pytest.approx(1.0 / (1.0 + EPS_FLOW))

    def test_guard_band(self):
        f_r, f_o = self.one_pixel([0.5, 0.0], [0.0, 0.0])
        loss = bsca_loss(f_r, f_o)
        assert loss.value == pytest.approx(0.5 / EPS_FLOW)  # == 500
        assert loss.guard_fraction == 1.0

    def test_scaling_with_zero_guard_is_exact(self):
        values = RNG.normal(size=(6, 6, 2)) + 3.0
        other = values + RNG.normal(scale=0.1, size=(6, 6, 2))
        base = bsca_loss(FlowField(values), FlowField(other)).value
        scaled = bsca_loss(FlowField(4.0 * values), FlowField(4.0 * other)).value
        # eps_flow perturbs the denominator slightly; equal when it is negligible
        assert scaled == pytest.approx(base, rel=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            bsca_loss(FlowField(np.zeros((4, 4, 2))), FlowField(np.zeros((5, 4, 2))))


def smoothness_inputs(depth, image):
    """A depth with a constant patch (the |.| kink of both differences) and
    a tie along a row, against a fixed image."""
    d = np.array(depth, dtype=float)
    d[:2, :2] = d[0, 0]
    d[-1, 1:] = d[-1, 0]
    return {"d": d, "image_values": image}


class TestSmoothnessNode:
    @pytest.mark.parametrize("where", ["affine", "rotating", "2x2", "3-channel"])
    # a seed other than +-1 rounds each product of the vjp, so their order shows
    @pytest.mark.parametrize("scale", SCALES + [0.3])
    def test_matches_composed(self, affine_bundle, small_bundle, where, scale):
        if where in ("affine", "rotating"):
            bundle = affine_bundle if where == "affine" else small_bundle
            inputs = smoothness_inputs(bundle.depth_gt.values, bundle.image_t.values)
        elif where == "2x2":
            inputs = smoothness_inputs([[2.0, 3.0], [4.0, 5.0]], RNG.uniform(0, 1, (2, 2)))
        else:
            inputs = smoothness_inputs(RNG.uniform(1, 3, (5, 6)), RNG.uniform(0, 1, (5, 6, 3)))
        assert_twins_agree(lambda d, image_values: ad.mul(smoothness_core(d, image_values), scale),
                           lambda d, image_values: ad.mul(composed_smoothness(d, image_values),
                                                          scale),
                           inputs, ("d",))

    def test_one_node_linking_the_depth(self):
        d = ad.Var(RNG.uniform(1, 3, (5, 6)))
        before = ad._counter
        root = smoothness_core(d, RNG.uniform(0, 1, (5, 6)))
        assert ad._counter - before == 1
        assert {parent for parent, _ in root._parents} == {d}
        assert reachable(root) == [d, root]


class TestSmoothness:
    def test_constant_depth_zero(self):
        d = DepthMap(np.full((8, 8), 3.0))
        img = Image(RNG.uniform(0, 1, (8, 8)))
        assert edge_aware_smoothness(d, img).value == 0.0

    def test_linear_depth_flat_image(self):
        u = np.tile(np.arange(8.0), (6, 1))
        d = DepthMap(4.0 + 0.1 * u)
        img = Image(np.full((6, 8), 0.5))
        loss = edge_aware_smoothness(d, img)
        mean_d = d.values.mean()
        expected = np.abs(np.diff(d.values / mean_d, axis=1)).mean()
        assert loss.value == pytest.approx(expected, rel=1e-12)

    def test_image_edge_discounts_depth_edge(self):
        step = np.zeros((8, 8))
        step[:, 4:] = 1.0
        d = DepthMap(3.0 + step)
        flat = Image(np.full((8, 8), 0.5))
        edged = Image(np.clip(0.2 + 0.6 * step, 0, 1))
        assert (
            edge_aware_smoothness(d, edged).value < edge_aware_smoothness(d, flat).value
        )

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_one_wide_or_one_high_grid(self, shape):
        # a forward difference along a 1-long axis is empty, and its mean is NaN
        with pytest.raises(DimensionError, match="at least a 2x2 grid"):
            edge_aware_smoothness(DepthMap(np.full(shape, 3.0)), Image(np.full(shape, 0.5)))


class TestDepthMetrics:
    def test_far_off_prediction_overflows_quietly(self):
        # the squared error overflows; the suite turns warnings into errors
        m = depth_metrics(DepthMap(np.full((2, 2), 1e200)), DepthMap(np.full((2, 2), 1.0)))
        assert m.rmse == m.sq_rel == np.inf
        assert m.delta1 == 0.0

    def test_perfect_prediction(self):
        d = DepthMap(RNG.uniform(1, 9, (8, 8)))
        m = depth_metrics(d, DepthMap(d.values.copy()))
        assert m.abs_rel == 0.0 and m.rmse == 0.0
        assert m.delta1 == m.delta2 == m.delta3 == 1.0

    def test_uniform_scaling_closed_forms(self):
        gt = DepthMap(RNG.uniform(2, 8, (10, 10)))
        m = depth_metrics(DepthMap(1.2 * gt.values), gt)
        assert m.abs_rel == pytest.approx(0.2, rel=1e-12)
        assert m.delta1 == 1.0  # 1.2 < 1.25

    def test_factor_two_thresholds(self):
        gt = DepthMap(RNG.uniform(2, 8, (10, 10)))
        m = depth_metrics(DepthMap(2.0 * gt.values), gt)
        # 2 > 1.25, 2 > 1.5625, 2 > 1.953125
        assert m.delta1 == 0.0 and m.delta2 == 0.0 and m.delta3 == 0.0
        assert m.abs_rel == pytest.approx(1.0, rel=1e-12)
        assert m.rmse_log == pytest.approx(np.log(2.0), rel=1e-12)

    def test_empty_mask(self):
        d = DepthMap(np.ones((4, 4)))
        with pytest.raises(NoValidPixelsError):
            depth_metrics(d, d, mask=np.zeros((4, 4), bool))

    def test_depths_of_other_shapes(self):
        with pytest.raises(DimensionError, match="^depth shapes do not match$"):
            depth_metrics(DepthMap(np.ones((4, 4))), DepthMap(np.ones((4, 5))))

    @pytest.mark.parametrize("shape", [(4, 5), (1, 4), (4,)])
    def test_mask_of_another_shape(self, shape):
        # (1, 4) and (4,) broadcast against the grid: still not its mask
        d = DepthMap(np.ones((4, 4)))
        with pytest.raises(DimensionError, match="mask shape"):
            depth_metrics(d, d, mask=np.ones(shape, bool))


class TestPermutationInvariance:
    def test_losses_are_means(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(1, 9, (8, 8))
        g = d * rng.uniform(0.8, 1.2, (8, 8))
        perm = rng.permutation(64)
        validity = np.ones((8, 8), bool)
        base = cgdc_loss(tri_result(g, validity), DepthMap(d)).value
        permuted = cgdc_loss(
            tri_result(g.ravel()[perm].reshape(8, 8), validity),
            DepthMap(d.ravel()[perm].reshape(8, 8)),
        ).value
        assert permuted == pytest.approx(base, rel=1e-12)

        fr = rng.normal(size=(8, 8, 2))
        fo = fr + rng.normal(scale=0.2, size=(8, 8, 2))
        base_b = bsca_loss(FlowField(fr), FlowField(fo)).value
        perm_b = bsca_loss(
            FlowField(fr.reshape(64, 2)[perm].reshape(8, 8, 2)),
            FlowField(fo.reshape(64, 2)[perm].reshape(8, 8, 2)),
        ).value
        assert perm_b == pytest.approx(base_b, rel=1e-12)


# -- edge inputs of the public wrappers ------------------------------------------

EDGE_GRIDS = [(1, 4), (4, 1), (2, 2), (3, 3)]
# per kind of grid: float, int and bool values
EDGE_VALUES = {
    "depth": (st.floats(0.1, 10.0), st.integers(0, 9), st.booleans()),
    "image": (st.floats(0.0, 1.0), st.integers(0, 1), st.booleans()),
    "flow": (st.floats(-3.0, 3.0), st.integers(-3, 3), st.booleans()),
    "mask": (st.booleans(), st.integers(0, 1), st.booleans()),
}


def edge_grid(draw, shape, kind):
    """A grid of `kind` on `shape`, or now and then on another of the edge
    grids; in one of float, int and bool dtypes."""
    if draw(st.integers(0, 5)) == 0:
        shape = draw(st.sampled_from(EDGE_GRIDS))
    if kind == "flow":
        shape = shape + (2,)
    dtype = draw(st.sampled_from([0, 1, 2]))
    cells = draw(st.lists(EDGE_VALUES[kind][dtype], min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    return np.array(cells, dtype=(float, int, bool)[dtype]).reshape(shape)


def masked_field(draw, shape, kind):
    """(values, mask) for a depth or a flow: NaN or inf at some masked-out
    pixels, which the typed fields accept there."""
    values, mask = edge_grid(draw, shape, kind), edge_grid(draw, shape, "mask")
    if values.shape[:2] == mask.shape and not mask.all() and draw(st.booleans()):
        values = values.astype(float)
        values[~mask.astype(bool)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values, mask


def edge_call(draw, name):
    """Call the wrapper `name` on edge inputs drawn on one of EDGE_GRIDS."""
    shape = draw(st.sampled_from(EDGE_GRIDS))

    def grid(kind):
        return edge_grid(draw, shape, kind)

    def field(kind):
        return masked_field(draw, shape, kind)

    def depth():
        return DepthMap(*field("depth"))

    def flow():
        return FlowField(*field("flow"))

    def maybe_mask():
        return grid("mask") if draw(st.booleans()) else None

    if name == "photometric_loss":
        alpha = draw(st.sampled_from([0.0, ALPHA_DEFAULT, 1.0, 1.5]))
        return photometric_loss(Image(grid("image")), Image(grid("image")), maybe_mask(), alpha)
    if name == "cgdc_loss":
        d_g = depth()
        tri = TriangulationResult(d_g, grid("mask"), np.zeros(d_g.shape, np.uint8))
        return cgdc_loss(tri, depth())
    if name == "dpc_loss":
        t3 = draw(st.sampled_from([0.42, -0.5, 1e-9, 0.0]))
        camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=shape[1] / 2, cy=shape[0] / 2)
        motion = RigidMotion(np.eye(3), [0.31, 0.02, t3])
        return dpc_loss(differential_fields(camera, motion, depth(), flow()))
    if name == "bsca_loss":
        return bsca_loss(flow(), flow())
    if name == "edge_aware_smoothness":
        return edge_aware_smoothness(depth(), Image(grid("image")))
    if name == "depth_metrics":
        return depth_metrics(depth(), depth(), maybe_mask())
    return ssim(Image(grid("image")), Image(grid("image")))


def result_floats(result):
    """The floats a wrapper returns."""
    if isinstance(result, LossValue):
        return [result.value, result.guard_fraction]
    if isinstance(result, DepthMetrics):
        return list(result.as_dict().values())
    assert isinstance(result, ScalarField)
    return list(result.values.ravel())


MASKED_OUT = st.sampled_from([np.nan, np.inf, -np.inf, 1e150, -1e150])


class TestMaskedOutValues:
    """C^F, C^D and the flow divergence at valid pixels do not depend on
    what the masked-out pixels hold: a pixel whose stencils read a
    masked-out flow (C^F, the divergence) or depth (C^D) is not valid."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_valid_pixels_ignore_masked_out_values(self, data):
        H, W = data.draw(st.integers(3, 7)), data.draw(st.integers(3, 7))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        flow_mask = rng.random((H, W)) < data.draw(st.floats(0.5, 1.0))
        depth_mask = rng.random((H, W)) < data.draw(st.floats(0.5, 1.0))
        flow = rng.uniform(-2.0, 2.0, (H, W, 2))
        depth = rng.uniform(1.0, 5.0, (H, W))
        odd_flow, odd_depth = flow.copy(), depth.copy()
        odd_flow[~flow_mask] = data.draw(MASKED_OUT)
        # a depth map is finite everywhere, and positive only where valid
        odd_depth[~depth_mask] = data.draw(st.sampled_from([1e150, -1e150, 0.0]))
        camera = CameraIntrinsics(10.0, 10.0, W / 2, H / 2)
        ego = RigidMotion(np.eye(3), [0.1, 0.05, 0.4])

        def fields(f, d):
            return differential_fields(camera, ego, DepthMap(d, depth_mask),
                                       FlowField(f, flow_mask))

        clean, odd = fields(flow, depth), fields(odd_flow, odd_depth)
        valid = clean.validity
        np.testing.assert_array_equal(odd.validity, valid)
        assert_bits_equal(odd.c_f.values[valid], clean.c_f.values[valid])
        assert_bits_equal(odd.c_d.values[valid], clean.c_d.values[valid])
        div = divergence(FlowField(flow, flow_mask))
        odd_div = divergence(FlowField(odd_flow, flow_mask))
        np.testing.assert_array_equal(odd_div.mask, div.mask)
        assert_bits_equal(odd_div.values[div.mask], div.values[div.mask])


class TestWrapperEdges:
    """The public loss wrappers on the edges of their inputs: 1xN, Nx1,
    2x2 and 3x3 grids, mismatched shapes, int and bool dtypes, NaN or inf
    at masked-out pixels. Each call returns finite floats or raises a typed
    error; building the typed inputs is part of the call."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_finite_or_typed_error(self, data):
        name = data.draw(st.sampled_from(["photometric_loss", "cgdc_loss", "dpc_loss",
                                          "bsca_loss", "edge_aware_smoothness",
                                          "depth_metrics", "ssim"]))
        try:
            result = edge_call(data.draw, name)
        except (FlowGeoError, ValueError):
            return
        assert np.isfinite(result_floats(result)).all()

    @pytest.mark.parametrize("shape", [(5, 7), (5, 7, 3), (6, 7, 2), (7, 5, 2)])
    def test_depth_gradient_that_is_not_hw2(self, shape):
        camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=3.5, cy=2.5)
        motion = RigidMotion(np.eye(3), [0.31, 0.02, 0.42])
        depth, flow = DepthMap(np.full((5, 7), 2.0)), FlowField(np.zeros((5, 7, 2)))
        with pytest.raises(DimensionError, match=r"^depth_gradient must have shape \(H, W, 2\)"):
            differential_fields(camera, motion, depth, flow, np.zeros(shape))
