"""Scene oracle: analytic depth/flow/derivative consistency and the
photometric construction, plus the flat scene-file format."""

import numpy as np
import pytest
from conftest import scene_file_texts
from hypothesis import given, settings

from flowgeo.errors import DimensionError, FlowGeoError, InvalidSceneError
from flowgeo.geometry import (
    CameraIntrinsics,
    RigidMotion,
    divergence,
    interior_mask,
    rigid_flow,
    rotation_from_axis_angle,
    warp,
)
from flowgeo.scene import (
    SCENE_KEYS,
    DynamicObjectSpec,
    EgoMotionKeys,
    SceneSpec,
    TextureSpec,
    analytic_depth_gradient,
    read_scene_file,
    read_scene_keys,
    synthesize,
    write_scene_file,
)

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=64.0, cy=48.0)


class TestDepthFamilies:
    def test_fronto_plane_zero_motion(self):
        spec = SceneSpec("fronto-plane", depth=5.0)
        bundle = synthesize(spec, K, RigidMotion.identity(), 24, 32)
        assert (bundle.depth_gt.values == 5.0).all()
        assert np.abs(bundle.flow_gt.values).max() == 0.0
        assert np.abs(bundle.analytic_flow_divergence.values).max() == 0.0

    def test_affine_constant_depth_value(self):
        # 1/(D - t3) = a with a = 0.2, t3 = 1 -> D = 1/0.2 + 1 = 6
        spec = SceneSpec("affine-inverse-shift", a=0.2, b=0.0, c=0.0)
        ego = RigidMotion(np.eye(3), [0.0, 0.0, 1.0])
        bundle = synthesize(spec, K, ego, 24, 32)
        np.testing.assert_allclose(bundle.depth_gt.values, 6.0)

    def test_affine_discrete_divergence_matches_twice_analytic(self):
        spec = SceneSpec("affine-inverse-shift", a=0.2, b=1e-3, c=0.0)
        ego = RigidMotion(np.eye(3), [0.0, 0.0, 1.0])
        bundle = synthesize(spec, K, ego, 72, 96)
        disc = divergence(bundle.flow_gt).values
        twice_analytic = 2.0 * bundle.analytic_flow_divergence.values
        inner = interior_mask(72, 96)
        assert np.abs(disc - twice_analytic)[inner].max() < 1e-10

    def test_positivity_validation(self):
        with pytest.raises(InvalidSceneError):
            # g = a + b u goes negative across a 96-wide grid
            synthesize(
                SceneSpec("affine-inverse-shift", a=0.05, b=-1e-3, c=0.0),
                K, RigidMotion(np.eye(3), [0, 0, 1.0]), 72, 96,
            )
        with pytest.raises(InvalidSceneError):
            synthesize(
                SceneSpec("fronto-plane", depth=-2.0), K, RigidMotion.identity(), 8, 8
            )

    # a float or bool size raised a bare TypeError from inside the rendering
    @pytest.mark.parametrize("height, width, name", [
        (2.5, 5, "height"), (True, 5, "height"), (5.0, 5, "height"),
        (5, 2.5, "width"), (5, False, "width"),
    ])
    def test_non_integer_size_names_its_argument(self, height, width, name):
        spec = SceneSpec("fronto-plane", depth=5.0)
        with pytest.raises(DimensionError, match=f"^{name} must be an integer, got "):
            synthesize(spec, K, RigidMotion(np.eye(3), [0, 0, 0.5]), height, width)

    def test_numpy_integer_sizes_are_sizes(self):
        spec = SceneSpec("fronto-plane", depth=5.0)
        ego = RigidMotion(np.eye(3), [0, 0, 0.5])
        bundle = synthesize(spec, K, ego, np.int64(6), np.int32(8))
        assert bundle.shape == (6, 8)
        np.testing.assert_array_equal(bundle.depth_gt.values,
                                      synthesize(spec, K, ego, 6, 8).depth_gt.values)

    @pytest.mark.parametrize("height, width", [(0, 5), (-1, 5), (5, 0)])
    def test_empty_or_negative_size_does_not_render(self, height, width):
        with pytest.raises(InvalidSceneError, match="does not render"):
            synthesize(SceneSpec("fronto-plane", depth=5.0), K,
                       RigidMotion(np.eye(3), [0, 0, 0.5]), height, width)

    def test_unknown_family(self):
        with pytest.raises(InvalidSceneError):
            SceneSpec("mystery")


class TestAnalyticGradient:
    def test_fronto_plane_zero(self):
        g = analytic_depth_gradient(SceneSpec("fronto-plane"), np.array([10.0, 20.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_affine_closed_form(self):
        spec = SceneSpec("affine-inverse-shift", a=0.2, b=1e-3, c=2e-3)
        u, v = 30.0, 40.0
        g = analytic_depth_gradient(spec, np.array([u, v]))
        denom = (0.2 + 1e-3 * u + 2e-3 * v) ** 2
        np.testing.assert_allclose(g, [-1e-3 / denom, -2e-3 / denom])

    def test_step_edge_flat_away_from_edge(self):
        spec = SceneSpec("step-edge", depth=4.0, depth_far=7.0, edge_u=20.0)
        g = analytic_depth_gradient(spec, np.array([5.0, 5.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0])

    def test_gradient_matches_finite_difference_on_smooth_families(self):
        for spec in (
            SceneSpec("affine-inverse-shift", a=0.25, b=8e-4, c=-5e-4),
            SceneSpec("sphere-bump", depth=6.0, bump_center=(40.0, 30.0),
                      bump_radius=18.0, bump_amplitude=-1.2),
        ):
            h = 1e-6
            for (uu, vv) in [(30.0, 25.0), (45.0, 33.0)]:
                g = analytic_depth_gradient(spec, np.array([uu, vv]))

                def d(u_, v_):
                    # evaluate the family formula at continuous coordinates
                    if spec.family == "affine-inverse-shift":
                        return 0.5 + 1.0 / (spec.a + spec.b * u_ + spec.c * v_)
                    cu, cv = spec.bump_center
                    s = ((u_ - cu) ** 2 + (v_ - cv) ** 2) / spec.bump_radius**2
                    bump = spec.bump_amplitude * (1 - s) ** 2 if s < 1 else 0.0
                    return spec.depth + bump

                fd_u = (d(uu + h, vv) - d(uu - h, vv)) / (2 * h)
                fd_v = (d(uu, vv + h) - d(uu, vv - h)) / (2 * h)
                np.testing.assert_allclose(g, [fd_u, fd_v], atol=1e-8)


class TestBundleInvariants:
    def test_static_flow_consistency(self, affine_bundle):
        regenerated = rigid_flow(
            affine_bundle.camera, affine_bundle.motion, affine_bundle.depth_gt
        )
        gap = np.abs(affine_bundle.flow_gt.values - regenerated.values)
        assert gap[affine_bundle.static_mask].max() < 1e-9

    def test_photometric_consistency(self, affine_bundle):
        warped, mask = warp(affine_bundle.image_s, affine_bundle.flow_gt)
        err = np.abs(warped.values - affine_bundle.image_t.values)
        valid = mask & affine_bundle.static_mask
        assert err[valid].mean() < 1e-3

    def test_ego_motion_is_inverse_of_warp_motion(self, affine_bundle):
        composed = affine_bundle.motion.apply(
            affine_bundle.ego_motion.apply(np.array([0.3, -0.2, 4.0]))
        )
        np.testing.assert_allclose(composed, [0.3, -0.2, 4.0], atol=1e-12)

    def test_dynamic_pixels_depart_from_rigid_flow(self, dynamic_bundle):
        rigid = rigid_flow(dynamic_bundle.camera, dynamic_bundle.motion, dynamic_bundle.depth_gt)
        gap = np.abs(dynamic_bundle.flow_gt.values - rigid.values).sum(axis=-1)
        frac = (gap[dynamic_bundle.dynamic_mask] > 0.5).mean()
        assert frac >= 0.9

    def test_dynamic_photometric_consistency(self, dynamic_bundle):
        # the moving patch is still perfectly tracked by flow_gt
        warped, mask = warp(dynamic_bundle.image_s, dynamic_bundle.flow_gt)
        err = np.abs(warped.values - dynamic_bundle.image_t.values)
        assert err[mask].mean() < 1e-3

    def test_dynamic_region_must_stay_interior(self):
        dyn = DynamicObjectSpec(center=(2.0, 2.0), half_size=(5.0, 5.0))
        spec = SceneSpec("fronto-plane", dynamic=dyn)
        with pytest.raises(InvalidSceneError):
            synthesize(spec, K, RigidMotion(np.eye(3), [0, 0, 0.5]), 24, 32)

    @pytest.mark.parametrize("height, width", [(12, 16), (24, 32)])
    def test_lone_dynamic_shape_fits_small_grids(self, tmp_path, height, width):
        path = tmp_path / "scene.txt"
        path.write_text("family=fronto-plane\ndynamic_shape=rect\n")
        spec, _, _ = read_scene_file(path)
        camera = CameraIntrinsics(100.0, 100.0, width / 2.0, height / 2.0)
        bundle = synthesize(spec, camera, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), height, width)
        assert bundle.dynamic_mask.any()

    def test_grid_derived_region_at_96x72(self):
        # the region the fixed defaults (48, 36) and (12, 9) gave before
        assert DynamicObjectSpec().sized(72, 96) == DynamicObjectSpec(
            center=(48.0, 36.0), half_size=(12.0, 9.0))
        given = DynamicObjectSpec(center=(30.0, 26.0))
        assert given.sized(12, 16) == DynamicObjectSpec(center=(30.0, 26.0), half_size=(2.0, 1.5))


class TestTexture:
    def test_range_validation(self):
        with pytest.raises(InvalidSceneError):
            TextureSpec(base=0.9, amplitudes=(0.2,), frequencies_u=(0.1,),
                        frequencies_v=(0.1,), phases=(0.0,))

    def test_textureless_is_constant(self):
        t = TextureSpec(amplitudes=(), frequencies_u=(), frequencies_v=(), phases=())
        vals = t.sample(np.arange(5.0), np.arange(5.0))
        np.testing.assert_array_equal(vals, 0.5)


class TestSceneFile:
    def test_round_trip(self, tmp_path):
        spec = SceneSpec(
            "affine-inverse-shift", a=0.22, b=1.5e-3, c=-0.5e-3, depth=4.5, depth_far=7.5,
            edge_u=30.0, bump_center=(40.5, 29.25), bump_radius=15.0, bump_amplitude=-0.8,
            texture=TextureSpec(0.45, (0.2, 0.1), (0.31, -0.07), (0.05, 0.23), (0.7, 1.9)),
            dynamic=DynamicObjectSpec("ellipse", (40.0, 30.0), (8.0, 6.0), (0.1, 0.0, -0.05)),
        )
        camera = CameraIntrinsics(fx=101.5, fy=97.25, cx=47.5, cy=35.75)
        ego = EgoMotionKeys((0.2, -0.1, 0.4), (0.011, -0.017, 0.013))
        path = tmp_path / "scene.txt"
        write_scene_file(path, spec, camera, ego)
        assert [line.partition("=")[0] for line in path.read_text().splitlines()] == list(SCENE_KEYS)
        spec2, cam2, ego2 = read_scene_keys(path)
        assert spec2 == spec
        assert spec2.texture == spec.texture and spec2.dynamic == spec.dynamic
        assert cam2 == camera
        assert ego2 == ego
        _, _, motion = read_scene_file(path)
        np.testing.assert_array_equal(motion.translation, ego.motion.translation)
        np.testing.assert_array_equal(motion.rotation, rotation_from_axis_angle(ego.rotation))
        again = tmp_path / "again.txt"
        write_scene_file(again, spec2, cam2, ego2)
        assert again.read_bytes() == path.read_bytes()

    def test_missing_family_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a=0.2\n")
        with pytest.raises(InvalidSceneError):
            read_scene_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("family=fronto-plane\nnonsense line\n")
        with pytest.raises(InvalidSceneError):
            read_scene_file(path)

    @pytest.mark.parametrize("line, key", [
        ("c=abc", "c"),
        ("ego_translation=1,2", "ego_translation"),
        ("ego_rotation=0,0,nan\nego_translation=0.3,0,0.4", "ego_rotation"),
        ("fx=-1\nfy=100\ncx=8\ncy=6", "fx"),
        ("dynamic_translation=0,0.2,0\ndynamic_center=30", "dynamic_center"),
        ("ego_rotation=1e200,0,0\nego_translation=0.3,0,0.4", "ego_rotation"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, line, key):
        path = tmp_path / "bad.txt"
        path.write_text(f"family=affine-inverse-shift\na=0.2\n{line}\n")
        with pytest.raises(InvalidSceneError, match=key):
            read_scene_file(path)

    @pytest.mark.parametrize("lines, cause", [
        ("ego_translaton=0.5,0,0.4", "scene key ego_translaton is unknown"),
        ("a=0.3", "scene key a is set twice"),
        ("fx=150", "missing fy, cx, cy"),
        ("ego_rotation=0.01,0,0", "missing ego_translation"),
    ])
    def test_wrong_or_partial_keys_rejected(self, tmp_path, lines, cause):
        path = tmp_path / "bad.txt"
        path.write_text(f"family=affine-inverse-shift\na=0.2\n{lines}\n")
        with pytest.raises(InvalidSceneError, match=cause):
            read_scene_file(path)

    def test_any_dynamic_key_declares_the_object(self, tmp_path):
        path = tmp_path / "scene.txt"
        path.write_text("family=fronto-plane\ndynamic_center=30,26\n")
        spec, camera, ego = read_scene_file(path)
        assert spec.dynamic == DynamicObjectSpec(center=(30.0, 26.0))
        assert camera is None and ego is None

    @given(text=scene_file_texts())
    @settings(max_examples=300, deadline=None)
    def test_random_scene_files_synthesize_or_raise_typed(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("scene") / "scene.txt"
        path.write_text(text)
        try:
            spec, camera, ego = read_scene_file(path)
            synthesize(spec, camera or CameraIntrinsics(100.0, 100.0, 8.0, 6.0),
                       ego or RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), 12, 16)
        except FlowGeoError:
            pass
