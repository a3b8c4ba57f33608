"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Tolerances are pinned here, not deferred.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np

from conftest import random_scene
from flowgeo.cli import run as cli_run
from flowgeo.errors import FormatError
from flowgeo.geometry import (
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    RigidMotion,
    rigid_flow,
    rotation_from_axis_angle,
    rotational_flow,
    translational_flow,
)
from flowgeo.grad import LossInputs, finite_difference_check
from flowgeo.io_formats import (
    read_depth_pfm,
    read_flow,
    read_image_pnm,
    write_depth_pfm,
    write_flow,
    write_image_pnm,
)
from flowgeo.losses import (
    bsca_loss,
    cgdc_loss,
    depth_metrics,
    differential_fields,
    dpc_loss,
    edge_aware_smoothness,
    photometric_loss,
)
from flowgeo.optim import OptimConfig, co_adjust, recover_depth
from flowgeo.scene import SceneSpec, TextureSpec, synthesize
from flowgeo.triangulate import triangulate_depth


def report(number, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {title}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {title} ({detail})"


class TestCriterion1:
    def test_triangulation_round_trip(self):
        worst_rel, worst_validity, worst_time = 0.0, 1.0, 0.0
        for seed in range(5):
            bundle = random_scene(100 + seed, height=72, width=96,
                                  max_angle_deg=5.0, t_range=(0.1, 1.0))
            started = time.perf_counter()
            result = triangulate_depth(bundle.camera, bundle.motion, bundle.flow_gt)
            elapsed = time.perf_counter() - started
            rel = np.abs(result.depth_g.values / bundle.depth_gt.values - 1.0)
            worst_rel = max(worst_rel, float(rel[result.validity].max()))
            worst_validity = min(worst_validity, float(result.validity[1:-1, 1:-1].mean()))
            worst_time = max(worst_time, elapsed)
        report(
            1, "triangulation round-trip on 5 random scenes",
            worst_rel < 1e-6 and worst_validity >= 0.99 and worst_time < 1.0,
            f"max rel {worst_rel:.2e}, interior validity {worst_validity:.4f}, "
            f"slowest {worst_time * 1e3:.0f} ms",
        )


class TestCriterion2:
    def test_rotational_flow_depth_invariance(self):
        K = CameraIntrinsics(100.0, 98.0, 48.0, 36.0)
        R = rotation_from_axis_angle([0.02, -0.035, 0.015])
        rot = rotational_flow(K, R, 72, 96)
        rng = np.random.default_rng(0)
        gaps = []
        for _ in range(2):
            depth = DepthMap(rng.uniform(0.5, 40.0, (72, 96)))
            full = rigid_flow(K, RigidMotion(R, np.zeros(3)), depth)
            gaps.append(float(np.abs(full.values - rot.values).max()))
        report(
            2, "rotational flow is depth-invariant and matches zero-translation rigid flow",
            max(gaps) <= 1e-12, f"max abs difference {max(gaps):.2e}",
        )


class TestCriterion3:
    def test_dpc_identity(self, affine_bundle):
        b = affine_bundle
        rot = rotational_flow(b.camera, b.motion.rotation, *b.shape)
        f_tra = translational_flow(b.flow_gt, rot)
        fields = differential_fields(
            b.camera, b.ego_motion, b.depth_gt, f_tra,
            depth_gradient=b.analytic_depth_gradient,
        )
        gap = float(np.abs(fields.c_f.values - fields.c_d.values)[fields.validity].max())
        loss = dpc_loss(fields).value

        flat_spec = SceneSpec("fronto-plane", depth=5.0)
        ego = RigidMotion(np.eye(3), [0.0, 0.0, 1.0])
        flat = synthesize(flat_spec, b.camera, ego, 48, 64)
        rot_f = rotational_flow(flat.camera, flat.motion.rotation, *flat.shape)
        f_tra_flat = translational_flow(flat.flow_gt, rot_f)
        flat_fields = differential_fields(
            flat.camera, flat.ego_motion, flat.depth_gt, f_tra_flat,
            depth_gradient=flat.analytic_depth_gradient,
        )
        flat_max = max(
            float(np.abs(flat_fields.c_f.values[flat_fields.validity]).max()),
            float(np.abs(flat_fields.c_d.values[flat_fields.validity]).max()),
        )
        report(
            3, "flow-divergence / depth-gradient identity",
            gap < 1e-8 and loss < 1e-8 and flat_max <= 1e-12,
            f"affine max gap {gap:.2e}, loss {loss:.2e}, flat fields {flat_max:.2e}",
        )


class TestCriterion4:
    def test_gradients_match_central_differences(self, small_bundle):
        rng = np.random.default_rng(7)
        depth = DepthMap(small_bundle.depth_gt.values * rng.uniform(0.7, 1.4, small_bundle.shape))
        inputs = LossInputs.from_bundle(small_bundle, depth=depth)
        started = time.perf_counter()
        results = {}
        for loss_id in ("photometric", "cgdc", "dpc", "bsca"):
            rep = finite_difference_check(
                loss_id, inputs, targets=("depth", "twist"),
                step=1e-6, tolerance=1e-5, seed=3,
            )
            results[loss_id] = rep
        elapsed = time.perf_counter() - started
        worst = max(r.max_rel_error for r in results.values())
        report(
            4, "analytic gradients match central differences (depth and pose)",
            all(r.passed for r in results.values()) and elapsed < 30.0,
            f"worst rel error {worst:.2e}, total {elapsed:.1f} s",
        )


class TestCriterion5:
    def test_depth_recovery_and_photometric_control(self, camera):
        spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
        ego = RigidMotion(np.eye(3), [0.23, 0.11, 0.52])
        bundle = synthesize(spec, camera, ego, 72, 96)
        config = OptimConfig(
            w_p=0.0, w_c=1.0, w_d=0.1, w_b=0.0,
            iterations=2000, seed=11, init="random-scale", record_every=500,
        )
        started = time.perf_counter()
        trace = recover_depth(bundle, config)
        elapsed = time.perf_counter() - started
        abs_rel = trace.final_metrics.abs_rel

        flat_texture = TextureSpec(amplitudes=(), frequencies_u=(), frequencies_v=(), phases=())
        bare = synthesize(
            SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3, texture=flat_texture),
            camera, ego, 72, 96,
        )
        control_config = OptimConfig(
            w_p=1.0, w_c=0.0, w_d=0.0, w_b=0.0,
            iterations=300, seed=11, init="random-scale", record_every=100,
        )
        control = recover_depth(bare, control_config)
        control_abs_rel = control.final_metrics.abs_rel
        report(
            5, "depth recovery from correspondence priors; photometric-only control stalls",
            abs_rel < 0.01 and elapsed < 60.0 and control_abs_rel > 0.1,
            f"abs_rel {abs_rel:.4f} in {elapsed:.1f} s; texture-free photometric control "
            f"stalls at {control_abs_rel:.3f}",
        )


class TestCriterion6:
    def test_co_adjustment_on_dynamic_patch(self, dynamic_bundle):
        config = OptimConfig(
            w_p=0.0, w_c=1.0, w_d=0.1, w_b=1.0,
            iterations=4000, learning_rate=12.0, flow_learning_rate=250.0,
            dpc_warmup_fraction=0.9, seed=11, record_every=400,
        )
        trace = co_adjust(dynamic_bundle, config)
        gap0 = trace.records[0].extras["patch_flow_gap"]
        gap_final = trace.records[-1].extras["patch_flow_gap"]
        dynamic_abs_rel = trace.records[-1].extras["dynamic_abs_rel"]

        control_config = OptimConfig(
            w_p=0.0, w_c=1.0, w_d=0.1, w_b=0.0,
            iterations=1500, seed=11, allow_dynamic=True, record_every=500,
        )
        control = recover_depth(dynamic_bundle, control_config)
        control_dynamic = depth_metrics(
            control.final_depth, dynamic_bundle.depth_gt, dynamic_bundle.dynamic_mask
        ).abs_rel
        control_static = depth_metrics(
            control.final_depth, dynamic_bundle.depth_gt, dynamic_bundle.static_mask
        ).abs_rel
        report(
            6, "co-adjustment pulls patch flow to quasi-rigid and improves patch depth",
            gap_final <= 0.5 * gap0
            and dynamic_abs_rel < control_dynamic
            and control_dynamic > 2.0 * control_static,
            f"patch gap {gap0:.2f} -> {gap_final:.3f} px; patch abs_rel {dynamic_abs_rel:.3f} "
            f"vs control {control_dynamic:.3f} (control static {control_static:.4f})",
        )


class TestCriterion7:
    def test_fixed_points_and_symmetries(self, affine_bundle):
        rng = np.random.default_rng(17)
        checks = []

        img = Image(rng.uniform(0, 1, (12, 14)))
        checks.append(photometric_loss(img, img).value == 0.0)

        tri = triangulate_depth(affine_bundle.camera, affine_bundle.motion, affine_bundle.flow_gt)
        d_match = DepthMap(np.where(tri.validity, tri.depth_g.values, 1.0), tri.validity)
        checks.append(cgdc_loss(tri, d_match).value == 0.0)

        rot = rotational_flow(affine_bundle.camera, affine_bundle.motion.rotation, *affine_bundle.shape)
        f_tra = translational_flow(affine_bundle.flow_gt, rot)
        fields = differential_fields(
            affine_bundle.camera, affine_bundle.ego_motion, affine_bundle.depth_gt, f_tra,
            depth_gradient=affine_bundle.analytic_depth_gradient,
        )
        checks.append(dpc_loss(fields).value < 1e-8)

        flow = FlowField(rng.normal(size=(10, 12, 2)))
        checks.append(bsca_loss(flow, FlowField(flow.values.copy())).value == 0.0)

        checks.append(
            edge_aware_smoothness(DepthMap(np.full((9, 9), 4.0)), Image(rng.uniform(0, 1, (9, 9)))).value
            == 0.0
        )

        # CGDC joint positive scaling
        d = rng.uniform(1, 9, (8, 8))
        g = d * rng.uniform(0.8, 1.2, (8, 8))
        from flowgeo.triangulate import TriangulationResult

        def as_result(values):
            v = np.ones((8, 8), bool)
            return TriangulationResult(DepthMap(values, v), v, np.zeros((8, 8), np.uint8))

        base = cgdc_loss(as_result(g), DepthMap(d)).value
        scaled = cgdc_loss(as_result(5.0 * g), DepthMap(5.0 * d)).value
        checks.append(abs(scaled - base) <= 1e-15 * max(1.0, base))

        # permutation invariance
        perm = rng.permutation(64)
        permuted = cgdc_loss(
            as_result(g.ravel()[perm].reshape(8, 8)), DepthMap(d.ravel()[perm].reshape(8, 8))
        ).value
        checks.append(abs(permuted - base) < 1e-12)

        # metric closed forms under uniform scaling
        gt = DepthMap(rng.uniform(2, 8, (10, 10)))
        for s in (1.1, 1.2, 1.7):
            m = depth_metrics(DepthMap(s * gt.values), gt)
            checks.append(abs(m.abs_rel - (s - 1.0)) < 1e-12)
        m12 = depth_metrics(DepthMap(1.2 * gt.values), gt)
        checks.append(m12.delta1 == 1.0)
        m20 = depth_metrics(DepthMap(2.0 * gt.values), gt)
        checks.append(m20.delta1 == 0.0 and m20.delta2 == 0.0 and m20.delta3 == 0.0)

        report(7, "loss fixed points, scaling and permutation symmetries, metric closed forms",
               all(checks), f"{sum(checks)}/{len(checks)} checks")


class TestCriterion8:
    def test_io_round_trips_and_typed_errors(self, tmp_path):
        rng = np.random.default_rng(3)
        checks = []

        flow_values = rng.normal(scale=9.0, size=(7, 6, 2))
        write_flow(tmp_path / "f.flo", FlowField(flow_values))
        back = read_flow(tmp_path / "f.flo")
        checks.append(
            np.array_equal(back.values, flow_values.astype("<f4").astype(np.float64))
        )

        depth_values = rng.uniform(1, 9, (5, 8))
        write_depth_pfm(tmp_path / "d.pfm", DepthMap(depth_values))
        checks.append(
            np.array_equal(
                read_depth_pfm(tmp_path / "d.pfm").values,
                depth_values.astype("<f4").astype(np.float64),
            )
        )

        image_values = rng.uniform(0, 1, (5, 8))
        write_image_pnm(tmp_path / "i.pgm", Image(image_values))
        first = read_image_pnm(tmp_path / "i.pgm")
        write_image_pnm(tmp_path / "i2.pgm", first)
        checks.append(np.array_equal(read_image_pnm(tmp_path / "i2.pgm").values, first.values))

        # malformed inputs raise FormatError, never crash
        (tmp_path / "bad.flo").write_bytes(b"XIEH" + b"\x00" * 16)
        (tmp_path / "bad.pfm").write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")
        (tmp_path / "bad.pgm").write_bytes(b"P5\n2 2\n255\n\x00\x00\x00\x00")
        for name, reader in (
            ("bad.flo", read_flow), ("bad.pfm", read_depth_pfm), ("bad.pgm", read_image_pnm)
        ):
            try:
                reader(tmp_path / name)
                checks.append(False)
            except FormatError:
                checks.append(True)

        report(8, "writer/reader round-trips are bitwise; malformed inputs raise typed errors",
               all(checks), f"{sum(checks)}/{len(checks)} checks")


class TestCriterion9:
    def test_cli_determinism_across_worker_counts(self, tmp_path, monkeypatch):
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "family=affine-inverse-shift\na=0.21\nb=0.0013\nc=0.0009\n"
            "fx=100.0\nfy=98.0\ncx=48.0\ncy=36.0\n"
            "ego_rotation=0,0,0\nego_translation=0.31,0.02,0.42\n"
        )
        blobs = []
        for tag, threads in (("a", "1"), ("b", "8")):
            monkeypatch.setenv("DCPI_THREADS", threads)
            out = tmp_path / tag
            code = cli_run([
                "recover-depth", "--scene", str(scene), "--size", "32x24",
                "--weights", "0,1,0.1,0", "--iters", "150", "--seed", "4",
                "--out", str(out),
            ])
            assert code == 0
            code = cli_run([
                "ablate", "--scene", str(scene), "--size", "24x18",
                "--weights", "1,1,0.1,0", "--iters", "40", "--seed", "2",
                "--out", str(out),
            ])
            assert code == 0
            blobs.append(
                (out / "recover-trace.csv").read_bytes() + (out / "ablation.csv").read_bytes()
            )
        report(9, "CLI CSV outputs are byte-identical for a fixed seed across worker counts",
               blobs[0] == blobs[1], f"{len(blobs[0])} bytes compared")
