"""Field optimization: fixed-point stability, determinism, scale link,
divergence handling, and the co-adjustment reduction on static scenes."""

import platform

import numpy as np
import pytest
from composed import TWINS
from conftest import run_python

from flowgeo import autodiff as ad
from flowgeo import cli, optim
from flowgeo.errors import AbortedRunError, InvalidDepthError
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


    def test_programming_error_propagates(self, small_static, monkeypatch):
        def broken(bundle, config):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(optim, "recover_depth", broken)
        configs = [("wc=1", OptimConfig(w_c=1.0, w_d=0.0, iterations=5, seed=1))]
        with pytest.raises(TypeError, match="unsupported operand"):
            ablation_suite([("scene", small_static)], configs)


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
        # warp, cgdc and dpc terms were composed of elementary nodes
        ego = RigidMotion(np.eye(3), README_T)
        bundle = synthesize(README_SPEC, CameraIntrinsics(100.0, 100.0, 48.0, 36.0), ego, 72, 96)
        config = OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, iterations=300, seed=1)
        objective = optim._DepthObjective(bundle, config)
        theta = optim._initial_theta(bundle, config, np.random.default_rng(1))
        it = objective.dpc_active_after
        assert objective.weights(it)["dpc"] > 0
        before = ad._counter
        optim._depth_step(objective, theta, it, config)
        assert ad._counter - before <= 14

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
        # backward pass: both against the bytes recorded before the plan
        assert first["photometric"] == float.fromhex("0x1.2a7579696194ep-3")
        assert trace.records[1].losses == {
            "cgdc": float.fromhex("0x1.4bf6121f88eb1p-2"),
            "dpc": float.fromhex("0x1.02226059e0a33p+0"),
            "photometric": float.fromhex("0x1.2968c56236b93p-3"),
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
        assert first["dpc"] == float.fromhex("0x1.0019e989b8397p+0")
        assert trace.records[1].losses == {
            "cgdc": float.fromhex("0x1.3d9266b1c8bbbp-2"),
            "dpc": float.fromhex("0x1.f9effcf8ff6c1p-1"),
        }

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


class TestComposedTwinRuns:
    """Whole runs on the loss nodes and on their composed twins,
    substituted at the module attributes the optimizer calls, write the
    same bytes."""

    SCENE = ("family=affine-inverse-shift\na=0.21\nb=0.0013\nc=0.0009\n"
             "ego_rotation=0.011,-0.017,0.013\nego_translation=0.31,0.02,0.42\n")
    # 12 iterations: the dpc term joins at 5 and the flow at 1
    RUNS = {
        "recover-depth": ("--weights", "1,1,0.1,0"),
        "co-adjust": ("--weights", "1,1,0.1,1"),
        "ablate": ("--weights", "1,1,0.1,0"),
    }

    def outputs(self, tmp_path, command, tag):
        scene = tmp_path / "scene.txt"
        scene.write_text(self.SCENE)
        out = tmp_path / tag
        argv = [command, "--scene", str(scene), "--size", "24x18", *self.RUNS[command],
                "--iters", "12", "--seed", "3", "--out", str(out)]
        assert cli.run(argv) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "run-manifest.txt"}

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_trace_bytes_match_composed(self, tmp_path, monkeypatch, capsys, command):
        fused = self.outputs(tmp_path, command, "fused")
        calls = {}
        for name, twin in TWINS.items():
            def counted(*args, twin=twin, name=name, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return twin(*args, **kwargs)

            monkeypatch.setattr(optim, name, counted)
        composed = self.outputs(tmp_path, command, "composed")
        assert composed == fused
        expected = {"cgdc_core", "differential_depth_side", "dpc_core", "photometric_core",
                    "warp_graph"} | ({"bsca_core"} if command == "co-adjust" else set())
        assert set(calls) == expected


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
