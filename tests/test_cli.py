"""Command-line contract: artifacts, exit codes, announcements, and
byte-identical CSV output under a fixed seed."""

import io
import math
import platform
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from conftest import EMPTY_FLOW_SCENE, run_python, scene_file_texts
from hypothesis import given, settings
from hypothesis import strategies as st

from flowgeo import cli
from flowgeo.cli import run
from flowgeo.io_formats import read_csv, read_depth_pfm, read_flow
from flowgeo.optim import OptimConfig
from flowgeo.scene import FAMILIES, read_scene_keys


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "affine.txt"
    path.write_text(
        "family=affine-inverse-shift\n"
        "a=0.21\nb=0.0013\nc=0.0009\n"
        "fx=100.0\nfy=98.0\ncx=48.0\ncy=36.0\n"
        "ego_rotation=0,0,0\n"
        "ego_translation=0.31,0.02,0.42\n"
    )
    return path


def stderr_lines_of(argv):
    """(exit code, stderr lines) of one run; a warning would reach stderr
    as lines of its own, so each counts as one."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
            redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv)
    return code, len(err.getvalue().splitlines()) + len(caught)


class TestGenScene:
    def test_artifacts_and_announcements(self, scene_file, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["gen-scene", "--scene", str(scene_file), "--size", "48x36", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.startswith("wrote ") for line in lines)
        for name in ("depth.pfm", "flow.flo", "image_t.pnm", "image_s.pnm", "run-manifest.txt"):
            assert (out / name).exists(), name
        depth = read_depth_pfm(out / "depth.pfm")
        flow = read_flow(out / "flow.flo")
        assert depth.shape == (36, 48) and flow.shape == (36, 48)

    def test_out_directory_created(self, scene_file, tmp_path):
        out = tmp_path / "deep" / "nested" / "dir"
        assert run(["gen-scene", "--scene", str(scene_file), "--out", str(out)]) == 0
        assert out.is_dir()


class TestCheckDpc:
    def test_identity_holds(self, scene_file, tmp_path):
        out = tmp_path / "o"
        code = run(["check-dpc", "--scene", str(scene_file), "--size", "96x72", "--out", str(out)])
        assert code == 0
        row = read_csv(out / "check_dpc.csv")[0]
        assert float(row["max_abs_cf_minus_cd_analytic"]) < 1e-8
        assert float(row["dpc_loss_analytic"]) < 1e-8


class TestUsageErrors:
    def test_all_zero_weights(self, scene_file, tmp_path, capsys):
        code = run([
            "recover-depth", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
            "--weights", "0,0,0,0",
        ])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, scene_file, tmp_path, capsys):
        code = run(["gen-scene", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
                    "--frobnicate", "1"])
        assert code == 2

    def test_bad_size(self, scene_file, tmp_path):
        code = run(["gen-scene", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
                    "--size", "banana"])
        assert code == 2

    @pytest.mark.parametrize("weights", ["inf,1,0,0", "0,1,0,nan"])
    def test_non_finite_weight(self, scene_file, tmp_path, capsys, weights):
        code = run(["co-adjust", "--scene", str(scene_file), "--size", "16x12", "--iters", "2",
                    "--weights", weights, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: weights must be finite")

    @pytest.mark.parametrize("weights, message", [
        ("1,a,0,0", "usage error: non-numeric weight in '1,a,0,0'"),
        ("1,-1,0,0", "usage error: weights must be non-negative"),
    ])
    def test_malformed_weight(self, scene_file, tmp_path, capsys, weights, message):
        code = run(["recover-depth", "--scene", str(scene_file), "--size", "16x12", "--iters",
                    "2", "--weights", weights, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["gen-scene", "grad-check", "recover-depth"])
    def test_negative_seed(self, scene_file, tmp_path, capsys, command):
        code = run([command, "--scene", str(scene_file), "--size", "16x12", "--seed", "-1",
                    "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--seed: must be at least 0, got -1" in capsys.readouterr().err

    def test_argparse_errors_are_one_line(self, capsys):
        assert run(["recover-depth", "--frobnicate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: flowgeo recover-depth: ") and len(err.splitlines()) == 1

    def test_wb_in_recover_depth(self, scene_file, tmp_path):
        code = run([
            "recover-depth", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
            "--weights", "0,1,0,0.5",
        ])
        assert code == 2

    def test_wb_in_ablate(self, scene_file, tmp_path, capsys):
        # the ablation grid is depth-only: a w_b it would not run is refused
        out = tmp_path / "o"
        code = run(["ablate", "--scene", str(scene_file), "--size", "16x12", "--iters", "2",
                    "--weights", "1,0.5,0.1,0.1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: ablate runs depth-only configs")
        assert not out.exists()


class TestRuntimeErrors:
    def test_missing_scene_file(self, tmp_path, capsys):
        code = run(["gen-scene", "--scene", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_scene_parameters(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("family=affine-inverse-shift\na=0.05\nb=-0.001\nc=0\n")
        code = run(["gen-scene", "--scene", str(bad), "--size", "96x72", "--out", str(tmp_path / "o")])
        assert code == 1

    @pytest.mark.parametrize("command", ["recover-depth", "co-adjust", "ablate"])
    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_must_be_positive(self, scene_file, tmp_path, command, iters):
        code = run([command, "--scene", str(scene_file), "--size", "16x12",
                    "--weights", "0,1,0.1,1" if command == "co-adjust" else "0,1,0.1,0",
                    "--iters", iters, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_recover_depth_on_dynamic_scene(self, scene_file, tmp_path, capsys):
        dynamic = tmp_path / "dynamic.txt"
        dynamic.write_text(scene_file.read_text() + "dynamic_center=30,26\n"
                           "dynamic_half_size=10,8\ndynamic_translation=0,0.2,0\n")
        code = run(["recover-depth", "--scene", str(dynamic), "--size", "96x72",
                    "--iters", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "co-adjust" in capsys.readouterr().err

    def test_co_adjust_with_no_valid_bsca_pixel(self, tmp_path, capsys):
        scene = tmp_path / "behind.txt"
        scene.write_text(EMPTY_FLOW_SCENE)
        code = run(["co-adjust", "--scene", str(scene), "--size", "11x9", "--iters", "2",
                    "--weights", "1,0,0.1,1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: bsca: no valid pixels\n"

    def test_stopgrad_only_on_grad_check(self, scene_file, tmp_path):
        code = run(["recover-depth", "--scene", str(scene_file), "--size", "16x12",
                    "--iters", "1", "--stopgrad", "on", "--out", str(tmp_path / "o")])
        assert code == 2


class TestInputBoundary:
    """Malformed input ends in one typed diagnostic line and exit 1."""

    @pytest.mark.parametrize("edit, cause", [
        (("c=0.0009", "c=abc"), "scene key c"),
        (("ego_translation=0.31,0.02,0.42", "ego_translation=1,2"), "scene key ego_translation"),
        (("ego_translation=0.31,0.02,0.42", "ego_translation=0,0,0"), "nonzero translation"),
        (("ego_translation=", "ego_translaton="), "scene key ego_translaton is unknown"),
        (("a=0.21", "a=0.21\na=0.3"), "scene key a is set twice"),
        (("fy=98.0\ncx=48.0\ncy=36.0\n", ""), "missing fy, cx, cy"),
        (("ego_translation=0.31,0.02,0.42", ""), "missing ego_translation"),
        (("ego_rotation=0,0,0", "ego_rotation=1e200,0,0"), "rotation is not orthonormal"),
        (("ego_translation=0.31,0.02,0.42", "ego_translation=1e308,0,0.4"), "non-finite"),
        (("a=0.21", "a=1e-300"), "gradient is not finite"),
        (("family=affine-inverse-shift", "family=sphere-bump\nbump_radius=1e308"), "bump_radius"),
    ])
    def test_typed_error_and_one_line(self, scene_file, tmp_path, capsys, edit, cause):
        scene_file.write_text(scene_file.read_text().replace(*edit))
        code = run(["recover-depth", "--scene", str(scene_file), "--size", "16x12",
                    "--iters", "2", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and cause in err
        assert len(err.splitlines()) == 1

    @given(text=scene_file_texts())
    @settings(max_examples=100, deadline=None)
    def test_random_scene_files_exit_cleanly(self, tmp_path_factory, text):
        work = tmp_path_factory.mktemp("gen")
        (work / "scene.txt").write_text(text)
        code, lines = stderr_lines_of(["gen-scene", "--scene", str(work / "scene.txt"),
                                       "--size", "16x12", "--out", str(work / "o")])
        assert code in (0, 1, 2)
        assert lines <= 1


# the edges of a pose: no, tiny and large rotations, and a forward
# translation of 0, under EPS_T3, at it and just past it
_ANGLES = st.sampled_from([0.0, 1e-9, 1e-4, 2.5, 3.14159, -3.1]) | st.floats(-3.2, 3.2)
_T3 = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, -1e-6, 2e-6]) | st.floats(-1.0, 1.0)


@st.composite
def plan_scenes(draw):
    """(scene file text, --size) for the commands that build a plan: a
    schema-built scene on a grid from 3x3 to 16x12, a camera on or near
    it, a pose on its edges, and perhaps a dynamic patch touching the
    interior's edge, moving anywhere (behind the camera too)."""
    width, height = draw(st.integers(3, 16)), draw(st.integers(3, 12))
    rotation = draw(st.just((0.0, 0.0, 0.0)) | st.tuples(_ANGLES, _ANGLES, _ANGLES))
    translation = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(_T3))
    keys = {
        "family": draw(st.sampled_from(FAMILIES)),
        "fx": draw(st.floats(1.0, 200.0)), "fy": draw(st.floats(1.0, 200.0)),
        "cx": draw(st.floats(-1.0, width)), "cy": draw(st.floats(-1.0, height)),
        "ego_rotation": rotation, "ego_translation": translation,
    }
    if draw(st.booleans()):
        half = (draw(st.floats(0.0, width / 2)), draw(st.floats(0.0, height / 2)))
        keys["dynamic_shape"] = draw(st.sampled_from(["rect", "ellipse"]))
        keys["dynamic_center"] = tuple(
            draw(st.sampled_from([1.0 + r, n - 2.0 - r])) for r, n in zip(half, (width, height)))
        keys["dynamic_half_size"] = half
        keys["dynamic_translation"] = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                                       draw(st.sampled_from([0.0, 0.5, -4.0, -50.0])))
    values = {k: v if isinstance(v, str) else ",".join(map(repr, np.ravel(v).tolist()))
              for k, v in keys.items()}
    text = "".join(f"{k}={v}\n" for k, v in values.items())
    return text, f"{width}x{height}"


class TestCommandsOnEveryScene:
    """The commands that build a plan, on scenes at the edges of what the
    schema accepts: each exits 0, 1 or 2 with at most one stderr line."""

    @given(scene=plan_scenes(), command=st.sampled_from([
        ("recover-depth", "--iters", "2"), ("co-adjust", "--iters", "2"),
        ("ablate", "--iters", "2"), ("grad-check",), ("grad-check", "--stopgrad", "on"),
        ("recover-depth", "--iters", "2", "--weights", "0,0,1,0"),
        ("co-adjust", "--iters", "2", "--weights", "1,0,0.1,1"),
        ("ablate", "--iters", "2", "--weights", "0,1,1,0"), ("triangulate",), ("check-dpc",)]))
    @settings(max_examples=250, deadline=None)
    def test_exits_cleanly(self, tmp_path_factory, scene, command):
        work = tmp_path_factory.mktemp("plan")
        (work / "scene.txt").write_text(scene[0])
        code, lines = stderr_lines_of([command[0], "--scene", str(work / "scene.txt"),
                                       "--size", scene[1], *command[1:], "--out", str(work / "o")])
        assert code in (0, 1, 2)
        assert lines <= 1


class TestNoForwardTranslation:
    """A scene whose forward translation t3 is 0, or too small for the
    divergence relation (|t3| <= EPS_T3), has no DPC term: a command that
    needs one ends in one `error:` line and exit 1, as `check-dpc` does,
    and `ablate` gives each config with w_d > 0 that error in its row."""

    @staticmethod
    def scene(tmp_path, t3):
        path = tmp_path / "flat.txt"
        path.write_text(f"family=fronto-plane\ndepth=5\nego_translation=0.3,0.02,{t3}\n")
        return path

    @pytest.mark.parametrize("t3", ["0", "1e-12", "1e-300"])
    @pytest.mark.parametrize("command, args", [
        ("recover-depth", ("--iters", "2")),
        ("co-adjust", ("--iters", "2")),
        ("grad-check", ()),
        ("check-dpc", ()),
    ])
    def test_one_error_line(self, tmp_path, capsys, command, args, t3):
        code = run([command, "--scene", str(self.scene(tmp_path, t3)), "--size", "16x12",
                    *args, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: |t3| = {float(t3):.3g} is too small for the divergence relation\n"

    def test_ablate_rows(self, tmp_path):
        out = tmp_path / "o"
        code = run(["ablate", "--scene", str(self.scene(tmp_path, "0")), "--size", "16x12",
                    "--iters", "4", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert [r["config"] for r in rows] == [
            "wc=0.0-wd=0.0", "wc=0.0-wd=0.1", "wc=0.5-wd=0.0", "wc=0.5-wd=0.1"
        ]
        for row in rows:
            if float(row["w_d"]) > 0:
                assert row["error"] == ("DegenerateTranslationError: |t3| = 0 is too small "
                                        "for the divergence relation")
                assert row["abs_rel"] == ""
            else:
                assert row["error"] == "" and math.isfinite(float(row["abs_rel"]))


class TestGenSceneRecordsItsScene:
    @pytest.mark.parametrize("rotation", ["0,0,0", "0.011,-0.017,0.013"])
    def test_rerun_on_written_scene_is_byte_identical(self, scene_file, tmp_path, rotation):
        scene_file.write_text(scene_file.read_text().replace("ego_rotation=0,0,0",
                                                             f"ego_rotation={rotation}"))
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["gen-scene", "--scene", str(scene_file), "--size", "48x36",
                    "--out", str(first)]) == 0
        assert run(["gen-scene", "--scene", str(first / "scene.txt"), "--size", "48x36",
                    "--out", str(second)]) == 0
        _, _, ego = read_scene_keys(first / "scene.txt")
        assert ego.rotation == tuple(float(x) for x in rotation.split(","))
        for name in ("depth.pfm", "flow.flo", "image_t.pnm", "image_s.pnm", "scene.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_grid_derived_dynamic_region_is_written(self, tmp_path):
        scene = tmp_path / "scene.txt"
        scene.write_text("family=fronto-plane\ndynamic_shape=rect\n")
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["gen-scene", "--scene", str(scene), "--size", "16x12",
                    "--out", str(first)]) == 0
        written = set((first / "scene.txt").read_text().splitlines())
        assert {"dynamic_center=8.0,6.0", "dynamic_half_size=2.0,1.5"} <= written
        assert run(["gen-scene", "--scene", str(first / "scene.txt"), "--size", "16x12",
                    "--out", str(second)]) == 0
        for name in ("depth.pfm", "flow.flo", "image_t.pnm", "image_s.pnm", "scene.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_defaults_are_written(self, tmp_path, capsys):
        scene = tmp_path / "scene.txt"
        scene.write_text("family=fronto-plane\n")
        assert run(["gen-scene", "--scene", str(scene), "--size", "32x24",
                    "--out", str(tmp_path / "o")]) == 0
        assert f"wrote {tmp_path / 'o' / 'scene.txt'}" in capsys.readouterr().out.splitlines()
        written = (tmp_path / "o" / "scene.txt").read_text().splitlines()
        assert {"fx=100.0", "cx=16.0", "cy=12.0", "ego_rotation=0.0,0.0,0.0",
                "ego_translation=0.31,0.02,0.42"} <= set(written)
        manifest = (tmp_path / "o" / "run-manifest.txt").read_text()
        assert "camera=" not in manifest and "ego_translation=" not in manifest


class TestDeterminism:
    def test_recover_csv_bytes_identical(self, scene_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run([
                "recover-depth", "--scene", str(scene_file), "--size", "32x24",
                "--weights", "0,1,0.1,0", "--iters", "120", "--seed", "9",
                "--out", str(out),
            ])
            assert code == 0
            outs.append((out / "recover-trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_gen_scene_bytes_identical(self, scene_file, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["gen-scene", "--scene", str(scene_file), "--size", "32x24",
                        "--out", str(out)]) == 0
            blobs.append((out / "flow.flo").read_bytes() + (out / "depth.pfm").read_bytes())
        assert blobs[0] == blobs[1]


class TestMetricsCommand:
    def test_metrics_between_files(self, scene_file, tmp_path, capsys):
        out = tmp_path / "scene"
        run(["gen-scene", "--scene", str(scene_file), "--size", "24x18", "--out", str(out)])
        mdir = tmp_path / "m"
        code = run(["metrics", str(out / "depth.pfm"), str(out / "depth.pfm"), "--out", str(mdir)])
        assert code == 0
        row = read_csv(mdir / "metrics.csv")[0]
        assert float(row["abs_rel"]) == 0.0
        assert float(row["delta1"]) == 1.0


class TestAblateCommand:
    def test_four_rows(self, scene_file, tmp_path):
        out = tmp_path / "o"
        code = run([
            "ablate", "--scene", str(scene_file), "--size", "24x18",
            "--weights", "1,1,0.1,0", "--iters", "40", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert len(rows) == 4
        assert [r["config"] for r in rows] == [
            "wc=0.0-wd=0.0", "wc=0.0-wd=0.1", "wc=1.0-wd=0.0", "wc=1.0-wd=0.1"
        ]


    def test_failed_first_config_keeps_metric_columns(self, scene_file, tmp_path):
        # wc=0.0-wd=0.0 has no depth loss and fails; the three runs after it
        # still get their metric columns, and the failed row empty cells
        out = tmp_path / "o"
        code = run(["ablate", "--scene", str(scene_file), "--size", "24x18",
                    "--weights", "0,1,0.1,0", "--iters", "20", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        metrics = ["abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3"]
        assert list(rows[0])[-len(metrics):] == metrics
        assert rows[0]["error"].startswith("ValueError") and not any(rows[0][m] for m in metrics)
        assert all(r["error"] == "" and all(math.isfinite(float(r[m])) for m in metrics)
                   for r in rows[1:])


class TestNonAsciiScenePath:
    """A scene path may hold any character: the manifest and the CSVs are
    written as UTF-8, and ASCII ones keep their bytes."""

    @pytest.fixture()
    def accented(self, scene_file, tmp_path):
        path = tmp_path / "sc\u00e8ne.txt"
        path.write_bytes(scene_file.read_bytes())
        return path

    def test_triangulate_manifest(self, accented, tmp_path):
        out = tmp_path / "o"
        assert run(["triangulate", "--scene", str(accented), "--size", "24x18",
                    "--out", str(out)]) == 0
        manifest = (out / "run-manifest.txt").read_text(encoding="utf-8")
        assert f"\nscene={accented}\n" in manifest
        assert (out / "triangulation.csv").read_bytes().isascii()

    def test_ablate_csv(self, accented, tmp_path):
        out = tmp_path / "o"
        assert run(["ablate", "--scene", str(accented), "--size", "24x18", "--iters", "5",
                    "--out", str(out)]) == 0
        rows = read_csv(out / "ablation.csv")
        assert [r["scene"] for r in rows] == ["sc\u00e8ne"] * 4
        assert all(r["error"] == "" for r in rows)
        assert f"\nscene={accented}\n" in (out / "run-manifest.txt").read_text(encoding="utf-8")


class TestCoAdjustCommand:
    def test_every_row_carries_bsca(self, scene_file, tmp_path):
        # record 0 falls before the flow phase (from iteration 6 of 40);
        # the last record follows the loop
        out = tmp_path / "o"
        code = run(["co-adjust", "--scene", str(scene_file), "--size", "24x18",
                    "--iters", "40", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "co_adjust-trace.csv")
        assert [r["iteration"] for r in rows] == ["0", "40"]
        assert all(math.isfinite(float(r["loss_bsca"])) for r in rows)


class TestGradCheckCommand:
    def test_report_written(self, scene_file, tmp_path):
        out = tmp_path / "o"
        code = run(["grad-check", "--scene", str(scene_file), "--size", "16x12",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "grad_check.csv")
        assert {"photometric", "cgdc", "dpc", "bsca", "smoothness"} <= {r["loss"] for r in rows}


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["flowgeo", "flowgeo.cli"])
    def test_exit_codes(self, tmp_path, module):
        done = run_python(["-m", module, "--version"])
        assert done.returncode == 0 and done.stdout.startswith("flowgeo ")
        argv = ["-m", module, "grad-check", "--scene", str(tmp_path / "missing.txt"),
                "--out", str(tmp_path / "o")]
        done = run_python(argv + ["--frobnicate"])
        assert done.returncode == 2 and done.stderr.startswith("usage error: ")
        done = run_python(argv)
        assert done.returncode == 1
        assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: ")


_DESCENT_IMPORTS = '''
import sys
from flowgeo import cli
for argv in (["recover-depth"], ["co-adjust"], ["ablate"]):
    code = cli.run(argv + ["--scene", {scene!r}, "--size", "16x12", "--iters", "2",
                           "--out", {out!r}])
    assert code == 0, argv
print(sorted(m for m in ("numpy.random", "secrets", "hmac") if m in sys.modules))
'''


def test_descent_commands_skip_numpy_random(scene_file, tmp_path):
    """The descent commands draw their random-scale initial depth from
    `rng.PCG64`, so they never import `numpy.random`, nor the `secrets`,
    `hmac` and libcrypto it loads (about 5 MB of RSS)."""
    done = run_python(["-c", _DESCENT_IMPORTS.format(scene=str(scene_file),
                                                     out=str(tmp_path / "o"))])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestManifest:
    """A run's manifest names each key once. The weights a descent or an
    ablation used, given or resolved from the defaults, are written in the
    flag's own w_p,w_c,w_d,w_b form."""

    @pytest.mark.parametrize("command, flags, weights", [
        ("recover-depth", ["--weights", "1,1,0.1,0"], "1.0,1.0,0.1,0.0"),
        ("recover-depth", [], "1.0,0.5,0.1,0.0"),
        ("co-adjust", [], "1.0,0.5,0.1,0.1"),
        ("ablate", [], "1.0,0.5,0.1,0.0"),
        ("ablate", ["--weights", "1,0.25,0,0"], "1.0,0.25,0.0,0.0"),
    ])
    def test_each_key_once(self, scene_file, tmp_path, command, flags, weights):
        out = tmp_path / "o"
        argv = [command, "--scene", str(scene_file), "--size", "16x12", "--iters", "2", *flags]
        assert run([*argv, "--out", str(out)]) == 0
        lines = (out / "run-manifest.txt").read_text().splitlines()
        keys = [line.split("=", 1)[0] for line in lines]
        assert len(keys) == len(set(keys)), lines
        assert f"weights={weights}" in lines
        parsed = tuple(float(w) for w in weights.split(","))
        assert cli._parse_weights(weights) == parsed


class TestDivergedRun:
    @pytest.mark.parametrize("command", ["recover-depth", "co-adjust"])
    def test_partial_trace_written_before_one_error_line(
        self, scene_file, tmp_path, monkeypatch, capsys, command
    ):
        def diverging(**fields):
            return OptimConfig(**fields, learning_rate=1e9, step_clip=1e9)

        monkeypatch.setattr(cli, "OptimConfig", diverging)
        co = command == "co-adjust"
        out = tmp_path / "o"
        code = run([command, "--scene", str(scene_file), "--size", "16x12",
                    "--weights", "0,1,0,1" if co else "0,1,0,0", "--iters", "400",
                    "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run diverged at iteration")
        stem = "co_adjust" if co else "recover"
        names = [f"{stem}-trace.csv", f"{stem}-depth.pfm"] + ([f"{stem}-flow.flo"] if co else [])
        assert captured.out.splitlines() == [f"wrote {out / name}" for name in names]
        rows = read_csv(out / f"{stem}-trace.csv")
        assert rows[0]["iteration"] == "0"
        assert read_depth_pfm(out / f"{stem}-depth.pfm").shape == (12, 16)
        if co:
            assert read_flow(out / f"{stem}-flow.flo").shape == (12, 16)
        assert not (out / "run-manifest.txt").exists()


    def test_flow_past_float32_is_divergence(self, scene_file, tmp_path, capsys):
        # a flow step of w_b = 1e300 leaves flow values near 1e299: finite,
        # but past what the flow file's float32 payload can hold
        out = tmp_path / "o"
        code = run(["co-adjust", "--scene", str(scene_file), "--size", "16x12",
                    "--weights", "0,1,0,1e300", "--iters", "3", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: run diverged at iteration")
        names = ["co_adjust-trace.csv", "co_adjust-depth.pfm", "co_adjust-flow.flo"]
        assert captured.out.splitlines() == [f"wrote {out / name}" for name in names]
        assert read_csv(out / "co_adjust-trace.csv")[0]["iteration"] == "0"
        assert read_depth_pfm(out / "co_adjust-depth.pfm").shape == (12, 16)
        flow = read_flow(out / "co_adjust-flow.flo")
        # the pixels float32 could not hold are written as zero flow
        assert flow.shape == (12, 16) and (flow.values == 0.0).any()
        assert not (out / "run-manifest.txt").exists()


class TestHeapPin:
    def test_second_run_adds_few_page_faults(self, scene_file, tmp_path):
        # left to glibc's dynamic thresholds, each iteration hands the heap
        # top back to the kernel and faults it in again (~270 minor faults
        # per iteration at 96x72); with the pin, a second run in the same
        # process reuses the heap the first one grew. The test leaves the
        # pin to the runs, so run alone it fails if they stop pinning
        resource = pytest.importorskip("resource")
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("needs glibc's mallopt")
        iters = 60
        argv = ["recover-depth", "--scene", str(scene_file), "--size", "96x72",
                "--weights", "1,1,0.1,0", "--iters", str(iters), "--out", str(tmp_path / "o")]
        with redirect_stdout(io.StringIO()):
            assert run(argv) == 0
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert run(argv) == 0
            added = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert added < 2 * iters


# valid values are listed more than once, so that most argvs run
_SIZES = ["16x12", "16x12", "3x3", "5x4", "5x4", "16x12x2", "banana", "2x2", "0x5", "-16x12"]
_ITERS = ["1", "2", "3", "1", "2", "3", "0", "-1", "x", "1.5"]
_WEIGHTS = ["1,1,0.1,0", "0,1,0.1,1", "1,0,0,1", "0,0,0,0", "1,1", "a,b,c,d", "-1,1,0,0",
            "1e300,1,0,0", "0,1,1e300,0", "0,1,0,1e300", "0,1,0,1e306", "inf,1,0,0", "nan,1,0,1"]
_EXTRA = [("--seed", "0"), ("--seed", "3"), ("--seed", "-1"), ("--seed", "x"),
          ("--stopgrad", "on"), ("--stopgrad", "maybe"), ("--frobnicate",), ("--scene",),
          ("--version",), ("-h",)]


@st.composite
def cli_argvs(draw, scene, inputs, out):
    """argv over every subcommand: the valid `scene` most often, else one
    of the malformed or missing `inputs`; small sizes and budgets; and
    options that are valid, out of range or foreign to the subcommand."""
    command = draw(st.sampled_from(["gen-scene", "triangulate", "check-dpc", "grad-check",
                                    "recover-depth", "co-adjust", "ablate", "metrics"]))
    argv = [command]
    if command == "metrics":
        argv += draw(st.lists(st.sampled_from(inputs), min_size=0, max_size=3))
    else:
        path = draw(st.sampled_from([scene, scene, scene, *inputs]))
        argv += ["--scene", path, "--size", draw(st.sampled_from(_SIZES))]
    if command in ("recover-depth", "co-adjust", "ablate"):
        argv += ["--iters", draw(st.sampled_from(_ITERS))]
        if draw(st.booleans()):
            argv += ["--weights", draw(st.sampled_from(_WEIGHTS))]
    for extra in draw(st.lists(st.sampled_from(_EXTRA), max_size=1)):
        argv += list(extra)
    return argv + ["--out", out]


class TestRandomArgv:
    # 1e306: the flow rate 250 w_b overflows to inf and the flow step leaves
    # non-finite flow on valid pixels
    @pytest.mark.parametrize("weights", ["0,1,0,1e300", "1e300,1e300,1e300,1e300", "0,1,0,1e306"])
    def test_overflowing_co_adjust_ends_in_one_line(self, scene_file, tmp_path, weights):
        assert stderr_lines_of(["co-adjust", "--scene", str(scene_file), "--size", "16x12",
                                "--iters", "3", "--weights", weights,
                                "--out", str(tmp_path / "o")]) == (1, 1)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_exit_code_and_at_most_one_stderr_line(self, tmp_path_factory, data):
        work = tmp_path_factory.getbasetemp() / "argv"
        scene = work / "scene.txt"
        if not scene.exists():
            work.mkdir(exist_ok=True)
            scene.write_text("family=affine-inverse-shift\na=0.21\nb=0.0013\nc=0.0009\n"
                             "ego_translation=0.31,0.02,0.42\n")
            (work / "bad.txt").write_text("family=affine-inverse-shift\na=abc\n")
            run(["gen-scene", "--scene", str(scene), "--size", "16x12", "--out", str(work / "g")])
        inputs = [str(work / "bad.txt"), str(work / "missing.txt"), str(work / "g" / "depth.pfm")]
        code, lines = stderr_lines_of(data.draw(cli_argvs(str(scene), inputs, str(work / "out"))))
        assert code in (0, 1, 2)
        assert lines <= 1
