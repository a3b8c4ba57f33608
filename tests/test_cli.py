"""Command-line contract: artifacts, exit codes, announcements, and
byte-identical CSV output under a fixed seed."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import scene_file_texts
from hypothesis import given, settings

from flowgeo.cli import run
from flowgeo.io_formats import read_csv, read_depth_pfm, read_flow


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

    def test_wb_in_recover_depth(self, scene_file, tmp_path):
        code = run([
            "recover-depth", "--scene", str(scene_file), "--out", str(tmp_path / "o"),
            "--weights", "0,1,0,0.5",
        ])
        assert code == 2


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
        # a warning would reach stderr as lines of its own, so it counts
        work = tmp_path_factory.mktemp("gen")
        (work / "scene.txt").write_text(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = run(["gen-scene", "--scene", str(work / "scene.txt"), "--size", "16x12",
                        "--out", str(work / "o")])
        assert code in (0, 1, 2)
        assert len(err.getvalue().splitlines()) + len(caught) <= 1


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
        for name in ("depth.pfm", "flow.flo"):
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


class TestGradCheckCommand:
    def test_report_written(self, scene_file, tmp_path):
        out = tmp_path / "o"
        code = run(["grad-check", "--scene", str(scene_file), "--size", "16x12",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "grad_check.csv")
        assert {"photometric", "cgdc", "dpc", "bsca", "smoothness"} <= {r["loss"] for r in rows}
