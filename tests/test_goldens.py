"""Byte goldens of the CLI commands: the sha256 of every output file but
the manifest (which echoes paths), for the descent commands (recover-depth,
co-adjust and ablate) and for gen-scene, triangulate, check-dpc, metrics
and grad-check, each on a still and on a rotating ego-motion.

A change that moves any output bit of the descent loops, or of the loss
cores and geometry kernels the other commands run on 2-D grids, fails
here. The digests hold for one platform's float arithmetic; a deliberate
change to the numbers re-records them and says so."""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from flowgeo.cli import run

SCENE = """family=affine-inverse-shift
a=0.21
b=0.0013
c=0.0009
ego_translation=0.31,0.02,0.42
"""
DYNAMIC = "dynamic_shape=rect\ndynamic_translation=0,0.2,0\n"
ROTATION = "ego_rotation=0.011,-0.017,0.013\n"

RUNS = {
    "recover": (SCENE, ["recover-depth", "--size", "32x24", "--weights", "1,1,0.1,0",
                        "--iters", "40"]),
    "coadjust": (SCENE + DYNAMIC, ["co-adjust", "--size", "48x36", "--weights", "0,1,0.1,1",
                                   "--iters", "40"]),
    "ablate": (SCENE, ["ablate", "--size", "24x18", "--iters", "20"]),
    "gen-scene": (SCENE, ["gen-scene", "--size", "32x24"]),
    "triangulate": (SCENE, ["triangulate", "--size", "32x24"]),
    "check-dpc": (SCENE, ["check-dpc", "--size", "32x24"]),
    "grad-check": (SCENE, ["grad-check", "--size", "16x12"]),
    # the recovered depth against the ground truth of its scene
    "metrics": (SCENE, ["metrics", "{recover}/recover-depth.pfm", "{gen-scene}/depth.pfm"]),
}

GOLDENS = {
    ("ablate", False): {
        "ablation.csv": "090f3432fe24c5d2eeb3f69e76d7698e9b80513762f2c781abfeed68a6624392"},
    ("ablate", True): {
        "ablation.csv": "77945d7cbf1a7e4964cac4792c93ecd7363d8b7b9422fdc8b244c2cdd28255e0"},
    ("check-dpc", False): {
        "check_dpc.csv": "f78c0741342c7225d3ff980f78fa94b053e467e19b87cb6e124764c9f5b3c591"},
    ("check-dpc", True): {
        "check_dpc.csv": "59fefdaf5bef94108f095fb9f8092c9570249346b36769097e4e0eeeeacbb39b"},
    ("gen-scene", False): {
        "depth.pfm": "905fc9f71a450fbb88ee74b05f659ceee07e2aecb32fb3a268afb28d48c8599c",
        "flow.flo": "8e1320b032ab2e321ef38b102f3aa78859ef94475afea80d31ae21ca1abf821e",
        "image_s.pnm": "2dfa8ad16e3e4b101e2bd739435b9fbb9a1897d411bbcf0fa01be32a6ba990ab",
        "image_t.pnm": "f356fd71516164b1b96d00cc48f0ca2500c050c9ea95efefedb2634aaa77f4d1",
        "scene.txt": "162761855ee0a7a8599762c6f15220a00adb732547e9b6e2407bccaf36cd5aa3"},
    ("gen-scene", True): {
        "depth.pfm": "905fc9f71a450fbb88ee74b05f659ceee07e2aecb32fb3a268afb28d48c8599c",
        "flow.flo": "68951936f216d577a45f26d2222c01d556000f5bed0c015a850eecbff5585fa1",
        "image_s.pnm": "2dfa8ad16e3e4b101e2bd739435b9fbb9a1897d411bbcf0fa01be32a6ba990ab",
        "image_t.pnm": "e6e43f1a548c2937d893c0ba37e90ed0e52b6e3ef8ed7b88dc0646b01c4bdf86",
        "scene.txt": "aa8afd3502b141775df320a1b8225bf8da3e577b27ecc7f646d024c21482ff66"},
    ("grad-check", False): {
        "grad_check.csv": "c3a8adb99b5aa7b9360e6e1ba94c9c21ce0fe1d7652f2d16ab7db3942c5c9349"},
    ("grad-check", True): {
        "grad_check.csv": "79ec42eab0821b15e3f508578c42d4ea352af845b2690965d152f0e289ee3c79"},
    ("metrics", False): {
        "metrics.csv": "7926cae7fafce6d216a92daf70acc6b620f035c6a8f5a1e0a0c6e9a08cefa1ff"},
    ("metrics", True): {
        "metrics.csv": "f8eb11507e777bb9fa907d51a65d7ebd590822522e1e3c11fef2db4a41dd4308"},
    ("triangulate", False): {
        "depth_g.pfm": "905fc9f71a450fbb88ee74b05f659ceee07e2aecb32fb3a268afb28d48c8599c",
        "triangulation.csv": "48c18b8991eb61bb2787960ef7e94425287972923718dc02fa7a94fdbbaa10ce"},
    ("triangulate", True): {
        "depth_g.pfm": "905fc9f71a450fbb88ee74b05f659ceee07e2aecb32fb3a268afb28d48c8599c",
        "triangulation.csv": "a04e08320e2eeedd28cbe1e12d9e2f445ece86a26d3ec3f63dff625d1e652445"},
    ("coadjust", False): {
        "co_adjust-depth.pfm": "c79663fef8482906becc2edfbcddfa7d6473af61382568268d82b01474196587",
        "co_adjust-flow.flo": "c5fab65bb554db87944ed9de94f6f9d7692ff3f709203bb623504deda57dd2e5",
        "co_adjust-trace.csv": "f7086cb6d67280cd62caf5a5117492a716d403a9a6cbd44a9937067603882f1c"},
    ("coadjust", True): {
        "co_adjust-depth.pfm": "ce1afd0bceecad4cb5e89b9b573feea62d8ab1016ebc2a7a2b21bf55cd56f494",
        "co_adjust-flow.flo": "f9780190fbceccbb47b8d5d59a23032291a85b675fc788dc23c635d8f01e0704",
        "co_adjust-trace.csv": "9dc2ab8268ceabca06b1ba1ae6a229b7257674fcfee49814da5d97f7b9238c55"},
    ("recover", False): {
        "recover-depth.pfm": "255d9748edd940d72f591ca8b8392af6fd9428ac450e9e1bef23e6802ab21cdb",
        "recover-trace.csv": "cb7796c71a5114b4f017481dca559774df268742c5d1a425a8f1ce4f394a8f36"},
    ("recover", True): {
        "recover-depth.pfm": "3696fd979b45b33bb87eaabd56c27e0fd6192589189117011e9c66088eb1a1d8",
        "recover-trace.csv": "c173a3df5075cc9b61d8b61e927ce9dc3b811154b7f540ca5e5703e72f4f9717"},
}


# grad-check exits 1 on the rotating scene: a BSCA twist row crosses an
# |.| kink inside its central difference (rel error 2.1e-2), a known fault
# of the check, not of the gradient; the bytes it writes are pinned all the same
EXIT_CODES = {("grad-check", True): 1}


def run_command(tmp_path, name, rotated):
    """Run one command of RUNS at seed 7; returns its output directory."""
    scene, argv = RUNS[name]
    out = tmp_path / name
    if name == "metrics":  # reads the files of two other commands
        inputs = {n: run_command(tmp_path, n, rotated) for n in ("recover", "gen-scene")}
        argv = [a.format(**inputs) for a in argv]
    else:
        path = tmp_path / "scene.txt"
        path.write_text(scene + (ROTATION if rotated else ""), encoding="ascii")
        argv = [*argv, "--scene", str(path)]
    with redirect_stdout(io.StringIO()):
        code = run([*argv, "--seed", "7", "--out", str(out)])
    assert code == EXIT_CODES.get((name, rotated), 0)
    return out


def output_digests(tmp_path, name, rotated):
    out = run_command(tmp_path, name, rotated)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run-manifest.txt"}


@pytest.mark.parametrize("rotated", [False, True], ids=["still", "rotating"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_goldens(tmp_path, name, rotated):
    assert output_digests(tmp_path, name, rotated) == GOLDENS[name, rotated]
