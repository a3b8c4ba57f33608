"""Byte goldens of the descent commands: the sha256 of every output file
but the manifest (which echoes paths), for recover-depth, co-adjust and
ablate, each on a still and on a rotating ego-motion.

A change that moves any output bit of the descent loops fails here. The
digests hold for one platform's float arithmetic; a deliberate change to
the numbers re-records them and says so."""

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
}

GOLDENS = {
    ("ablate", False): {
        "ablation.csv": "090f3432fe24c5d2eeb3f69e76d7698e9b80513762f2c781abfeed68a6624392"},
    ("ablate", True): {
        "ablation.csv": "77945d7cbf1a7e4964cac4792c93ecd7363d8b7b9422fdc8b244c2cdd28255e0"},
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


def output_digests(tmp_path, name, rotated):
    scene, argv = RUNS[name]
    path = tmp_path / "scene.txt"
    path.write_text(scene + (ROTATION if rotated else ""), encoding="ascii")
    out = tmp_path / "out"
    with redirect_stdout(io.StringIO()):
        assert run([*argv, "--scene", str(path), "--seed", "7", "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run-manifest.txt"}


@pytest.mark.parametrize("rotated", [False, True], ids=["still", "rotating"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_goldens(tmp_path, name, rotated):
    assert output_digests(tmp_path, name, rotated) == GOLDENS[name, rotated]
