import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from composed import total
from hypothesis import strategies as st

from flowgeo import autodiff as ad
from flowgeo.geometry import CameraIntrinsics, RigidMotion, rotation_from_axis_angle
from flowgeo.scene import (
    ANY,
    FAMILIES,
    SCENE_KEYS,
    TEXT,
    DynamicObjectSpec,
    SceneSpec,
    TextureSpec,
    synthesize,
)

# a step-edge scene file whose every point is behind the camera at 11x9:
# its flow mask is empty, so a co-adjusted run's bsca loss has no pixel
EMPTY_FLOW_SCENE = ("family=step-edge\nfx=49.88\nfy=111.96\ncx=0\ncy=4.94\n"
                    "ego_rotation=0,3.14159,0.0001\nego_translation=0,0.8988,0.5376\n")


def run_python(args, **kwargs):
    """Run `python args` in a fresh process that imports this flowgeo;
    returns the CompletedProcess with text stdout and stderr."""
    src = str(Path(ad.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300, **kwargs)


def assert_bits_equal(actual, expected):
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert a.shape == e.shape
    assert a.tobytes() == e.tobytes()  # also tells -0.0 from +0.0


def reachable(root):
    """Every tape node linked to `root`, in creation order."""
    nodes, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(parent for parent, _ in node._parents)
    return sorted(nodes.values(), key=lambda n: n._id)


def node_gradients(build, inputs, active):
    """Build a root from `inputs` (name -> value) with the `active` names on
    the tape and run backward. Returns [root value, then per active input
    the raw sum of the contributions that reached it, then its leaf's
    gradient]: each input sits one identity node below its leaf, so -0.0
    entries of the raw sums show. A term created after the built graph
    also consumes every active input, so its contribution arrives first
    and the order of the graph's own contributions shows in the sums."""
    args, mids, leaves = {}, [], []
    for name, value in inputs.items():
        if name in active:
            leaf = ad.Var(np.copy(value) if np.ndim(value) else float(value))
            args[name] = ad.add(leaf, 0.0)
            mids.append(args[name])
            leaves.append(leaf)
        else:
            args[name] = value
    root = build(**args)
    rng = np.random.default_rng(17)
    for mid in mids:
        root = root + total(ad.mul(mid, rng.normal(size=np.shape(mid.value))))
    ad.backward(root)
    return [root.value] + [m.grad for m in mids] + [leaf.grad for leaf in leaves]


def assert_twins_agree(build, twin, inputs, active):
    """`node_gradients` of a node and of its composed twin agree bit for bit."""
    for actual, expected in zip(node_gradients(build, inputs, active),
                                node_gradients(twin, inputs, active), strict=True):
        assert_bits_equal(actual, expected)


@pytest.fixture(scope="session")
def camera():
    return CameraIntrinsics(fx=100.0, fy=98.0, cx=48.0, cy=36.0)


@pytest.fixture(scope="session")
def affine_bundle(camera):
    """Static affine-inverse-shift scene, identity rotation, generic
    forward+lateral ego translation; the workhorse oracle scene."""
    spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
    ego = RigidMotion(np.eye(3), [0.31, 0.02, 0.42])
    return synthesize(spec, camera, ego, 72, 96)


@pytest.fixture(scope="session")
def small_bundle():
    """16x12 scene with generic rotation and lateral-dominant translation
    (keeps triangulation denominators and C^D bounded away from zero),
    sharp texture for measurable photometric gradients."""
    camera = CameraIntrinsics(fx=40.0, fy=38.0, cx=8.0, cy=6.0)
    ego = RigidMotion(rotation_from_axis_angle([0.011, -0.017, 0.013]), [0.31, 0.05, 0.1])
    texture = TextureSpec(
        amplitudes=(0.16, 0.13, 0.09),
        frequencies_u=(0.41, 0.67, -0.93),
        frequencies_v=(0.53, -0.71, 0.89),
        phases=(0.3, 1.1, 2.2),
    )
    spec = SceneSpec("affine-inverse-shift", a=0.22, b=2.3e-3, c=1.7e-3, texture=texture)
    return synthesize(spec, camera, ego, 12, 16)


@pytest.fixture(scope="session")
def dynamic_bundle(camera):
    """Scene with a translating patch whose flow delta is transverse to
    the epipolar direction (the recoverable case for co-adjustment)."""
    dyn = DynamicObjectSpec(
        shape="rect", center=(30.0, 26.0), half_size=(10.0, 8.0), translation=(0.0, 0.2, 0.0)
    )
    spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3, dynamic=dyn)
    ego = RigidMotion(np.eye(3), [0.31, 0.02, 0.42])
    return synthesize(spec, camera, ego, 72, 96)


def random_scene(seed, height=72, width=96, max_angle_deg=5.0, t_range=(0.1, 1.0)):
    """Random generic static scene for round-trip properties."""
    rng = np.random.default_rng(seed)
    camera = CameraIntrinsics(
        fx=float(rng.uniform(80, 130)),
        fy=float(rng.uniform(80, 130)),
        cx=width / 2 + float(rng.uniform(-3, 3)),
        cy=height / 2 + float(rng.uniform(-3, 3)),
    )
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(rng.uniform(0.5, max_angle_deg))
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    norm = rng.uniform(*t_range)
    ego = RigidMotion(rotation_from_axis_angle(axis * angle), direction * norm)
    spec = SceneSpec(
        "affine-inverse-shift",
        a=float(rng.uniform(0.2, 0.28)),
        b=float(rng.uniform(-6e-4, 6e-4)),
        c=float(rng.uniform(-6e-4, 6e-4)),
    )
    return synthesize(spec, camera, ego, height, width)


# plausible values, the magnitudes where float arithmetic overflows or
# underflows, and any finite float
_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-100.0, 100.0),
    st.sampled_from([0.0, 1e-300, -1e-300, 1e200, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _scene_value(key, arity):
    if arity == TEXT:
        return st.sampled_from(FAMILIES if key == "family" else ("rect", "ellipse"))
    size = 3 if arity == ANY else arity
    numbers = st.lists(_NUMBERS, min_size=0 if arity == ANY else size, max_size=size)
    return numbers.map(lambda xs: ",".join(repr(x) for x in xs))


@st.composite
def scene_file_texts(draw):
    """Scene files over the schema's keys, each key once with the right
    count of any finite numbers. Each object the keys configure is left
    out, given in full or given in part, so that whole cameras and
    ego-motions come up often."""
    groups = {}
    for key, (cls, _, _) in SCENE_KEYS.items():
        groups.setdefault(cls, []).append(key)
    keys = ["family"]
    for group in groups.values():
        part = st.lists(st.sampled_from(group), unique=True)
        keys += [k for k in draw(st.sampled_from([[], group]) | part) if k != "family"]
    return "".join(f"{k}={draw(_scene_value(k, SCENE_KEYS[k][2]))}\n" for k in keys)
