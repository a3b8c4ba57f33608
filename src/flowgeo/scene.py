"""Synthetic scenes with analytically known depth, exact flow, and
closed-form spatial derivatives.

A scene is parameterized by the *ego-motion* (source-to-target sense; its
inverse is the warp motion that generates flow, see `geometry`). The
affine-inverse-shift family makes 1/(D - t3_ego) affine in pixel
coordinates, so the ground-truth flow is quadratic per axis and the
central divergence stencil is exact on it — a zero-tolerance oracle for
the flow-divergence / depth-gradient identity.

Images are rendered by evaluating one continuous texture: the source image
samples it on the source grid, the target image samples it at the exact
continuous correspondences, so the pair is photometrically consistent by
construction (up to bilinear resampling of the smooth texture).
"""

from __future__ import annotations

import numbers
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import DimensionError, InvalidSceneError
from .geometry import (
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    RigidMotion,
    ScalarField,
    _flow_from_points,
    backproject,
    pixel_grid,
    rigid_flow,
    rotation_from_axis_angle,
)

FAMILIES = ("affine-inverse-shift", "fronto-plane", "step-edge", "sphere-bump")


@dataclass(frozen=True)
class TextureSpec:
    """Sum of sinusoids with incommensurate frequencies on the source
    image plane; amplitudes of zero give a texture-free (constant) scene."""

    base: float = 0.5
    amplitudes: tuple = (0.15, 0.10, 0.06)
    frequencies_u: tuple = (0.059, 0.127, -0.173)
    frequencies_v: tuple = (0.083, -0.101, 0.149)
    phases: tuple = (0.3, 1.1, 2.2)

    def __post_init__(self):
        lens = {len(self.amplitudes), len(self.frequencies_u), len(self.frequencies_v), len(self.phases)}
        if len(lens) != 1:
            raise InvalidSceneError("texture parameter lists must share one length")
        lo = self.base - sum(abs(a) for a in self.amplitudes)
        hi = self.base + sum(abs(a) for a in self.amplitudes)
        if lo < 0.0 or hi > 1.0:
            raise InvalidSceneError("texture range leaves [0, 1]")

    def sample(self, x, y):
        out = np.full(np.broadcast(x, y).shape, self.base, dtype=float)
        for a, fu, fv, ph in zip(self.amplitudes, self.frequencies_u, self.frequencies_v, self.phases):
            out += a * np.sin(fu * np.asarray(x) + fv * np.asarray(y) + ph)
        return out


@dataclass(frozen=True)
class DynamicObjectSpec:
    """A pixel region whose surface translates independently between frames.
    A centre or half-size left as None is taken from the grid as (W/2, H/2)
    or (W/8, H/8): (48, 36) and (12, 9) at 96x72."""

    shape: str = "rect"  # "rect" | "ellipse"
    center: tuple | None = None
    half_size: tuple | None = None
    translation: tuple = (0.2, 0.0, 0.0)

    def sized(self, height, width) -> "DynamicObjectSpec":
        """This object with its grid-derived centre and half-size filled in."""
        center = (width / 2.0, height / 2.0) if self.center is None else self.center
        half_size = (width / 8.0, height / 8.0) if self.half_size is None else self.half_size
        return replace(self, center=center, half_size=half_size)

    def region_mask(self, height, width):
        if self.shape not in ("rect", "ellipse"):
            raise InvalidSceneError(f"unknown dynamic region shape {self.shape!r}")
        sized = self.sized(height, width)
        (cu, cv), (ru, rv) = sized.center, sized.half_size
        if cu - ru < 1 or cv - rv < 1 or cu + ru > width - 2 or cv + rv > height - 2:
            raise InvalidSceneError("dynamic region must be strictly inside the image interior")
        u, v = pixel_grid(height, width)
        if self.shape == "rect":
            return (np.abs(u - cu) <= ru) & (np.abs(v - cv) <= rv)
        return ((u - cu) / ru) ** 2 + ((v - cv) / rv) ** 2 <= 1.0


@dataclass(frozen=True)
class SceneSpec:
    family: str
    depth: float = 5.0  # fronto-plane value; base depth for step/bump
    a: float = 0.2  # affine-inverse-shift: 1/(D - t3_ego) = a + b u + c v
    b: float = 0.0
    c: float = 0.0
    depth_far: float = 8.0  # step-edge far side (u >= edge_u)
    edge_u: float = 48.0
    bump_center: tuple = (48.0, 36.0)
    bump_radius: float = 20.0
    bump_amplitude: float = -1.0  # negative bumps toward the camera
    texture: TextureSpec = TextureSpec()
    dynamic: DynamicObjectSpec | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSceneError(f"unknown scene family {self.family!r}")
        if self.family == "sphere-bump" and not 0.0 < self.bump_radius * self.bump_radius < np.inf:
            raise InvalidSceneError("sphere-bump needs a bump_radius with a finite nonzero square")


def depth_field(spec: SceneSpec, ego_t3: float, height: int, width: int) -> np.ndarray:
    """Ground-truth depth grid of a family, anchored at the ego-motion t3
    for the affine-inverse-shift family."""
    u, v = pixel_grid(height, width)
    if spec.family == "fronto-plane":
        d = np.full((height, width), float(spec.depth))
    elif spec.family == "affine-inverse-shift":
        g = spec.a + spec.b * u + spec.c * v
        if not (g > 0).all():
            raise InvalidSceneError("affine-inverse-shift requires a + b u + c v > 0 on the grid")
        d = ego_t3 + 1.0 / g
    elif spec.family == "step-edge":
        d = np.where(u < spec.edge_u, float(spec.depth), float(spec.depth_far))
    else:  # sphere-bump
        cu, cv = spec.bump_center
        s = ((u - cu) ** 2 + (v - cv) ** 2) / spec.bump_radius**2
        d = spec.depth + spec.bump_amplitude * np.where(s < 1.0, (1.0 - s) ** 2, 0.0)
    if not (d > 0).all():
        raise InvalidSceneError("scene depth must be positive everywhere")
    return d


def analytic_depth_gradient(spec: SceneSpec, pixel) -> np.ndarray:
    """Closed-form (dD/du, dD/dv) of the family at the given pixel(s);
    the step edge reports 0 (the discontinuity carries no finite slope)."""
    p = np.asarray(pixel, dtype=float)
    u, v = p[..., 0], p[..., 1]
    gu = np.zeros_like(u)
    gv = np.zeros_like(v)
    if spec.family == "affine-inverse-shift":
        g = spec.a + spec.b * u + spec.c * v
        gu = -spec.b / g**2
        gv = -spec.c / g**2
    elif spec.family == "sphere-bump":
        cu, cv = spec.bump_center
        s = ((u - cu) ** 2 + (v - cv) ** 2) / spec.bump_radius**2
        inside = s < 1.0
        coef = -4.0 * spec.bump_amplitude * (1.0 - s) / spec.bump_radius**2
        gu = np.where(inside, coef * (u - cu), 0.0)
        gv = np.where(inside, coef * (v - cv), 0.0)
    return np.stack([gu, gv], axis=-1)


@dataclass(frozen=True)
class SceneBundle:
    """Ground-truth package for one synthetic frame pair.

    `motion` is the warp motion consumed by rigid flow and triangulation;
    `ego_motion` is its inverse (source-to-target), the translation the
    divergence/depth-gradient relations are parameterized by.
    """

    camera: CameraIntrinsics
    motion: RigidMotion
    ego_motion: RigidMotion
    spec: SceneSpec
    depth_gt: DepthMap
    flow_gt: FlowField
    image_t: Image
    image_s: Image
    analytic_depth_gradient: np.ndarray
    analytic_flow_divergence: ScalarField | None
    dynamic_mask: np.ndarray

    @property
    def shape(self):
        return self.depth_gt.shape

    @property
    def static_mask(self) -> np.ndarray:
        return ~self.dynamic_mask


def _analytic_divergence_r_identity(camera, warp_t, depth, depth_grad, u, v):
    """Continuous divergence of F = (K t - t3 (p - po)) / (D + t3) for an
    identity-rotation warp translation t (any t3, including 0)."""
    t1, t2, t3 = warp_t
    denom = depth + t3
    nu = camera.fx * t1 - t3 * (u - camera.cx)
    nv = camera.fy * t2 - t3 * (v - camera.cy)
    return (-2.0 * t3) / denom - (nu * depth_grad[..., 0] + nv * depth_grad[..., 1]) / denom**2


def synthesize(spec: SceneSpec, camera: CameraIntrinsics, ego_motion: RigidMotion,
               height: int, width: int) -> SceneBundle:
    """Build the full ground-truth bundle for a scene specification. A size
    that is not an integer (a bool, a float) raises DimensionError; values
    that overflow the rendering at this size raise InvalidSceneError."""
    for name, value in (("height", height), ("width", width)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DimensionError(f"{name} must be an integer, got {value!r}")
    try:
        with np.errstate(all="ignore"):  # overflow shows as a non-finite field
            return _render(spec, camera, ego_motion, height, width)
    except ValueError as exc:  # a non-finite flow, divergence or image
        raise InvalidSceneError(f"scene does not render at {width}x{height}: {exc}") from None


def _render(spec, camera, ego_motion, height, width):
    warp_motion = ego_motion.inverse()
    depth = DepthMap(depth_field(spec, ego_motion.translation[2], height, width))
    u, v = pixel_grid(height, width)

    flow = rigid_flow(camera, warp_motion, depth)
    flow_values = flow.values.copy()
    flow_mask = flow.mask.copy()

    dynamic_mask = np.zeros((height, width), bool)
    if spec.dynamic is not None:
        dynamic_mask = spec.dynamic.region_mask(height, width)
        delta = np.asarray(spec.dynamic.translation, dtype=float)
        X = backproject(camera, np.stack([u, v], axis=-1), depth.values) + delta
        points = warp_motion.apply_stacked(np.moveaxis(X, -1, 0))
        moved = FlowField(*_flow_from_points(camera, points, u, v))
        flow_values[dynamic_mask] = moved.values[dynamic_mask]
        flow_mask[dynamic_mask] &= moved.mask[dynamic_mask]
    flow_gt = FlowField(flow_values, flow_mask)

    image_s = Image(np.clip(spec.texture.sample(u, v), 0.0, 1.0))
    target_vals = spec.texture.sample(u + flow_values[..., 0], v + flow_values[..., 1])
    image_t = Image(np.clip(target_vals, 0.0, 1.0))

    grad = analytic_depth_gradient(spec, np.stack([u, v], axis=-1))
    if not np.isfinite(grad).all():
        raise InvalidSceneError("scene depth gradient is not finite")

    div = None
    if np.abs(ego_motion.rotation - np.eye(3)).max() < 1e-14:
        warp_t = warp_motion.translation
        values = _analytic_divergence_r_identity(camera, warp_t, depth.values, grad, u, v)
        if spec.dynamic is not None:
            dyn = _analytic_divergence_r_identity(camera, warp_t + delta, depth.values, grad, u, v)
            values = np.where(dynamic_mask, dyn, values)
        div = ScalarField(values, flow_mask.copy())

    return SceneBundle(
        camera=camera, motion=warp_motion, ego_motion=ego_motion, spec=spec, depth_gt=depth,
        flow_gt=flow_gt, image_t=image_t, image_s=image_s, analytic_depth_gradient=grad,
        analytic_flow_divergence=div, dynamic_mask=dynamic_mask,
    )


# ---------------------------------------------------------------------------
# flat key=value scene files


@dataclass(frozen=True)
class EgoMotionKeys:
    """The ego-motion as a scene file spells it; `motion` is its RigidMotion."""

    translation: tuple
    rotation: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        R = rotation_from_axis_angle(self.rotation)
        object.__setattr__(self, "motion", RigidMotion(R, np.asarray(self.translation)))


TEXT, ANY = "text", "any"  # value arities beside a fixed count of numbers

# every scene-file key in file order: (object it configures, field, arity);
# the defaults of absent keys are those of the object's fields
SCENE_KEYS = {
    "family": (SceneSpec, "family", TEXT), "depth": (SceneSpec, "depth", 1),
    "a": (SceneSpec, "a", 1), "b": (SceneSpec, "b", 1), "c": (SceneSpec, "c", 1),
    "depth_far": (SceneSpec, "depth_far", 1), "edge_u": (SceneSpec, "edge_u", 1),
    "bump_radius": (SceneSpec, "bump_radius", 1),
    "bump_amplitude": (SceneSpec, "bump_amplitude", 1),
    "bump_center": (SceneSpec, "bump_center", 2),
    "texture_base": (TextureSpec, "base", 1),
    "texture_amplitudes": (TextureSpec, "amplitudes", ANY),
    "texture_frequencies_u": (TextureSpec, "frequencies_u", ANY),
    "texture_frequencies_v": (TextureSpec, "frequencies_v", ANY),
    "texture_phases": (TextureSpec, "phases", ANY),
    "dynamic_shape": (DynamicObjectSpec, "shape", TEXT),
    "dynamic_center": (DynamicObjectSpec, "center", 2),
    "dynamic_half_size": (DynamicObjectSpec, "half_size", 2),
    "dynamic_translation": (DynamicObjectSpec, "translation", 3),
    "fx": (CameraIntrinsics, "fx", 1), "fy": (CameraIntrinsics, "fy", 1),
    "cx": (CameraIntrinsics, "cx", 1), "cy": (CameraIntrinsics, "cy", 1),
    "ego_rotation": (EgoMotionKeys, "rotation", 3),
    "ego_translation": (EgoMotionKeys, "translation", 3),
}
_KEY_OF = {(cls, field): key for key, (cls, field, _) in SCENE_KEYS.items()}


def _format(value, arity):
    if arity == TEXT:
        return str(value)
    return ",".join(repr(float(x)) for x in np.atleast_1d(value))


def _parse(key, text, arity):
    """The value of `key`; a malformed one raises InvalidSceneError naming it."""
    if arity == TEXT:
        return text
    try:
        values = tuple(float(x) for x in text.split(",") if x != "")
    except ValueError:
        raise InvalidSceneError(f"scene key {key}: {text!r} is not a list of numbers") from None
    if not np.isfinite(values).all():
        raise InvalidSceneError(f"scene key {key}: {text!r} has a non-finite number")
    if arity != ANY and len(values) != arity:
        raise InvalidSceneError(f"scene key {key} needs {arity} numbers, got {text!r}")
    return values[0] if arity == 1 else values


def _build(cls, values):
    """`cls` from its parsed fields: a field without a default must be
    given, and a value the constructor rejects names the keys given."""
    missing = [_KEY_OF[cls, f.name] for f in fields(cls)
               if f.default is MISSING and f.name not in values]
    if missing:
        raise InvalidSceneError(f"scene file is missing {', '.join(missing)}")
    try:
        with np.errstate(all="ignore"):  # overflow shows as NaN
            return cls(**values)
    except ValueError as exc:
        keys = ", ".join(_KEY_OF[cls, name] for name in values if (cls, name) in _KEY_OF)
        raise InvalidSceneError(f"scene keys {keys}: {exc}") from None


def write_scene_file(path, spec: SceneSpec, camera: CameraIntrinsics | None = None,
                     ego: EgoMotionKeys | None = None) -> None:
    """Serialize a scene (plus optional camera/ego-motion) one key per line.
    The ego-motion is written as its keys spell it, so a file read with
    `read_scene_keys` writes back byte for byte; a field left as None (taken
    from the grid) is left out."""
    objects = {SceneSpec: spec, TextureSpec: spec.texture, DynamicObjectSpec: spec.dynamic,
               CameraIntrinsics: camera, EgoMotionKeys: ego}
    lines = [f"{key}={_format(value, arity)}" for key, (cls, field, arity) in SCENE_KEYS.items()
             if (value := getattr(objects[cls], field, None)) is not None]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_scene_keys(path):
    """Parse a key=value scene file.

    Returns (SceneSpec, CameraIntrinsics or None, EgoMotionKeys or None).
    Unknown and repeated keys are rejected. Any key of the dynamic object,
    camera or ego-motion declares it; its absent keys take their defaults,
    and the four intrinsics and the ego translation have none.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise InvalidSceneError(f"scene file is not ASCII text ({exc.reason})") from None
    values = {cls: {} for cls, _, _ in SCENE_KEYS.values()}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidSceneError(f"scene file line is not key=value: {line!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in SCENE_KEYS:
            raise InvalidSceneError(f"scene key {key} is unknown")
        cls, field, arity = SCENE_KEYS[key]
        if field in values[cls]:
            raise InvalidSceneError(f"scene key {key} is set twice")
        values[cls][field] = _parse(key, text, arity)
    built = {cls: _build(cls, v) for cls, v in values.items() if v and cls is not SceneSpec}
    nested = {"texture": built.get(TextureSpec), "dynamic": built.get(DynamicObjectSpec)}
    spec = _build(SceneSpec, {**values[SceneSpec], **{k: v for k, v in nested.items() if v}})
    return spec, built.get(CameraIntrinsics), built.get(EgoMotionKeys)


def read_scene_file(path):
    """`read_scene_keys` with the ego-motion as its RigidMotion: returns
    (SceneSpec, CameraIntrinsics or None, RigidMotion or None)."""
    spec, camera, ego = read_scene_keys(path)
    return spec, camera, None if ego is None else ego.motion
