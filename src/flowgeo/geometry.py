"""Pinhole camera model, rigid motion, and dense flow-field primitives.

Conventions used throughout the package:

* pixels are (u, v) with u the column and v the row; grids are stored as
  numpy arrays indexed [v, u] (row-major), dtype float64;
* a flow field maps target pixels to source pixels: the correspondence of
  p is p + F(p);
* the motion handed to `rigid_flow` / triangulation is the *warp* motion:
  it maps target-view points into the source view, p_s = proj(K (R X + t)).
  The source-to-target ego-motion is its inverse (see `RigidMotion.inverse`);
* the pose has one expression, for floats and tape Vars alike: Rodrigues'
  rotation `rotation_rows` and the inverse translation -R^T t
  `inverse_translation`. `rotation_from_axis_angle` and `RigidMotion.inverse`
  evaluate them on floats, `grad` on the tape;
* the discrete divergence and grid gradient are *unnormalized* central
  differences (twice the analytic operator); border pixels use one-sided
  differences scaled by 2 so that linear fields are handled consistently.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BehindCameraError, DimensionError, InvalidDepthError, NonFiniteError

ORTHONORMALITY_TOL = 1e-12
Z_EPS = 1e-9
FLOW_NOT_FINITE = "flow contains non-finite values on valid pixels"


# ---------------------------------------------------------------------------
# camera and motion


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with zero skew."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("camera intrinsics must be finite")

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    @property
    def inverse_matrix(self) -> np.ndarray:
        return np.array(
            [
                [1.0 / self.fx, 0.0, -self.cx / self.fx],
                [0.0, 1.0 / self.fy, -self.cy / self.fy],
                [0.0, 0.0, 1.0],
            ]
        )


def rotation_rows(w1, w2, w3, sqrt=np.sqrt, sin=np.sin, cos=np.cos):
    """Rodrigues formula R = I + a K + b K^2 of the axis-angle (w1, w2, w3)
    as nested rows, with a = sin(theta)/theta and b = (1 - cos(theta))/theta^2.

    This is the package's one rotation expression. Its entries work on
    floats and on tape Vars alike; `sqrt`, `sin` and `cos` come from the
    caller (numpy here, `autodiff` on the tape, which imports this module).
    Below theta = 1e-3 the coefficients switch to their series, which keeps
    the tape smooth through zero rotation. A zero vector gives the identity.
    """
    s = w1 * w1 + w2 * w2 + w3 * w3
    if float(getattr(s, "value", s)) > 1e-6:  # a Var's value, or the float
        theta = sqrt(s)
        a = sin(theta) / theta
        b = (1.0 - cos(theta)) / s
    else:
        s2 = s * s
        a = 1.0 - s * (1.0 / 6.0) + s2 * (1.0 / 120.0) - s2 * s * (1.0 / 5040.0)
        b = 0.5 - s * (1.0 / 24.0) + s2 * (1.0 / 720.0) - s2 * s * (1.0 / 40320.0)
    k = {
        (0, 1): -w3, (0, 2): w2,
        (1, 0): w3, (1, 2): -w1,
        (2, 0): -w2, (2, 1): w1,
    }
    w = (w1, w2, w3)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            entry = b * (w[i] * w[j])
            row.append(entry + 1.0 - b * s if i == j else entry + a * k[i, j])
        rows.append(row)
    return rows


def rotation_from_axis_angle(w) -> np.ndarray:
    """Rodrigues formula: the float evaluation of `rotation_rows`, valid
    for any axis-angle vector."""
    return np.array(rotation_rows(*np.asarray(w, dtype=float).reshape(3).tolist()))


def inverse_translation(R, t):
    """-R^T t, the translation of the inverse of the motion (R, t), as a
    list of three entries. The one expression behind `RigidMotion.inverse`
    and the tape's source-to-target translation: R (rows or an array) and
    t may hold floats or tape Vars alike."""
    return [-(R[0][i] * t[0] + R[1][i] * t[1] + R[2][i] * t[2]) for i in range(3)]


def axis_angle_from_rotation(R) -> np.ndarray:
    """Inverse of `rotation_from_axis_angle` for angles below pi."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    vee = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if theta < 1e-8:
        return 0.5 * vee * (1.0 + theta**2 / 6.0)
    if theta < 2.8:
        return vee * (theta / (2.0 * np.sin(theta)))
    # near pi the vee/(2 sin) form loses ~1/sin(theta) digits; extract the
    # quaternion through its largest vector component instead (every other
    # component comes out of a division by it, so nothing amplifies noise)
    d = np.diag(R)
    i = int(np.argmax(d))
    j, k = (i + 1) % 3, (i + 2) % 3
    q = np.zeros(3)
    q[i] = 0.5 * np.sqrt(max(1.0 + d[i] - d[j] - d[k], 1e-30))
    q[j] = (R[j, i] + R[i, j]) / (4.0 * q[i])
    q[k] = (R[k, i] + R[i, k]) / (4.0 * q[i])
    q_w = (R[k, j] - R[j, k]) / (4.0 * q[i])
    if q_w < 0:  # keep the angle in [0, pi]
        q, q_w = -q, -q_w
    norm = np.linalg.norm(q)
    return q / norm * (2.0 * np.arctan2(norm, q_w))


@dataclass(frozen=True)
class RigidMotion:
    """SE(3) element: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        # negated comparisons, so a NaN entry fails them
        if not np.abs(R @ R.T - np.eye(3)).max() <= ORTHONORMALITY_TOL:
            raise ValueError("rotation is not orthonormal")
        if not abs(np.linalg.det(R) - 1.0) <= ORTHONORMALITY_TOL:
            raise ValueError("rotation determinant is not +1")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidMotion":
        return cls(np.eye(3), np.zeros(3))

    def inverse(self) -> "RigidMotion":
        return RigidMotion(self.rotation.T, inverse_translation(self.rotation, self.translation))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        return np.moveaxis(self.apply_stacked(np.moveaxis(points, -1, 0)), 0, -1)

    def apply_stacked(self, points: np.ndarray) -> np.ndarray:
        """Transform points stacked along the first axis, shape (3, ...): one
        (3, 3) x (3, N) product (the bits of a (..., 3) x (3, 3) product, at a
        fifth of its cost on a grid) plus the translation row by row."""
        p = np.asarray(points, dtype=float)
        out = (self.rotation @ p.reshape(3, -1)).reshape(p.shape)
        for i in range(3):
            out[i] += self.translation[i]
        return out


@dataclass(frozen=True)
class TwistParams:
    """Differentiable pose coordinates: 3 axis-angle rotation parameters
    followed by the 3 translation components."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(6)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_motion(cls, motion: RigidMotion) -> "TwistParams":
        return cls(np.concatenate([axis_angle_from_rotation(motion.rotation), motion.translation]))

    def to_motion(self) -> RigidMotion:
        return RigidMotion(rotation_from_axis_angle(self.values[:3]), self.values[3:])


# ---------------------------------------------------------------------------
# grid value types


def _require_finite(values, mask, message):
    """Raise NonFiniteError(message), a ValueError, unless `values` is
    finite wherever `mask` holds. The whole array is checked first; the
    masked copy is made only when that check fails, so a valid grid costs
    no copy."""
    if not np.isfinite(values).all() and not np.isfinite(values[mask]).all():
        raise NonFiniteError(message)


def _require_depth(values, mask=None):
    """Raise InvalidDepthError unless `values` is finite everywhere and
    strictly positive where `mask` holds (None: everywhere), as `DepthMap`
    checks it."""
    if not np.isfinite(values).all():
        raise InvalidDepthError("depth contains non-finite values")
    if not (values > 0).all() and (mask is None or not (values[mask] > 0).all()):
        raise InvalidDepthError("depth must be strictly positive where valid")


def _require_size(height, width):
    """Raise DimensionError naming a size that is not an integer (a bool, a float)."""
    for name, value in (("height", height), ("width", width)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DimensionError(f"{name} must be an integer, got {value!r}")


def _as_grid(values, name, depth_axes=2):
    v = np.asarray(values, dtype=float)
    if v.ndim != depth_axes:
        raise DimensionError(f"{name} must be a {depth_axes}-d array, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class DepthMap:
    """H x W per-pixel depth in scene units; strictly positive where valid."""

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        v = _as_grid(self.values, "depth")
        m = np.ones(v.shape, bool) if self.mask is None else np.asarray(self.mask, bool)
        if m.shape != v.shape:
            raise DimensionError("depth mask shape mismatch")
        _require_depth(v, m)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def shape(self):
        return self.values.shape


@dataclass(frozen=True)
class FlowField:
    """H x W grid of (u, v) displacements in pixels."""

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or v.shape[2] != 2:
            raise DimensionError(f"flow must have shape (H, W, 2), got {v.shape}")
        m = np.ones(v.shape[:2], bool) if self.mask is None else np.asarray(self.mask, bool)
        if m.shape != v.shape[:2]:
            raise DimensionError("flow mask shape mismatch")
        _require_finite(v, m, FLOW_NOT_FINITE)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)

    @property
    def shape(self):
        return self.values.shape[:2]


@dataclass(frozen=True)
class Image:
    """H x W (x C) intensities in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (2, 3) or (v.ndim == 3 and v.shape[2] not in (1, 3)):
            raise DimensionError(f"image must be HxW or HxWx{{1,3}}, got {v.shape}")
        if not np.isfinite(v).all() or v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("image intensities must be finite and in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape[:2]


@dataclass(frozen=True)
class ScalarField:
    """H x W grid of scalars, finite where the validity mask is true."""

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        v = _as_grid(self.values, "scalar field")
        m = np.ones(v.shape, bool) if self.mask is None else np.asarray(self.mask, bool)
        if m.shape != v.shape:
            raise DimensionError("scalar field mask shape mismatch")
        _require_finite(v, m, "scalar field has non-finite valid values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mask", m)


def pixel_grid(height: int, width: int):
    """(u, v) coordinate grids of shape (H, W)."""
    u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    return u, v


@dataclass(frozen=True)
class CameraGrid:
    """The pixel grid of one camera and image size: (u, v), the centred
    coordinates (u - cx, v - cy) and the normalized rays (xn, yn). The
    geometry kernels build one per call unless a caller that reuses them
    (the optimizer) passes its own."""

    u: np.ndarray
    v: np.ndarray
    uc: np.ndarray
    vc: np.ndarray
    xn: np.ndarray
    yn: np.ndarray

    @classmethod
    def of(cls, camera: CameraIntrinsics, height: int, width: int) -> "CameraGrid":
        u, v = pixel_grid(height, width)
        uc, vc = u - camera.cx, v - camera.cy
        return cls(u, v, uc, vc, uc / camera.fx, vc / camera.fy)

    def rays(self, R):
        """The rotated ray components r_i . [xn, yn, 1], i = 0, 1, 2; R is
        indexable as R[i][j], so its entries may be floats or tape Vars."""
        return [R[i][0] * self.xn + R[i][1] * self.yn + R[i][2] for i in range(3)]


# ---------------------------------------------------------------------------
# projections


def project(camera: CameraIntrinsics, point) -> np.ndarray:
    """Project a 3-D camera-frame point to a pixel. Raises for z <= 0."""
    X = np.asarray(point, dtype=float)
    if X.shape[-1:] != (3,):
        raise DimensionError("point must be a 3-vector")
    z = X[..., 2]
    if np.any(z <= 0):
        raise BehindCameraError("point has non-positive depth")
    return np.stack([camera.fx * X[..., 0] / z + camera.cx,
                     camera.fy * X[..., 1] / z + camera.cy], axis=-1)


def backproject(camera: CameraIntrinsics, pixel, depth) -> np.ndarray:
    """Lift a pixel at the given depth to a 3-D camera-frame point."""
    if np.any(np.asarray(depth) <= 0) or not np.all(np.isfinite(depth)):
        raise InvalidDepthError("depth must be positive and finite")
    p = np.asarray(pixel, dtype=float)
    if p.shape[-1:] != (2,):
        raise DimensionError("pixel must be a 2-vector")
    d = np.asarray(depth, dtype=float)
    return np.stack([d * (p[..., 0] - camera.cx) / camera.fx,
                     d * (p[..., 1] - camera.cy) / camera.fy, d * np.ones_like(p[..., 0])], axis=-1)


def _flow_from_points(camera, points, u, v):
    """Flow = projection of transformed points (stacked along the first
    axis, shape (3, H, W)) minus the pixel grid, as (values, valid); pixels
    whose transformed depth is non-positive are masked, not raised. A grid
    with every pixel valid skips the masking."""
    z = points[2]
    valid = z > Z_EPS
    everywhere = valid.all()
    safe_z = z if everywhere else np.where(valid, z, 1.0)
    flow = np.empty(z.shape + (2,))
    for i, (f, c, grid) in enumerate(((camera.fx, camera.cx, u), (camera.fy, camera.cy, v))):
        s = f * points[i]
        s /= safe_z
        s += c
        np.subtract(s, grid, out=flow[..., i])
    if not everywhere:
        flow[~valid] = 0.0
    return flow, valid


def rigid_flow_values(camera: CameraIntrinsics, motion: RigidMotion, depth, mask=None, grid=None):
    """The body of `rigid_flow` on raw arrays: (flow values (H, W, 2),
    valid mask) for a depth grid whose valid pixels are `mask` (None: all).
    `grid` is a `CameraGrid` to reuse. The values are not checked; callers
    that need a finite flow check it (`FlowField` does). A lane stack of
    depth grids (k, H, W) gives (k, H, W, 2) values, each lane's the bits
    of its grid alone."""
    shape = depth.shape
    if (motion.rotation == np.eye(3)).all() and (motion.translation == 0).all():
        # identity motion has identically zero flow; skip the reprojection
        # chain so no rounding wobble leaks in
        return np.zeros(shape + (2,)), np.ones(shape, bool) if mask is None else mask.copy()
    g = CameraGrid.of(camera, *shape[-2:]) if grid is None else grid
    X = np.empty((3,) + shape)  # the backprojected points, stacked
    for i, (c, f) in enumerate(((g.uc, camera.fx), (g.vc, camera.fy))):
        np.multiply(depth, c, out=X[i])
        X[i] /= f
    X[2] = depth
    flow, valid = _flow_from_points(camera, motion.apply_stacked(X), g.u, g.v)
    if mask is not None and not mask.all():
        valid = valid & mask
    return flow, valid


def rigid_flow(camera: CameraIntrinsics, motion: RigidMotion, depth: DepthMap) -> FlowField:
    """Apparent motion of a static scene under the warp motion:
    F(p) = proj(K (R backproject(p, D(p)) + t)) - p."""
    return FlowField(*rigid_flow_values(camera, motion, depth.values, depth.mask))


def rotational_flow(camera: CameraIntrinsics, rotation, height: int, width: int) -> FlowField:
    """Depth-independent flow of a pure rotation:
    F(p) = proj(K R K^-1 p~) - p, the rigid flow of a unit depth under
    (R, 0); the homogeneous scale cancels depth. A rotation that is not
    orthonormal raises ValueError (see `RigidMotion`), a size that is not an
    integer DimensionError."""
    _require_size(height, width)
    ones = np.ones((height, width))
    return FlowField(*rigid_flow_values(camera, RigidMotion(rotation, np.zeros(3)), ones))


def translational_flow(flow_o: FlowField, flow_rot: FlowField) -> FlowField:
    """Pointwise removal of the rotational component: F_tra = F_o - F_rot."""
    if flow_o.shape != flow_rot.shape:
        raise DimensionError("flow shapes do not match")
    return FlowField(flow_o.values - flow_rot.values, flow_o.mask & flow_rot.mask)


# ---------------------------------------------------------------------------
# grid differential operators (unnormalized convention)


def _stencil_lines(out, x, axis):
    """(out flat, x flat, step, size): `out` (C-contiguous) and `x` (of the
    same shape) as 1-D arrays, and the flat distance between neighbours
    along `axis`. A difference stencil along any axis is then one pass over
    the flat arrays, x[k + step] - x[k - step]. It is the stencil's own
    value wherever both neighbours lie on the entry's line along the axis;
    on the first and last entries of each line (all of them along axis 0
    are outside the pass) it reads across the line's ends, and the caller
    redoes those. `x` is flattened as a view where its strides allow, a
    copy otherwise."""
    step = 1
    for n in out.shape[axis + 1 :]:
        step *= n
    return out.reshape(-1), x.reshape(-1), step, out.size


def _axis_diff(values: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalized difference along an axis: interior x[i+1] - x[i-1],
    borders 2 * one-sided. Equals 2 * np.gradient for unit spacing, bit
    for bit: the slices repeat its arithmetic, then scale by 2. The
    interior runs on the flat arrays (`_stencil_lines`) for either axis,
    and the border rows overwrite what it wrote across the line ends. A
    negative axis counts from the last, so axis -1 (u) and -2 (v) serve a
    grid and a lane stack of grids alike."""
    x = np.asarray(values, dtype=float)
    axis %= x.ndim
    if x.shape[axis] < 3:
        raise DimensionError(
            f"the difference stencil needs at least 3 samples along axis {axis}, "
            f"got shape {x.shape}"
        )
    out = np.empty(x.shape)
    o_flat, x_flat, s, size = _stencil_lines(out, x, axis)
    interior = o_flat[s : size - s]
    np.subtract(x_flat[2 * s :], x_flat[: size - 2 * s], out=interior)
    interior /= 2.0
    o, v = out.swapaxes(0, axis), x.swapaxes(0, axis)  # views, stencil axis first
    np.subtract(v[1], v[0], out=o[0])
    np.subtract(v[-1], v[-2], out=o[-1])
    out *= 2.0
    return out


@np.errstate(invalid="ignore")  # the stencils read inf at masked-out pixels
def divergence(flow: FlowField) -> ScalarField:
    """Discrete flow divergence,
    div F(u, v) = -F_u(u-1, v) + F_u(u+1, v) + F_v(u, v+1) - F_v(u, v-1),
    i.e. twice the analytic divergence; border pixels use one-sided
    differences scaled by 2."""
    H, W = flow.shape
    if H < 3 or W < 3:
        raise DimensionError("divergence needs at least a 3x3 grid")
    return ScalarField(
        _axis_diff(flow.values[..., 0], axis=1) + _axis_diff(flow.values[..., 1], axis=0),
        flow.mask.copy(),
    )


def grid_gradient(values: np.ndarray) -> np.ndarray:
    """Per-pixel (d/du, d/dv) in the same unnormalized convention as
    `divergence`; returns shape (H, W, 2)."""
    v = _as_grid(values, "field")
    if v.shape[0] < 3 or v.shape[1] < 3:
        raise DimensionError("gradient needs at least a 3x3 grid")
    return np.stack([_axis_diff(v, axis=1), _axis_diff(v, axis=0)], axis=-1)


def interior_mask(height: int, width: int) -> np.ndarray:
    """True away from the 1-pixel border (where central stencils apply)."""
    m = np.zeros((height, width), bool)
    m[1:-1, 1:-1] = True
    return m


# ---------------------------------------------------------------------------
# bilinear warping


def _clamp(x, lo, hi):
    """`np.clip(x, lo, hi)` bit for bit, without its Python-level wrapper:
    NaN propagates, and an entry equal to a bound (a -0.0 against a 0.0
    bound) is kept, because numpy's maximum and minimum return their second
    operand on a tie."""
    return np.minimum(hi, np.maximum(lo, x))


def _bilinear_terms(values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Clamp (xs, ys) into the image rectangle, gather the four corner
    samples and blend them: the one bilinear kernel behind
    `bilinear_sample` and the tape op `autodiff.bilinear`.

    Returns (sampled, inside, (wy, v00, v01, v10, v11, top, bottom,
    1 - wy, inside along x, inside along y)); the trailing terms are what
    the tape needs for its coordinate adjoints, with `wy` shaped to
    broadcast against the corner samples. On a 1-wide (1-high) image the
    +1 neighbour is the last column (row) itself.
    """
    H, W = values.shape[:2]
    x = _clamp(xs, 0.0, W - 1.0)
    y = _clamp(ys, 0.0, H - 1.0)
    # a coordinate lies in [0, W - 1] exactly where clamping keeps it (a NaN
    # is neither), and the cast of a clamped coordinate is its floor
    in_x, in_y = x == xs, y == ys
    x0 = _clamp(x.astype(int), 0, max(W - 2, 0))
    y0 = _clamp(y.astype(int), 0, max(H - 2, 0))
    wx = x - x0
    wy = y - y0
    if values.ndim == 3:
        wx = wx[..., None]
        wy = wy[..., None]
    # gather the corners from the flattened image at y0*W + x0, the other
    # three through views that start `right`, `down` or both entries later
    flat = values.reshape((H * W,) + values.shape[2:])
    right, down = (1 if W > 1 else 0), (W if H > 1 else 0)
    i00 = y0 * W + x0
    v00 = flat.take(i00, axis=0)
    v01 = flat[right:].take(i00, axis=0)
    v10 = flat[down:].take(i00, axis=0)
    v11 = flat[down + right :].take(i00, axis=0)
    wx_rest, wy_rest = 1.0 - wx, 1.0 - wy
    top = v00 * wx_rest + v01 * wx
    bottom = v10 * wx_rest + v11 * wx
    return (top * wy_rest + bottom * wy, in_x & in_y,
            (wy, v00, v01, v10, v11, top, bottom, wy_rest, in_x, in_y))


@np.errstate(invalid="ignore")  # the integer cast of a NaN coordinate
def bilinear_sample(values: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Sample `values` (H x W or H x W x C) at continuous (xs, ys).

    Returns (sampled, inside) where `inside` marks sample points within the
    image rectangle [0, W-1] x [0, H-1]; outside samples are clamped for
    indexing and should be discarded via the mask. A NaN coordinate is
    outside.
    """
    sampled, inside, _ = _bilinear_terms(values, xs, ys)
    return sampled, inside


def warp(source: Image, flow: FlowField):
    """Inverse-warp the source image through the flow: the output at p is
    the bilinear sample of `source` at p + F(p).

    Returns (Image, mask); the mask is false where the sample point leaves
    the image rectangle or the flow itself is invalid. A NaN flow, which
    `FlowField` allows only where it is invalid, is sampled as zero flow.
    """
    H, W = source.shape
    if flow.shape != (H, W):
        raise DimensionError("flow and image shapes do not match")
    u, v = pixel_grid(H, W)
    f = flow.values
    f = np.where(np.isnan(f), 0.0, f)
    sampled, inside = bilinear_sample(source.values, u + f[..., 0], v + f[..., 1])
    return Image(np.clip(sampled, 0.0, 1.0)), inside & flow.mask
