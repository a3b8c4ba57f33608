"""Closed-form per-pixel depth from dense correspondences and a warp motion.

Given a flow field F (target -> source) and the warp motion (R, t), each
pixel's depth follows from the two normalized image axes:

    d = sum_i (t_i - s_i t_3) / sum_i (s_i r_3.x - r_i.x),   i in {1, 2}

with x = K^-1 p~ the normalized target ray and s = K^-1 (p~ + [F; 0]) the
normalized source ray. The two axes are combined as a single ratio (sum of
numerators over sum of denominators). Degenerate pixels are masked with a
per-pixel code, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import autodiff as ad
from .geometry import CameraIntrinsics, DepthMap, FlowField, RigidMotion, pixel_grid

DEGENERATE_DENOMINATOR_EPS = 1e-8


class Degeneracy(IntEnum):
    OK = 0
    NEAR_ZERO_DENOMINATOR = 1
    NEGATIVE_DEPTH = 2
    MASKED_FLOW = 3


@dataclass(frozen=True)
class TriangulationResult:
    depth_g: DepthMap
    validity: np.ndarray
    degeneracy: np.ndarray  # uint8 grid of Degeneracy codes

    @property
    def valid_fraction(self) -> float:
        return float(self.validity.mean())


def normalized_correspondences(camera: CameraIntrinsics, pixel, flow):
    """Normalized camera coordinates of a pixel and of its correspondence:
    (K^-1 p~, K^-1 (p~ + [flow; 0])); both have third component 1."""
    p = np.asarray(pixel, dtype=float)
    f = np.asarray(flow, dtype=float)
    ones = np.ones_like(p[..., 0])
    p_t = np.stack(
        [(p[..., 0] - camera.cx) / camera.fx, (p[..., 1] - camera.cy) / camera.fy, ones],
        axis=-1,
    )
    p_s = np.stack(
        [
            (p[..., 0] + f[..., 0] - camera.cx) / camera.fx,
            (p[..., 1] + f[..., 1] - camera.cy) / camera.fy,
            ones,
        ],
        axis=-1,
    )
    return p_t, p_s


def triangulation_ratio(camera: CameraIntrinsics, R, t, f_u, f_v):
    """Numerator and denominator of the depth ratio in the module docstring.

    R (3x3, indexable as R[i][j]) and t are the warp motion; (f_u, f_v) the
    flow components on the H x W grid. Entries may be floats and arrays or
    tape Vars alike, so this one expression is the body of both
    `triangulate_depth` and `grad.triangulate_graph`.
    """
    H, W = np.shape(f_u.value if isinstance(f_u, ad.Var) else f_u)
    u, v = pixel_grid(H, W)
    xn = (u - camera.cx) / camera.fx
    yn = (v - camera.cy) / camera.fy
    s_u = (f_u + u - camera.cx) / camera.fx
    s_v = (f_v + v - camera.cy) / camera.fy
    r_dot = [R[i][0] * xn + R[i][1] * yn + R[i][2] for i in range(3)]  # r_i . x
    numerator = (t[0] - s_u * t[2]) + (t[1] - s_v * t[2])
    denominator = (s_u * r_dot[2] - r_dot[0]) + (s_v * r_dot[2] - r_dot[1])
    return numerator, denominator


def triangulate_depth(
    camera: CameraIntrinsics,
    motion: RigidMotion,
    flow: FlowField,
) -> TriangulationResult:
    """Triangulate a depth map from flow under the warp motion.

    Pixels with |denominator| < DEGENERATE_DENOMINATOR_EPS (no parallax),
    negative solutions, or invalid flow are masked with their degeneracy
    code.
    """
    H, W = flow.shape
    numerator, denominator = triangulation_ratio(
        camera, motion.rotation, motion.translation, flow.values[..., 0], flow.values[..., 1]
    )

    codes = np.zeros((H, W), dtype=np.uint8)
    codes[~flow.mask] = Degeneracy.MASKED_FLOW
    near_zero = np.abs(denominator) < DEGENERATE_DENOMINATOR_EPS
    small = near_zero & flow.mask
    codes[small] = Degeneracy.NEAR_ZERO_DENOMINATOR

    safe = np.where(near_zero, 1.0, denominator)
    depth = numerator / safe
    negative = (depth <= 0) & flow.mask & ~small
    codes[negative] = Degeneracy.NEGATIVE_DEPTH

    validity = codes == Degeneracy.OK
    depth = np.where(validity, depth, 1.0)
    return TriangulationResult(DepthMap(depth, validity), validity, codes)
