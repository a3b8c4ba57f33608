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
from .errors import DimensionError
from .geometry import CameraGrid, CameraIntrinsics, DepthMap, FlowField, RigidMotion

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
    if p.shape[-1:] != (2,) or f.shape[-1:] != (2,):
        raise DimensionError("pixel and flow must be 2-vectors")
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


def triangulation_ratio(camera: CameraIntrinsics, R, t, f_u, f_v, grid=None, rays=None):
    """Numerator and denominator of the depth ratio in the module docstring.

    R (3x3, indexable as R[i][j]) and t are the warp motion; (f_u, f_v) the
    flow components on the H x W grid. Entries may be floats and arrays or
    tape Vars alike, so this one expression is the body of both
    `triangulate_depth` and `grad.LossPlan`'s depth. A caller that holds
    the `CameraGrid` and the rows `grid.rays(R)` of a fixed rotation may
    pass them instead of having them rebuilt.
    """
    if grid is None:
        grid = CameraGrid.of(camera, *np.shape(ad.value_of(f_u))[-2:])
    r_dot = grid.rays(R) if rays is None else rays  # r_i . x
    s_u = (f_u + grid.u - camera.cx) / camera.fx
    s_v = (f_v + grid.v - camera.cy) / camera.fy
    numerator = (t[0] - s_u * t[2]) + (t[1] - s_v * t[2])
    denominator = (s_u * r_dot[2] - r_dot[0]) + (s_v * r_dot[2] - r_dot[1])
    return numerator, denominator


def depth_from_ratio(numerator, denominator, flow_mask):
    """(depth, validity, near-zero denominators) of the ratio arrays: the
    one validity rule of triangulation, shared by `triangulate_depth` and
    `grad.LossPlan`. A pixel is valid where its flow is, its
    |denominator| is at least DEGENERATE_DENOMINATOR_EPS and its depth is
    not <= 0 (a NaN depth stays valid); invalid pixels hold depth 1.0."""
    near_zero = np.abs(denominator) < DEGENERATE_DENOMINATOR_EPS
    depth = numerator / np.where(near_zero, 1.0, denominator)
    validity = ~(depth <= 0) & flow_mask & ~near_zero
    return np.where(validity, depth, 1.0), validity, near_zero


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
    numerator, denominator = triangulation_ratio(
        camera, motion.rotation, motion.translation, flow.values[..., 0], flow.values[..., 1]
    )
    depth, validity, near_zero = depth_from_ratio(numerator, denominator, flow.mask)
    # the codes in order of precedence: masked flow, no parallax, depth <= 0
    codes = np.where(validity, Degeneracy.OK, Degeneracy.NEGATIVE_DEPTH).astype(np.uint8)
    codes[near_zero] = Degeneracy.NEAR_ZERO_DENOMINATOR
    codes[~flow.mask] = Degeneracy.MASKED_FLOW
    return TriangulationResult(DepthMap(depth, validity), validity, codes)
