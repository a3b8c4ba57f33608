"""Loss functionals over grids: photometric (SSIM + L1), geometric depth
consistency, flow-divergence / depth-gradient correlation, rigid/optical
flow co-adjustment, the edge-aware smoothness baseline, and depth metrics.

Every loss is a masked mean over valid pixels with deterministic summation
order. The cores are written against the autodiff tape so the same
expressions serve forward evaluation and exact differentiation; the public
wrappers accept the typed grid values and return plain records. Each
channel pair of the photometric term is one tape node
(`photometric_channel`) whose adjoint replays, product for product and in
the same accumulation order, the backward pass of the composed SSIM + L1
graph, so its gradients keep their bits.

Relative-error denominators are guarded (the printed formulas are not):
EPS_DIV for depth, EPS_DPC for the differential fields, EPS_FLOW for flow
magnitudes. Guard-dominated pixel fractions are reported as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DegenerateTranslationError, DimensionError, NoValidPixelsError
from .geometry import (
    CameraGrid,
    CameraIntrinsics,
    DepthMap,
    FlowField,
    Image,
    RigidMotion,
    ScalarField,
    interior_mask,
)
from .triangulate import TriangulationResult

ALPHA_DEFAULT = 0.85  # SSIM weight in the photometric loss
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2
EPS_DIV = 1e-6  # depth denominator guard
EPS_DPC = 1e-4  # |C^D| guard for flat-depth pixels
EPS_FLOW = 1e-3  # flow-magnitude guard (pixels)
EPS_T3 = 1e-6  # minimum forward translation for the divergence relation
EPS_GEO = 1e-6  # |D - t3| masking threshold
IDENTITY_FIELD_DIVERGENCE = 4.0  # div of the pixel-identity field, unnormalized stencil


@dataclass(frozen=True)
class LossValue:
    """A reported loss: non-negative scalar plus the pixel count it
    averaged over; guard_fraction is the share of valid pixels whose
    denominator guard dominated."""

    value: float
    valid_pixel_count: int
    guard_fraction: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("loss value is not finite")
        if self.valid_pixel_count <= 0:
            raise NoValidPixelsError("a reported loss needs at least one valid pixel")


@dataclass(frozen=True)
class DifferentialFields:
    """Paired scalar fields built from flow divergence (c_f) and depth
    gradient (c_d), plus the q offset field they share."""

    c_f: ScalarField
    c_d: ScalarField
    q: np.ndarray
    validity: np.ndarray


def _require_mask(mask, label):
    if not mask.any():
        raise NoValidPixelsError(f"{label}: empty valid set")
    return mask


# ---------------------------------------------------------------------------
# tape cores (accept Var or ndarray; return Var)


def ssim_stats(b):
    """The statistics SSIM takes of one image channel on its own, as plain
    arrays: its 3x3 mean mu, mu * mu, and its variance box3(b * b) - mu * mu.
    A fixed reference image needs them only once."""
    b = np.asarray(b, dtype=float)
    mu = ad._box3(b)
    mu_sq = mu * mu
    return mu, mu_sq, ad._box3(b * b) - mu_sq


def _ssim_terms(a, b, b_stats):
    """Per-pixel SSIM of channel `a` against the reference channel `b`,
    with 3x3 zero-padded mean-pool statistics, and the intermediates its
    adjoint reads: (ssim, mu_a, mu_b, num, den, the two factors of num,
    the two factors of den)."""
    mu_b, mu_b_sq, var_b = b_stats
    mu_a = ad._box3(a)
    mu_a_sq = mu_a * mu_a
    var_a = ad._box3(a * a) - mu_a_sq
    mu_ab = mu_a * mu_b
    cov = ad._box3(a * b) - mu_ab
    num_l = mu_ab * 2.0 + SSIM_C1
    num_r = cov * 2.0 + SSIM_C2
    den_l = mu_a_sq + mu_b_sq + SSIM_C1
    den_r = var_a + var_b + SSIM_C2
    num, den = num_l * num_r, den_l * den_r
    with np.errstate(divide="ignore", invalid="ignore"):
        s = num / den
    return s, mu_a, mu_b, num, den, num_l, num_r, den_l, den_r


def reference_channels(i_t):
    """(channel, its `ssim_stats`) per channel of the reference image, as
    plain arrays: the image-only half of `photometric_core`."""
    return [(ch, ssim_stats(ch)) for ch in _channels(i_t)]


def _channels(values):
    """The 2-D channels of an (H, W) or (H, W, C) image."""
    values = np.asarray(values, dtype=float)
    return [values] if values.ndim == 2 else [values[..., c] for c in range(values.shape[2])]


def photometric_channel(ch_t, stats, ch_w, alpha=ALPHA_DEFAULT):
    """alpha (1 - SSIM(ch_w, ch_t))/2 + (1 - alpha) |ch_t - ch_w| per pixel,
    as one tape node. The reference channel `ch_t` (with its `ssim_stats`)
    is constant; the warped channel `ch_w` is the active input.

    The forward evaluates the composed SSIM + L1 expression operation by
    operation. The adjoint replays the backward pass the tape would run
    over that composed graph: the same products and quotients, with the
    contributions to each intermediate summed in reverse creation order.
    So the gradient keeps its bits; only the node count changes.
    """
    ch_w = ad.as_var(ch_w)
    a, b = ch_w.value, ch_t
    s, mu_a, mu_b, num, den, num_l, num_r, den_l, den_r = _ssim_terms(a, b, stats)
    half_alpha, beta = alpha * 0.5, 1.0 - alpha
    diff = b - a
    out = (1.0 - s) * half_alpha + np.abs(diff) * beta

    def vjp(g):
        # the L1 branch was created last, so it reaches ch_w first
        g_a = -(g * beta * np.sign(diff))
        g_s = -(g * half_alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            g_num = g_s / den
            g_den = -g_s * num / (den * den)
        # mu_a gathers den's mu_a*mu_a (twice), num's and cov's mu_a*mu_b,
        # then var's mu_a*mu_a (twice)
        twice = g_den * den_r * mu_a
        g_mu = twice + twice
        g_mu += g_num * num_r * 2.0 * mu_b
        g_cov = g_num * num_l * 2.0
        g_mu += -g_cov * mu_b
        g_a += ad._box3(g_cov) * b
        g_var = g_den * den_l
        twice = -g_var * mu_a
        g_mu += twice
        g_mu += twice
        twice = ad._box3(g_var) * a
        g_a += twice
        g_a += twice
        g_a += ad._box3(g_mu)
        return g_a

    return ad.Var(out, parents=((ch_w, vjp),))


def photometric_core(i_t, i_warped, mask, alpha=ALPHA_DEFAULT, reference=None):
    """alpha (1 - SSIM)/2 + (1 - alpha) |i_t - i_warped|, channel-averaged,
    masked mean. i_t is the constant reference; `reference` may carry its
    `reference_channels` from an earlier call. Each channel pair is one
    `photometric_channel` node, whose adjoint replays the order of the
    composed SSIM + L1 graph."""
    i_warped = ad.as_var(i_warped)
    if reference is None:
        reference = reference_channels(i_t)
    if np.ndim(i_warped.value) == 2:
        per_pixel = photometric_channel(*reference[0], i_warped, alpha)
    else:
        acc = None
        for c, (ch_t, stats) in enumerate(reference):
            term = photometric_channel(ch_t, stats, ad.take_channel(i_warped, c), alpha)
            acc = term if acc is None else acc + term
        per_pixel = acc * (1.0 / len(reference))
    return ad.masked_mean(per_pixel, mask)


def cgdc_core(d_g_values, d_c, mask):
    """Masked mean of |D_g - D_c| / D_c (denominator guarded)."""
    rel = ad.div(ad.absolute(ad.sub(d_g_values, d_c)), ad.maximum(ad.as_var(d_c), EPS_DIV))
    return ad.masked_mean(rel, mask)


def differential_offsets(camera: CameraIntrinsics, t_ego, grid: CameraGrid):
    """The pose half of C^D as tape nodes: the offset field
    (q_u, q_v) = (u - cx - fx t1/t3, v - cy - fy t2/t3)."""
    t1, t2, t3 = (ad.as_var(t) for t in t_ego)
    q_u = ad.sub(grid.uc, ad.mul(camera.fx, ad.div(t1, t3)))
    q_v = ad.sub(grid.vc, ad.mul(camera.fy, ad.div(t2, t3)))
    return q_u, q_v


def differential_flow_side(f_tra_u, f_tra_v):
    """The flow half of C^F as a tape node: the (unnormalized) divergence
    of the translational flow."""
    return ad.axis_diff(f_tra_u, axis=1) + ad.axis_diff(f_tra_v, axis=0)


def differential_depth_side(t3, d_c, q_u, q_v, div_f, depth_gradient=None, interior=None):
    """The depth half of C^F and C^D: (c_f, c_d, validity) from the
    `differential_offsets` and the `differential_flow_side`. `interior` is
    the `interior_mask` of the grid, if the caller holds it."""
    d_c = ad.as_var(d_c)
    shifted = ad.sub(d_c, t3)
    c_f = ad.mul(ad.div(shifted, t3), div_f) - IDENTITY_FIELD_DIVERGENCE

    if depth_gradient is None:
        g_u = ad.axis_diff(d_c, axis=1)
        g_v = ad.axis_diff(d_c, axis=0)
    else:
        g_u = ad.as_var(2.0 * depth_gradient[..., 0])
        g_v = ad.as_var(2.0 * depth_gradient[..., 1])
    c_d = ad.div(-(ad.mul(q_u, g_u) + ad.mul(q_v, g_v)), shifted)
    if interior is None:
        interior = interior_mask(*np.shape(d_c.value))
    validity = interior & (np.abs(shifted.value) >= EPS_GEO)
    return c_f, c_d, validity


def differential_fields_core(
    camera: CameraIntrinsics,
    t_ego,
    d_c,
    f_tra_u,
    f_tra_v,
    depth_gradient=None,
):
    """C^F and C^D as tape nodes.

    t_ego is the (t1, t2, t3) source-to-target translation (scalars or
    Vars); f_tra the translational flow components. If `depth_gradient`
    (analytic dD/du, dD/dv) is given it is scaled x2 into the unnormalized
    stencil convention; otherwise the discrete stencil of d_c is used.

    Returns (c_f, c_d, q_u, q_v, validity); validity excludes the image
    border (central stencils only) and pixels with |D - t3| < EPS_GEO.
    """
    t_ego = tuple(ad.as_var(t) for t in t_ego)
    d_c = ad.as_var(d_c)
    q_u, q_v = differential_offsets(camera, t_ego, CameraGrid.of(camera, *np.shape(d_c.value)))
    div_f = differential_flow_side(f_tra_u, f_tra_v)
    c_f, c_d, validity = differential_depth_side(t_ego[2], d_c, q_u, q_v, div_f, depth_gradient)
    return c_f, c_d, q_u, q_v, validity


def dpc_core(c_f, c_d, mask):
    """Masked mean of |C^D - C^F| / (|C^D| + EPS_DPC)."""
    rel = ad.div(ad.absolute(ad.sub(c_d, c_f)), ad.absolute(c_d) + EPS_DPC)
    return ad.masked_mean(rel, mask)


def bsca_core(f_r_u, f_r_v, f_o_u, f_o_v, mask):
    """Masked mean of ||F_r - F_o||_1 / (||F_o||_1 + EPS_FLOW)."""
    n_diff = ad.absolute(ad.sub(f_r_u, f_o_u)) + ad.absolute(ad.sub(f_r_v, f_o_v))
    n_o = ad.absolute(ad.as_var(f_o_u)) + ad.absolute(ad.as_var(f_o_v))
    return ad.masked_mean(ad.div(n_diff, n_o + EPS_FLOW), mask)


def smoothness_core(d, image_values):
    """Edge-aware smoothness on mean-normalized depth with forward
    differences: sum over axes of mean(|diff d*| exp(-|diff I|))."""
    d = ad.as_var(d)
    H, W = np.shape(d.value)
    img = np.asarray(image_values, dtype=float)
    if img.ndim == 3:
        img = img.mean(axis=2)
    d_star = ad.div(d, ad.total(d) * (1.0 / (H * W)))
    du = ad.absolute(ad.forward_diff(d_star, axis=1))
    dv = ad.absolute(ad.forward_diff(d_star, axis=0))
    wu = np.exp(-np.abs(np.diff(img, axis=1)))
    wv = np.exp(-np.abs(np.diff(img, axis=0)))
    term_u = ad.masked_mean(ad.mul(du, wu), np.ones(wu.shape, bool))
    term_v = ad.masked_mean(ad.mul(dv, wv), np.ones(wv.shape, bool))
    return term_u + term_v


# ---------------------------------------------------------------------------
# public wrappers


def ssim(a: Image, b: Image) -> ScalarField:
    """Channel-averaged per-pixel SSIM map; values lie in [-1, 1]."""
    if a.values.shape != b.values.shape:
        raise DimensionError("ssim inputs must share a shape")
    maps = [_ssim_terms(a_c, b_c, stats)[0]
            for a_c, (b_c, stats) in zip(_channels(a.values), reference_channels(b.values))]
    return ScalarField(maps[0] if a.values.ndim == 2 else np.mean(maps, axis=0))


def photometric_loss(i_t: Image, i_warped: Image, mask=None, alpha: float = ALPHA_DEFAULT) -> LossValue:
    if i_t.values.shape != i_warped.values.shape:
        raise DimensionError("photometric inputs must share a shape")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    m = np.ones(i_t.shape, bool) if mask is None else np.asarray(mask, bool)
    _require_mask(m, "photometric_loss")
    value = photometric_core(i_t.values, i_warped.values, m, alpha).value
    return LossValue(float(value), int(m.sum()))


def cgdc_loss(d_g: TriangulationResult, d_c: DepthMap) -> LossValue:
    mask = d_g.validity & d_c.mask
    _require_mask(mask, "cgdc_loss")
    value = cgdc_core(d_g.depth_g.values, d_c.values, mask).value
    guard = float((d_c.values[mask] < EPS_DIV).mean())
    return LossValue(float(value), int(mask.sum()), guard)


def differential_fields(
    camera: CameraIntrinsics,
    motion: RigidMotion,
    d_c: DepthMap,
    f_tra: FlowField,
    depth_gradient: np.ndarray | None = None,
) -> DifferentialFields:
    """Build the paired differential fields.

    `motion` carries the source-to-target ego translation (t1, t2, t3)
    that parameterizes the flow/depth relation; `f_tra` is the
    translational flow. Validity excludes the image border (central
    stencils only) and pixels with |D - t3| < EPS_GEO.
    """
    t = motion.translation
    if abs(t[2]) <= EPS_T3:
        raise DegenerateTranslationError(
            f"|t3| = {abs(t[2]):.3g} is too small for the divergence relation"
        )
    if d_c.shape != f_tra.shape:
        raise DimensionError("depth and flow shapes do not match")
    c_f, c_d, q_u, q_v, validity = differential_fields_core(
        camera,
        (t[0], t[1], t[2]),
        d_c.values,
        f_tra.values[..., 0],
        f_tra.values[..., 1],
        depth_gradient,
    )
    validity = validity & f_tra.mask & d_c.mask
    q = np.stack([q_u.value, q_v.value], axis=-1)
    return DifferentialFields(
        c_f=ScalarField(c_f.value, validity),
        c_d=ScalarField(c_d.value, validity),
        q=q,
        validity=validity,
    )


def dpc_loss(fields: DifferentialFields) -> LossValue:
    mask = _require_mask(fields.validity, "dpc_loss")
    value = dpc_core(fields.c_f.values, fields.c_d.values, mask).value
    guard = float((np.abs(fields.c_d.values[mask]) < EPS_DPC).mean())
    return LossValue(float(value), int(mask.sum()), guard)


def bsca_loss(f_r: FlowField, f_o: FlowField) -> LossValue:
    if f_r.shape != f_o.shape:
        raise DimensionError("flow shapes do not match")
    mask = _require_mask(f_r.mask & f_o.mask, "bsca_loss")
    value = bsca_core(
        f_r.values[..., 0], f_r.values[..., 1], f_o.values[..., 0], f_o.values[..., 1], mask
    ).value
    n_o = np.abs(f_o.values[..., 0]) + np.abs(f_o.values[..., 1])
    guard = float((n_o[mask] < EPS_FLOW).mean())
    return LossValue(float(value), int(mask.sum()), guard)


def edge_aware_smoothness(d: DepthMap, i: Image) -> LossValue:
    if d.shape != i.shape:
        raise DimensionError("depth and image shapes do not match")
    value = smoothness_core(d.values, i.values).value
    return LossValue(float(value), int(d.values.size))


# ---------------------------------------------------------------------------
# depth metrics


@dataclass(frozen=True)
class DepthMetrics:
    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float

    def as_dict(self) -> dict:
        return {
            "abs_rel": self.abs_rel,
            "sq_rel": self.sq_rel,
            "rmse": self.rmse,
            "rmse_log": self.rmse_log,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
        }


def depth_metrics(d_pred: DepthMap, d_gt: DepthMap, mask=None) -> DepthMetrics:
    """Standard depth error/accuracy scalars over the valid set."""
    if d_pred.shape != d_gt.shape:
        raise DimensionError("depth shapes do not match")
    m = d_pred.mask & d_gt.mask
    if mask is not None:
        m = m & np.asarray(mask, bool)
    _require_mask(m, "depth_metrics")
    p = d_pred.values[m]
    g = d_gt.values[m]
    err = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(err) / g)),
        sq_rel=float(np.mean(err**2 / g)),
        rmse=float(np.sqrt(np.mean(err**2))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25**2)),
        delta3=float(np.mean(ratio < 1.25**3)),
    )
