"""Loss functionals over grids: photometric (SSIM + L1), geometric depth
consistency, flow-divergence / depth-gradient correlation, rigid/optical
flow co-adjustment, the edge-aware smoothness baseline, and depth metrics.

Every loss is a masked mean over valid pixels with deterministic summation
order. Each loss term is one tape node (`photometric_core`, `cgdc_core`,
`dpc_core` over the depth side of C^F/C^D, `bsca_core`, `smoothness_core`):
its forward evaluates the composed expression operation by operation, and
its one vjp computes the backward pass the tape would run over the
composed graph of elementary ops, product for product, with each
intermediate's contributions summed in reverse creation order. Its inputs
list an entry per contribution the composed graph hands an input, in the
order it hands them (see the node rule in `autodiff`). So gradients keep
their bits while a term costs one node. The same cores give the values of
the public wrappers, which accept the typed grid values and return plain
records. The composed graphs live in `tests/composed.py` as the nodes'
twins, with the elementary ops no node of the package calls: |.|, the sum,
the masked mean and the forward difference among them.

The cores of the descent's terms take a depth (or flow) grid, or a lane
stack of them (k, H, W) for the lockstep descent: each lane then gets its
own masked mean, so the node's value is a (k,) vector
(`autodiff._lane_means`), and every array pass is elementwise or runs each
lane's grid by itself (`autodiff._box3` and the stencils, along the last
two axes), so each lane keeps the bits of its grid alone. Smoothness,
which no descent uses, takes a grid.

Relative-error denominators are guarded (the printed formulas are not):
EPS_DIV for depth, EPS_DPC for the differential fields, EPS_FLOW for flow
magnitudes. Guard-dominated pixel fractions are reported as diagnostics.
Masked pixels may still divide by zero, so each function that divides runs
with numpy's divide and invalid warnings off: `np.errstate` as a
decorator, one switch per call, and `autodiff.backward` does the same for
every vjp (and turns overflow warnings off too).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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
    _axis_diff,
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
    mu, box_bb = ad._box3(b, b * b)
    mu_sq = mu * mu
    return mu, mu_sq, box_bb - mu_sq


@np.errstate(divide="ignore", invalid="ignore")
def _ssim_terms(a, b, b_stats):
    """Per-pixel SSIM of channel `a` against the reference channel `b`,
    with 3x3 zero-padded mean-pool statistics, and the intermediates its
    adjoint reads: (ssim, mu_a, mu_b, num, den, the two factors of num,
    the two factors of den)."""
    mu_b, mu_b_sq, var_b = b_stats
    mu_a, box_aa, box_ab = ad._box3(a, a * a, a * b)
    mu_a_sq = mu_a * mu_a
    var_a = box_aa - mu_a_sq
    mu_ab = mu_a * mu_b
    cov = box_ab - mu_ab
    num_l = mu_ab * 2.0 + SSIM_C1
    num_r = cov * 2.0 + SSIM_C2
    den_l = mu_a_sq + mu_b_sq + SSIM_C1
    den_r = var_a + var_b + SSIM_C2
    num, den = num_l * num_r, den_l * den_r
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


def _channel_terms(ch_t, stats, a, alpha):
    """alpha (1 - SSIM(a, ch_t))/2 + (1 - alpha) |ch_t - a| per pixel for
    one channel pair, evaluated as the composed SSIM + L1 expression
    operation by operation, and what its adjoint reads."""
    s, mu_a, mu_b, num, den, num_l, num_r, den_l, den_r = _ssim_terms(a, ch_t, stats)
    half_alpha, beta = alpha * 0.5, 1.0 - alpha
    diff = ch_t - a
    out = (1.0 - s) * half_alpha + np.abs(diff) * beta
    return out, (a, ch_t, diff, half_alpha, beta, mu_a, mu_b, num, den, num_l, num_r, den_l, den_r)


def _channel_vjp(g, terms):
    """Gradient of one `_channel_terms` map w.r.t. its warped channel: the
    backward pass of the composed SSIM + L1 graph, replayed."""
    a, b, diff, half_alpha, beta, mu_a, mu_b, num, den, num_l, num_r, den_l, den_r = terms
    # the L1 branch was created last, so it reaches the channel first
    g_a = -(g * beta * np.sign(diff))
    g_s = -(g * half_alpha)
    g_num = g_s / den
    g_den = -g_s * num / (den * den)
    # mu_a gathers den's mu_a*mu_a (twice), num's and cov's mu_a*mu_b,
    # then var's mu_a*mu_a (twice)
    twice = g_den * den_r * mu_a
    g_mu = twice + twice
    g_mu += g_num * num_r * 2.0 * mu_b
    g_cov = g_num * num_l * 2.0
    g_mu += -g_cov * mu_b
    g_var = g_den * den_l
    twice = -g_var * mu_a
    g_mu += twice
    g_mu += twice
    # the channel gathers, in this order, the adjoints of box3(a * b),
    # box3(a * a) (twice) and box3(a)
    box_cov, box_var, box_mu = ad._box3(g_cov, g_var, g_mu)
    g_a += box_cov * b
    twice = box_var * a
    g_a += twice
    g_a += twice
    g_a += box_mu
    return g_a


def photometric_core(i_t, i_warped, mask, alpha=ALPHA_DEFAULT, reference=None):
    """alpha (1 - SSIM)/2 + (1 - alpha) |i_t - i_warped|, channel-averaged,
    masked mean, as one tape node. i_t is the constant reference image, an
    (H, W) or (H, W, C) array; `reference` may carry its
    `reference_channels` from an earlier call.

    The composed graph picks each channel of `i_warped`, builds its SSIM +
    L1 map, sums the maps in channel order and scales by 1/C. The adjoint
    replays it: each channel's gradient comes from `_channel_vjp`, and the
    zero-padded channel picks sum to the stacked gradient plus 0.0.
    `i_warped` may be a lane stack of warped images, one per lane.
    """
    if reference is None:
        reference = reference_channels(i_t)
    warped = np.asarray(ad.value_of(i_warped), dtype=float)
    planar = i_t.ndim == 2
    channels = [warped] if planar else [warped[..., c] for c in range(len(reference))]
    parts = [_channel_terms(ch_t, stats, a, alpha) for (ch_t, stats), a in zip(reference, channels)]
    per_pixel = parts[0][0]
    for out, _ in parts[1:]:
        per_pixel = per_pixel + out
    scale = 1.0 / len(reference)
    if not planar:
        per_pixel = per_pixel * scale
    value, m, n = ad._lane_means(per_pixel, mask)

    def vjp(g):
        g = ad._mean_weights(g, m, n)
        if planar:
            return [_channel_vjp(g, parts[0][1])]
        g = g * scale
        stacked = np.stack([_channel_vjp(g, terms) for _, terms in parts], axis=-1)
        return [stacked + 0.0 if len(parts) > 1 else stacked]

    return ad.Var(value, [i_warped], vjp)


@np.errstate(divide="ignore", invalid="ignore")
def cgdc_core(d_g, d_c, mask):
    """Masked mean of |D_g - D_c| / D_c (denominator guarded), as one tape
    node over the geometric depth D_g and the depth D_c.

    Composed graph: diff = D_g - D_c, |diff|, guard = max(D_c, EPS_DIV),
    |diff| / guard, masked mean. D_c receives the guard's contribution
    before the difference's."""
    g_val, c_val = ad.value_of(d_g), ad.value_of(d_c)
    diff = g_val - c_val
    size = np.abs(diff)
    guard = np.maximum(c_val, EPS_DIV)
    rel = size / guard
    value, m, n = ad._lane_means(rel, mask)
    c_active = ad.active(d_c)

    def vjp(g):
        g_rel = ad._mean_weights(g, m, n)
        out = [None, None, None]
        g_size = g_rel / guard
        if c_active:
            g_guard = -g_rel * size / (guard * guard)
            out[0] = g_guard * (c_val >= EPS_DIV).astype(float)
        g_diff = g_size * np.sign(diff)
        out[1] = g_diff
        if c_active:
            out[2] = -g_diff
        return out

    return ad.Var(value, [d_c, d_g, d_c], vjp)


def differential_offsets(camera: CameraIntrinsics, t_ego, grid: CameraGrid):
    """The pose half of C^D as tape nodes: the offset field
    (q_u, q_v) = (u - cx - fx t1/t3, v - cy - fy t2/t3)."""
    t1, t2, t3 = (ad.as_var(t) for t in t_ego)
    q_u = ad.sub(grid.uc, ad.mul(camera.fx, ad.div(t1, t3)))
    q_v = ad.sub(grid.vc, ad.mul(camera.fy, ad.div(t2, t3)))
    return q_u, q_v


def differential_flow_side(f_tra_u, f_tra_v):
    """The flow half of C^F: the (unnormalized) divergence of the
    translational flow, a tape node over an active component and a plain
    array of the same bits over constant ones. The components may be lane
    stacks (k, H, W)."""
    if ad.active(f_tra_u) or ad.active(f_tra_v):
        return ad.axis_diff(f_tra_u, axis=-1) + ad.axis_diff(f_tra_v, axis=-2)
    return _axis_diff(ad.value_of(f_tra_u), -1) + _axis_diff(ad.value_of(f_tra_v), -2)


@dataclass(frozen=True)
class DepthSide:
    """The depth half of C^F and C^D as plain arrays (c_f, c_d and their
    validity), with the inputs it was built from and the intermediates the
    `dpc_core` node reads."""

    c_f: np.ndarray
    c_d: np.ndarray
    validity: np.ndarray
    inputs: tuple  # (t3, d_c, q_u, q_v, div_f), Vars or arrays as given
    terms: tuple


@np.errstate(divide="ignore", invalid="ignore")
def differential_depth_side(t3, d_c, q_u, q_v, div_f, depth_gradient=None, interior=None):
    """The depth half of C^F and C^D from the `differential_offsets` and
    the `differential_flow_side`:

        c_f = (D - t3) / t3 * div_f - 4,
        c_d = -(q_u dD/du + q_v dD/dv) / (D - t3),

    with the discrete stencil of D, or the analytic `depth_gradient`
    scaled x2 into the stencil convention. Validity excludes the border
    and |D - t3| < EPS_GEO. `interior` is the `interior_mask` of the grid,
    if the caller holds it. D may be a lane stack (k, H, W) of depths. The
    values are plain arrays; `dpc_core` turns them into the DPC tape node."""
    t3_v, d_v = ad.value_of(t3), np.asarray(ad.value_of(d_c), dtype=float)
    qu_v, qv_v, div_v = ad.value_of(q_u), ad.value_of(q_v), ad.value_of(div_f)
    shifted = d_v - t3_v
    ratio = shifted / t3_v
    scaled = ratio * div_v
    c_f = scaled - IDENTITY_FIELD_DIVERGENCE
    if depth_gradient is None:
        g_u, g_v = _axis_diff(d_v, -1), _axis_diff(d_v, -2)
    else:
        g_u, g_v = 2.0 * depth_gradient[..., 0], 2.0 * depth_gradient[..., 1]
    neg = (qu_v * g_u + qv_v * g_v) * -1.0
    c_d = neg / shifted
    if interior is None:
        interior = interior_mask(*d_v.shape[-2:])
    validity = interior & (np.abs(shifted) >= EPS_GEO)
    return DepthSide(c_f, c_d, validity, (t3, d_c, q_u, q_v, div_f),
                     (t3_v, d_v, qu_v, qv_v, div_v, shifted, ratio, g_u, g_v, neg))


def differential_fields_core(camera: CameraIntrinsics, t_ego, d_c, f_tra_u, f_tra_v,
                             depth_gradient=None):
    """C^F and C^D of a depth and a translational flow.

    t_ego is the (t1, t2, t3) source-to-target translation (scalars or
    Vars); f_tra the translational flow components. `depth_gradient` is
    passed on to `differential_depth_side`.

    Returns (DepthSide, q_u, q_v), the offsets as tape nodes.
    """
    t_ego = tuple(ad.as_var(t) for t in t_ego)
    grid = CameraGrid.of(camera, *np.shape(ad.value_of(d_c)))
    q_u, q_v = differential_offsets(camera, t_ego, grid)
    div_f = differential_flow_side(f_tra_u, f_tra_v)
    side = differential_depth_side(t_ego[2], d_c, q_u, q_v, div_f, depth_gradient)
    return side, q_u, q_v


@np.errstate(divide="ignore", invalid="ignore")
def _dpc_terms(c_f, c_d):
    """Per-pixel |C^D - C^F| / (|C^D| + EPS_DPC) and its intermediates."""
    gap = c_d - c_f
    gap_size = np.abs(gap)
    guard = np.abs(c_d) + EPS_DPC
    rel = gap_size / guard
    return rel, gap, gap_size, guard


def dpc_core(side: DepthSide, mask):
    """Masked mean of |C^D - C^F| / (|C^D| + EPS_DPC) over the depth side of
    C^F and C^D, as one tape node over (t3, D, q_u, q_v, div_f).

    Composed graph, in creation order: shifted = D - t3, c_f (shifted / t3,
    times div_f, minus 4), the stencils g_u then g_v of D, c_d (q_u g_u +
    q_v g_v, negated, over shifted), then gap = c_d - c_f, |gap|, |c_d| +
    EPS_DPC, their quotient and the masked mean. Replayed backward, c_d
    gathers |c_d|'s contribution before the gap's, shifted gathers c_d's
    before c_f's, and the links run q_v, q_u, D (g_v), D (g_u), div_f,
    t3 (c_f), D (shifted), t3 (shifted).
    """
    t3, d_c, q_u, q_v, div_f = side.inputs
    t3_v, d_v, qu_v, qv_v, div_v, shifted, ratio, g_u, g_v, neg = side.terms
    rel, gap, gap_size, guard = _dpc_terms(side.c_f, side.c_d)
    value, m, n = ad._lane_means(rel, mask)
    d_act, t_act, qu_act, qv_act = (ad.active(x) for x in (d_c, t3, q_u, q_v))
    sh_act = d_act or t_act
    cf_act = sh_act or ad.active(div_f)
    cd_act = sh_act or qu_act or qv_act

    def vjp(g):
        out = [None] * 8
        g_rel = ad._mean_weights(g, m, n)
        g_size = g_rel / guard
        g_gap = g_size * np.sign(gap)
        g_sh = None
        if cd_act:
            g_guard = -g_rel * gap_size / (guard * guard)
            g_cd = g_guard * np.sign(side.c_d) + g_gap
            g_neg = g_cd / shifted
            if sh_act:
                g_sh = -g_cd * neg / (shifted * shifted)
            g_sum = g_neg * -1.0
            if qv_act:
                out[0] = g_sum * g_v
            if qu_act:
                out[1] = g_sum * g_u
            if d_act:
                out[2] = ad._axis_diff_vjp(g_sum * qv_v, -2, d_v.shape)
                out[3] = ad._axis_diff_vjp(g_sum * qu_v, -1, d_v.shape)
        if cf_act:
            g_cf = -g_gap
            if ad.active(div_f):
                out[4] = g_cf * ratio
            if sh_act:
                g_ratio = g_cf * div_v
                c_sh = g_ratio / t3_v
                g_sh = c_sh if g_sh is None else g_sh + c_sh
                if t_act:
                    out[5] = -g_ratio * shifted / (t3_v * t3_v)
        if sh_act:
            out[6] = g_sh
            if t_act:
                out[7] = -g_sh
        return out

    return ad.Var(value, [q_v, q_u, d_c, d_c, div_f, t3, d_c, t3], vjp)


@np.errstate(divide="ignore", invalid="ignore")
def _bsca_terms(r_u, r_v, o_u, o_v):
    """Per-pixel ||F_r - F_o||_1 / (||F_o||_1 + EPS_FLOW) and its
    intermediates (gap_u, gap_v, ||F_r - F_o||_1, the guarded norm)."""
    gap_u, gap_v = r_u - o_u, r_v - o_v
    n_diff = np.abs(gap_u) + np.abs(gap_v)
    guard = (np.abs(o_u) + np.abs(o_v)) + EPS_FLOW
    rel = n_diff / guard
    return rel, gap_u, gap_v, n_diff, guard


def bsca_core(f_r_u, f_r_v, f_o_u, f_o_v, mask):
    """Masked mean of ||F_r - F_o||_1 / (||F_o||_1 + EPS_FLOW), as one tape
    node over the rigid flow F_r and the optical flow F_o.

    Composed graph: |r_u - o_u| + |r_v - o_v|, then |o_u| + |o_v| +
    EPS_FLOW, their quotient and the masked mean. Replayed backward, the
    links run o_v, o_u (the norm of F_o), r_v, o_v, r_u, o_u (the gap)."""
    r_u, r_v, o_u, o_v = (ad.value_of(x) for x in (f_r_u, f_r_v, f_o_u, f_o_v))
    rel, gap_u, gap_v, n_diff, guard = _bsca_terms(r_u, r_v, o_u, o_v)
    value, m, n = ad._lane_means(rel, mask)
    ou_act, ov_act = ad.active(f_o_u), ad.active(f_o_v)
    u_act = ad.active(f_r_u) or ou_act
    v_act = ad.active(f_r_v) or ov_act

    def vjp(g):
        out = [None] * 6
        g_rel = ad._mean_weights(g, m, n)
        g_diff = g_rel / guard
        if ou_act or ov_act:
            g_guard = -g_rel * n_diff / (guard * guard)
        if ov_act:
            out[0] = g_guard * np.sign(o_v)
        if ou_act:
            out[1] = g_guard * np.sign(o_u)
        if v_act:
            g_gap = g_diff * np.sign(gap_v)
            out[2] = g_gap
            out[3] = -g_gap
        if u_act:
            g_gap = g_diff * np.sign(gap_u)
            out[4] = g_gap
            out[5] = -g_gap
        return out

    return ad.Var(value, [f_o_v, f_o_u, f_r_v, f_o_v, f_r_u, f_o_u], vjp)


@np.errstate(divide="ignore", invalid="ignore")
def smoothness_core(d, image_values):
    """Edge-aware smoothness on mean-normalized depth with forward
    differences: sum over axes of mean(|diff d*| exp(-|diff I|)), as one
    tape node over the depth D.

    Composed graph, in creation order: total(D) times 1/(HW), d* = D over
    it, the forward difference of d* along axis 1 and its |.|, the same
    along axis 0, then per axis the product with the edge weights and its
    mean, and the sum of the two means. Replayed backward, the axis-0
    chain reaches d* before the axis-1 chain, and D gathers the division's
    contribution before total's."""
    d_val = np.asarray(ad.value_of(d), dtype=float)
    H, W = shape = d_val.shape
    if H < 2 or W < 2:
        raise DimensionError(
            f"edge-aware smoothness needs at least a 2x2 grid, got shape {(H, W)}"
        )
    img = np.asarray(image_values, dtype=float)
    if img.ndim == 3:
        img = img.mean(axis=2)
    scale = 1.0 / (H * W)
    mean_d = float(np.sum(d_val)) * scale
    d_star = d_val / mean_d
    terms, chains = [], []
    for axis in (1, 0):
        step = np.diff(d_star, axis=axis)
        weight = np.exp(-np.abs(np.diff(img, axis=axis)))
        term, m, n = ad._mean_over(np.abs(step) * weight, np.ones(weight.shape, bool))
        terms.append(term)
        chains.append((axis, np.sign(step), weight, m, n))

    def vjp(g):
        g_star = None
        for axis, sign, weight, m, n in reversed(chains):
            # each difference adds to x[i+1], then takes from x[i]
            g_step = (ad._mean_weights(g, m, n) * weight * sign).swapaxes(0, axis)
            g_axis = np.zeros(shape)
            g_axis.swapaxes(0, axis)[1:] += g_step
            g_axis.swapaxes(0, axis)[:-1] -= g_step
            g_star = g_axis if g_star is None else g_star + g_axis
        g_mean = ad._unbroadcast(-g_star * d_val / (mean_d * mean_d), ())
        return [g_star / mean_d, np.broadcast_to(g_mean * scale, shape)]

    return ad.Var(terms[0] + terms[1], [d, d], vjp)


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
    if m.shape != i_t.shape:
        raise DimensionError("photometric mask shape does not match the images")
    _require_mask(m, "photometric_loss")
    value = photometric_core(i_t.values, i_warped.values, m, alpha).value
    return LossValue(float(value), int(m.sum()))


def cgdc_loss(d_g: TriangulationResult, d_c: DepthMap) -> LossValue:
    validity = np.asarray(d_g.validity, bool)
    if d_g.depth_g.shape != d_c.shape or validity.shape != d_c.shape:
        raise DimensionError("triangulated and predicted depth shapes do not match")
    mask = validity & d_c.mask
    _require_mask(mask, "cgdc_loss")
    value = cgdc_core(d_g.depth_g.values, d_c.values, mask).value
    guard = float((d_c.values[mask] < EPS_DIV).mean())
    return LossValue(float(value), int(mask.sum()), guard)


@np.errstate(invalid="ignore")  # the stencils read inf at masked-out pixels
def differential_fields(camera: CameraIntrinsics, motion: RigidMotion, d_c: DepthMap,
                        f_tra: FlowField, depth_gradient: np.ndarray | None = None
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
    side, q_u, q_v = differential_fields_core(camera, (t[0], t[1], t[2]), d_c.values,
                                              f_tra.values[..., 0], f_tra.values[..., 1],
                                              depth_gradient)
    validity = side.validity & f_tra.mask & d_c.mask
    q = np.stack([q_u.value, q_v.value], axis=-1)
    return DifferentialFields(
        c_f=ScalarField(side.c_f, validity),
        c_d=ScalarField(side.c_d, validity),
        q=q,
        validity=validity,
    )


def dpc_loss(fields: DifferentialFields) -> LossValue:
    mask = _require_mask(fields.validity, "dpc_loss")
    value, _, _ = ad._mean_over(_dpc_terms(fields.c_f.values, fields.c_d.values)[0], mask)
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
        return asdict(self)


@np.errstate(over="ignore")  # the squared error of a far-off depth reads inf
def depth_metrics(d_pred: DepthMap, d_gt: DepthMap, mask=None) -> DepthMetrics:
    """Standard depth error/accuracy scalars over the valid set."""
    if d_pred.shape != d_gt.shape:
        raise DimensionError("depth shapes do not match")
    m = d_pred.mask & d_gt.mask
    if mask is not None:
        mask = np.asarray(mask, bool)
        if mask.shape != m.shape:
            raise DimensionError("metric mask shape does not match the depth")
        m = m & mask
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
