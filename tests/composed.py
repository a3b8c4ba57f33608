"""The composed graphs behind the loss nodes, built from elementary tape
ops. Each is the twin a node is checked against bit for bit: the node's
value and every gradient it passes on must equal what the tape computes
over its twin. `TWINS` maps the module attributes the optimizer and the
gradient engine call to these twins, so whole runs can be replayed on the
composed graphs. The elementary tape ops that no code of the package calls
live here too: exp, maximum, the channel pick, |.|, the sum, the masked
mean and the forward difference.

Like the nodes, each twin of a descent term takes a grid or a lane stack
(k, H, W) of grids, and runs each lane's grid by itself: its masked mean
`lane_mean` is one mean per lane, and its box filter and stencils run over
the last two axes. Smoothness, which no descent uses, takes a grid."""

from dataclasses import dataclass

import numpy as np

from flowgeo import autodiff as ad
from flowgeo.errors import DimensionError
from flowgeo.geometry import Z_EPS, interior_mask
from flowgeo.losses import (
    ALPHA_DEFAULT,
    EPS_DIV,
    EPS_DPC,
    EPS_FLOW,
    EPS_GEO,
    IDENTITY_FIELD_DIVERGENCE,
    SSIM_C1,
    SSIM_C2,
)

# -- elementary ops no node of the package calls ----------------------------------


def exp(a):
    a = ad.as_var(a)
    out = np.exp(a.value)
    return ad.Var(out, (a,), lambda g: (g * out,))


def maximum(a, floor: float):
    """max(a, floor) against a constant; gradient passes where a >= floor."""
    a = ad.as_var(a)
    keep = (a.value >= floor).astype(float)
    return ad.Var(np.maximum(a.value, floor), (a,), lambda g: (g * keep,))


def absolute(a):
    """|a| with subgradient 0 at exactly-zero arguments (np.sign(0) == 0)."""
    a = ad.as_var(a)
    s = np.sign(a.value)
    return ad.Var(np.abs(a.value), (a,), lambda g: (g * s,))


def total(a):
    a = ad.as_var(a)
    shape = np.shape(a.value)
    return ad.Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, shape) if shape else g,))


def masked_mean(a, mask: np.ndarray):
    """Mean of `a` over a constant boolean mask (see `ad._mean_over`)."""
    a = ad.as_var(a)
    value, m, n = ad._mean_over(a.value, mask)
    w = m.astype(float) / n
    return ad.Var(value, (a,), lambda g: (g * w,))


def forward_diff(a, axis: int):
    """First difference x[i+1] - x[i] along an axis (length shrinks by 1)."""
    a = ad.as_var(a)
    shape = np.shape(a.value)

    def vjp(g):
        gx = np.zeros(shape)
        gm, gg = gx.swapaxes(0, axis), np.asarray(g, dtype=float).swapaxes(0, axis)
        gm[1:] += gg
        gm[:-1] -= gg
        return (gx,)

    return ad.Var(np.diff(a.value, axis=axis), (a,), vjp)


def lane_mean(a, mask):
    """`masked_mean` of a grid, or of each grid of a lane stack
    (k, H, W): the masked mean the loss nodes take (`ad._lane_means`)."""
    a = ad.as_var(a)
    value, m, n = ad._lane_means(a.value, mask)
    return ad.Var(value, (a,), lambda g: (ad._mean_weights(g, m, n),))


def take_channel(a, index: int):
    """Select channel `index` from the last axis."""
    a = ad.as_var(a)
    shape = np.shape(a.value)

    def vjp(g):
        gx = np.zeros(shape)
        gx[..., index] = g
        return (gx,)

    return ad.Var(a.value[..., index], (a,), vjp)


# -- photometric ----------------------------------------------------------------


def composed_stats(b):
    """`ssim_stats` as elementary tape nodes."""
    mu = ad.box3(b)
    mu_sq = ad.mul(mu, mu)
    return mu, mu_sq, ad.box3(ad.mul(b, b)) - mu_sq


def composed_ssim(a, b, b_stats=None):
    """Per-pixel SSIM of `a` against the reference `b` as elementary nodes."""
    mu_a = ad.box3(a)
    mu_b, mu_b_sq, var_b = composed_stats(b) if b_stats is None else b_stats
    var_a = ad.box3(ad.mul(a, a)) - ad.mul(mu_a, mu_a)
    cov = ad.box3(ad.mul(a, b)) - ad.mul(mu_a, mu_b)
    num = (2.0 * ad.mul(mu_a, mu_b) + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (ad.mul(mu_a, mu_a) + mu_b_sq + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return ad.div(num, den)


def composed_channel(ch_t, ch_w, alpha=ALPHA_DEFAULT, precomputed=True):
    """One channel pair of the photometric term as 28 elementary nodes."""
    ch_t = ad.as_var(ch_t)
    s = composed_ssim(ch_w, ch_t, composed_stats(ch_t) if precomputed else None)
    return alpha * 0.5 * (1.0 - s) + (1.0 - alpha) * absolute(ch_t - ch_w)


def composed_photometric(i_t, i_warped, mask, alpha=ALPHA_DEFAULT, reference=None,
                         precomputed=True):
    """`photometric_core` built from `composed_channel`s and channel picks;
    `reference` is accepted and ignored (the twin rebuilds it)."""
    i_t, i_warped = ad.as_var(i_t), ad.as_var(i_warped)
    if np.ndim(i_t.value) == 2:
        per_pixel = composed_channel(i_t, i_warped, alpha, precomputed)
    else:
        channels = range(np.shape(i_t.value)[2])
        acc = None
        for c in channels:
            term = composed_channel(take_channel(i_t, c), take_channel(i_warped, c),
                                    alpha, precomputed)
            acc = term if acc is None else acc + term
        per_pixel = acc * (1.0 / len(channels))
    return lane_mean(per_pixel, mask)


def composed_warp(camera, image, t, depth, grid, rays):
    """`warp_graph`: the rigid flow as elementary nodes, then p + F and
    `ad.bilinear`."""
    y0, y1, y2 = (ad.mul(depth, rays[i]) + t[i] for i in range(3))
    f_u = ad.mul(camera.fx, ad.div(y0, y2)) + camera.cx - grid.u
    f_v = ad.mul(camera.fy, ad.div(y1, y2)) + camera.cy - grid.v
    warped, inside = ad.bilinear(image, f_u + grid.u, f_v + grid.v)
    return warped, (np.asarray(y2.value) > Z_EPS) & inside


# -- correspondence priors --------------------------------------------------------


def composed_cgdc(d_g_values, d_c, mask):
    """`cgdc_core`: masked mean of |D_g - D_c| / max(D_c, EPS_DIV)."""
    rel = ad.div(absolute(ad.sub(d_g_values, d_c)), maximum(ad.as_var(d_c), EPS_DIV))
    return lane_mean(rel, mask)


@dataclass(frozen=True)
class ComposedSide:
    """What `composed_depth_side` hands `composed_dpc`: the values a caller
    reads (as `losses.DepthSide` has them) and the two tape nodes."""

    c_f: np.ndarray
    c_d: np.ndarray
    validity: np.ndarray
    nodes: tuple


def composed_depth_side(t3, d_c, q_u, q_v, div_f, depth_gradient=None, valid=None):
    """`differential_depth_side` as elementary nodes."""
    d_c = ad.as_var(d_c)
    shifted = ad.sub(d_c, t3)
    c_f = ad.mul(ad.div(shifted, t3), div_f) - IDENTITY_FIELD_DIVERGENCE
    if depth_gradient is None:
        g_u = ad.axis_diff(d_c, axis=-1)
        g_v = ad.axis_diff(d_c, axis=-2)
    else:
        g_u = ad.as_var(2.0 * depth_gradient[..., 0])
        g_v = ad.as_var(2.0 * depth_gradient[..., 1])
    c_d = ad.div(-(ad.mul(q_u, g_u) + ad.mul(q_v, g_v)), shifted)
    if valid is None:
        valid = interior_mask(*np.shape(d_c.value)[-2:])
    validity = valid & (np.abs(shifted.value) >= EPS_GEO)
    return ComposedSide(c_f.value, c_d.value, validity, (c_f, c_d))


def composed_dpc(side, mask):
    """`dpc_core`: masked mean of |C^D - C^F| / (|C^D| + EPS_DPC)."""
    c_f, c_d = side.nodes
    rel = ad.div(absolute(ad.sub(c_d, c_f)), absolute(c_d) + EPS_DPC)
    return lane_mean(rel, mask)


def composed_bsca(f_r_u, f_r_v, f_o_u, f_o_v, mask):
    """`bsca_core`: masked mean of ||F_r - F_o||_1 / (||F_o||_1 + EPS_FLOW)."""
    n_diff = absolute(ad.sub(f_r_u, f_o_u)) + absolute(ad.sub(f_r_v, f_o_v))
    n_o = absolute(ad.as_var(f_o_u)) + absolute(ad.as_var(f_o_v))
    return lane_mean(ad.div(n_diff, n_o + EPS_FLOW), mask)


# -- smoothness -------------------------------------------------------------------


def composed_smoothness(d, image_values):
    """`smoothness_core`: sum over axes of mean(|diff d*| exp(-|diff I|)) on
    the mean-normalized depth d*, built from elementary ops: 15 `Var`s, 3
    of them constants (the node: 1)."""
    d = ad.as_var(d)
    H, W = np.shape(d.value)
    if H < 2 or W < 2:
        raise DimensionError(
            f"edge-aware smoothness needs at least a 2x2 grid, got shape {(H, W)}"
        )
    img = np.asarray(image_values, dtype=float)
    if img.ndim == 3:
        img = img.mean(axis=2)
    d_star = ad.div(d, total(d) * (1.0 / (H * W)))
    du = absolute(forward_diff(d_star, axis=1))
    dv = absolute(forward_diff(d_star, axis=0))
    wu = np.exp(-np.abs(np.diff(img, axis=1)))
    wv = np.exp(-np.abs(np.diff(img, axis=0)))
    term_u = masked_mean(ad.mul(du, wu), np.ones(wu.shape, bool))
    term_v = masked_mean(ad.mul(dv, wv), np.ones(wv.shape, bool))
    return term_u + term_v


# -- stencils -------------------------------------------------------------------
# The moveaxis forms of the difference stencils and their adjoints, the
# references the view-swapping kernels in `geometry` and `autodiff` are
# checked against bit for bit.


def moveaxis_axis_diff(values, axis):
    """`geometry._axis_diff`: interior x[i+1] - x[i-1], borders 2 * one-sided."""
    x = np.asarray(values, dtype=float)
    out = np.empty(x.shape)
    o, v = np.moveaxis(out, axis, 0), np.moveaxis(x, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / 2.0
    o[0] = v[1] - v[0]
    o[-1] = v[-1] - v[-2]
    out *= 2.0
    return out


def moveaxis_axis_diff_vjp(g, axis, shape):
    """`autodiff._axis_diff_vjp`, the adjoint of `moveaxis_axis_diff`."""
    gx = np.zeros(shape)
    gm = np.moveaxis(gx, axis, 0)
    gg = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
    gm[1] += 2.0 * gg[0]
    gm[0] -= 2.0 * gg[0]
    gm[-1] += 2.0 * gg[-1]
    gm[-2] -= 2.0 * gg[-1]
    gm[2:] += gg[1:-1]
    gm[:-2] -= gg[1:-1]
    return gx


def moveaxis_forward_diff_vjp(g, axis, shape):
    """The adjoint of `forward_diff`, x[i+1] - x[i] along `axis`."""
    gx = np.zeros(shape)
    gm = np.moveaxis(gx, axis, 0)
    gg = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
    gm[1:] += gg
    gm[:-1] -= gg
    return gx


# module attribute -> twin, for every loss node a caller reaches by name
TWINS = {
    "photometric_core": composed_photometric,
    "warp_graph": composed_warp,
    "cgdc_core": composed_cgdc,
    "differential_depth_side": composed_depth_side,
    "dpc_core": composed_dpc,
    "bsca_core": composed_bsca,
    "smoothness_core": composed_smoothness,
}


def substitute_twins(monkeypatch, *modules):
    """Rebind every node attribute the given modules hold to its twin."""
    for module in modules:
        for name, twin in TWINS.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, twin)
