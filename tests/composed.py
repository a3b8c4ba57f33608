"""The composed graphs behind the loss nodes, built from elementary tape
ops. Each is the twin a node is checked against bit for bit: the node's
value and every gradient it passes on must equal what the tape computes
over its twin. `TWINS` maps the module attributes the optimizer and the
gradient engine call to these twins, so whole runs can be replayed on the
composed graphs."""

from dataclasses import dataclass

import numpy as np

from flowgeo import autodiff as ad
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
    return alpha * 0.5 * (1.0 - s) + (1.0 - alpha) * ad.absolute(ch_t - ch_w)


def composed_photometric(i_t, i_warped, mask, alpha=ALPHA_DEFAULT, reference=None,
                         precomputed=True):
    """`photometric_core` built from `composed_channel`s and channel picks;
    `reference` is accepted and ignored (the twin rebuilds it)."""
    i_t, i_warped = ad.as_var(i_t), ad.as_var(i_warped)
    if np.ndim(i_warped.value) == 2:
        per_pixel = composed_channel(i_t, i_warped, alpha, precomputed)
    else:
        channels = range(np.shape(i_warped.value)[2])
        acc = None
        for c in channels:
            term = composed_channel(ad.take_channel(i_t, c), ad.take_channel(i_warped, c),
                                    alpha, precomputed)
            acc = term if acc is None else acc + term
        per_pixel = acc * (1.0 / len(channels))
    return ad.masked_mean(per_pixel, mask)


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
    rel = ad.div(ad.absolute(ad.sub(d_g_values, d_c)), ad.maximum(ad.as_var(d_c), EPS_DIV))
    return ad.masked_mean(rel, mask)


@dataclass(frozen=True)
class ComposedSide:
    """What `composed_depth_side` hands `composed_dpc`: the values a caller
    reads (as `losses.DepthSide` has them) and the two tape nodes."""

    c_f: np.ndarray
    c_d: np.ndarray
    validity: np.ndarray
    nodes: tuple


def composed_depth_side(t3, d_c, q_u, q_v, div_f, depth_gradient=None, interior=None):
    """`differential_depth_side` as elementary nodes."""
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
    return ComposedSide(c_f.value, c_d.value, validity, (c_f, c_d))


def composed_dpc(side, mask):
    """`dpc_core`: masked mean of |C^D - C^F| / (|C^D| + EPS_DPC)."""
    c_f, c_d = side.nodes
    rel = ad.div(ad.absolute(ad.sub(c_d, c_f)), ad.absolute(c_d) + EPS_DPC)
    return ad.masked_mean(rel, mask)


def composed_bsca(f_r_u, f_r_v, f_o_u, f_o_v, mask):
    """`bsca_core`: masked mean of ||F_r - F_o||_1 / (||F_o||_1 + EPS_FLOW)."""
    n_diff = ad.absolute(ad.sub(f_r_u, f_o_u)) + ad.absolute(ad.sub(f_r_v, f_o_v))
    n_o = ad.absolute(ad.as_var(f_o_u)) + ad.absolute(ad.as_var(f_o_v))
    return ad.masked_mean(ad.div(n_diff, n_o + EPS_FLOW), mask)


# module attribute -> twin, for every loss node a caller reaches by name
TWINS = {
    "photometric_core": composed_photometric,
    "warp_graph": composed_warp,
    "cgdc_core": composed_cgdc,
    "differential_depth_side": composed_depth_side,
    "dpc_core": composed_dpc,
    "bsca_core": composed_bsca,
}


def substitute_twins(monkeypatch, *modules):
    """Rebind every node attribute the given modules hold to its twin."""
    for module in modules:
        for name, twin in TWINS.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, twin)
