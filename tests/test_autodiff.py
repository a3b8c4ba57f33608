"""Tape correctness: every structured operator's adjoint is checked
against central differences of its forward map (dot-product tests),
subgradient conventions are pinned down, the activity rule (which nodes
backward visits) and its accumulation are checked against a zero-seeded
reference, and the grid kernels are checked bit for bit against
independent reference forms, and every op the tape exports has a caller
in the package."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from composed import (
    absolute,
    exp,
    forward_diff,
    masked_mean,
    maximum,
    moveaxis_axis_diff,
    moveaxis_axis_diff_vjp,
    moveaxis_forward_diff_vjp,
    take_channel,
    total,
)
from conftest import assert_bits_equal, reachable

import flowgeo
from flowgeo import autodiff as ad
from flowgeo import geometry, grad, losses, optim, triangulate
from flowgeo.geometry import (
    CameraIntrinsics,
    RigidMotion,
    _axis_diff,
    _bilinear_terms,
    _clamp,
    bilinear_sample,
    grid_gradient,
)
from flowgeo.scene import SceneSpec, synthesize


def fd_grad(fn, x0, h=1e-6):
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp, xm = x0.copy(), x0.copy()
        xp[idx] += h
        xm[idx] -= h
        g[idx] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def check_against_fd(build, x0, tol=1e-7):
    """build(Var) -> scalar Var; compares tape gradient to FD."""
    leaf = ad.Var(x0.copy())
    loss = build(leaf)
    ad.backward(loss)
    numeric = fd_grad(lambda x: float(build(ad.Var(x)).value), x0)
    assert np.abs(np.asarray(leaf.grad) - numeric).max() < tol


RNG = np.random.default_rng(42)
X0 = RNG.uniform(0.2, 1.0, (6, 7))
W = RNG.normal(size=(6, 7))


class TestStructuredOps:
    def test_box3(self):
        check_against_fd(lambda v: total(ad.mul(ad.box3(v), W)), X0)

    def test_box3_is_self_adjoint(self):
        # <box(x), y> == <x, box(y)> for the zero-padded mean filter
        x = RNG.normal(size=(5, 8))
        y = RNG.normal(size=(5, 8))
        bx = ad.box3(ad.Var(x)).value
        by = ad.box3(ad.Var(y)).value
        assert abs(np.sum(bx * y) - np.sum(x * by)) < 1e-12

    def test_axis_diff_both_axes(self):
        check_against_fd(lambda v: total(ad.mul(ad.axis_diff(v, 0), W)), X0)
        check_against_fd(lambda v: total(ad.mul(ad.axis_diff(v, 1), W)), X0)

    def test_axis_diff_matches_unnormalized_gradient(self):
        vals = RNG.normal(size=(6, 9))
        out = ad.axis_diff(ad.Var(vals), axis=1).value
        np.testing.assert_array_equal(out, 2.0 * np.gradient(vals, axis=1))

    def test_axis_diff_is_grid_gradient_bitwise(self):
        vals = RNG.normal(size=(6, 9))
        g = grid_gradient(vals)
        np.testing.assert_array_equal(ad.axis_diff(ad.Var(vals), axis=1).value, g[..., 0])
        np.testing.assert_array_equal(ad.axis_diff(ad.Var(vals), axis=0).value, g[..., 1])

    def test_forward_diff(self):
        w = RNG.normal(size=(6, 6))
        check_against_fd(lambda v: total(ad.mul(forward_diff(v, 1), w)), X0)

    def test_take_channel(self):
        x = RNG.uniform(size=(4, 5, 3))
        leaf = ad.Var(x.copy())
        loss = total(ad.mul(take_channel(leaf, 1), 2.0))
        ad.backward(loss)
        expected = np.zeros_like(x)
        expected[..., 1] = 2.0
        np.testing.assert_array_equal(leaf.grad, expected)

    def test_bilinear_coordinate_gradients(self):
        img = RNG.uniform(0, 1, (8, 9))
        ys = RNG.uniform(0.3, 6.7, (4, 4))
        wgt = RNG.normal(size=(4, 4))
        x0 = RNG.uniform(0.3, 7.7, (4, 4))

        def build(v):
            out, _ = ad.bilinear(img, v, ad.Var(ys.copy()))
            return total(ad.mul(out, wgt))

        check_against_fd(build, x0)

    @pytest.mark.parametrize("channels", [None, 3])
    def test_bilinear_forward_is_bilinear_sample_bitwise(self, channels):
        shape = (8, 9) if channels is None else (8, 9, channels)
        img = RNG.uniform(0, 1, shape)
        # includes samples outside the rectangle, which both clamp
        xs = RNG.uniform(-1.5, 9.5, (5, 6))
        ys = RNG.uniform(-1.5, 8.5, (5, 6))
        out, inside = ad.bilinear(img, ad.Var(xs), ad.Var(ys))
        expected, expected_inside = bilinear_sample(img, xs, ys)
        np.testing.assert_array_equal(out.value, expected)
        np.testing.assert_array_equal(inside, expected_inside)

    def test_nan_coordinate_samples_outside_without_a_warning(self):
        # the integer cast of a NaN coordinate warned (an error under the
        # test settings) in both public entry points
        img = np.ones((3, 3))
        xs, ys = np.array([np.nan, 1.0]), np.array([0.0, 1.0])
        sampled, inside = bilinear_sample(img, xs, ys)
        out, tape_inside = ad.bilinear(img, ad.Var(xs), ad.Var(ys))
        np.testing.assert_array_equal(inside, [False, True])
        np.testing.assert_array_equal(tape_inside, [False, True])
        np.testing.assert_array_equal(out.value, sampled)

    def test_bilinear_outside_clamped_axis_flat(self):
        img = RNG.uniform(0, 1, (6, 6))
        xs = np.array([[7.5]])  # beyond the right edge: flat in x
        ys = np.array([[2.3]])
        vx, vy = ad.Var(xs), ad.Var(ys)
        out, inside = ad.bilinear(img, vx, vy)
        assert not inside.any()
        ad.backward(total(out))
        assert vx.grad[0, 0] == 0.0  # clamped axis
        assert vy.grad[0, 0] != 0.0  # the sample still slides along y


class TestScalarOps:
    def test_abs_subgradient_zero_at_zero(self):
        leaf = ad.Var(np.array([[0.0, -2.0, 3.0]]))
        loss = total(absolute(leaf))
        ad.backward(loss)
        np.testing.assert_array_equal(leaf.grad, [[0.0, -1.0, 1.0]])

    def test_maximum_gradient_gate(self):
        leaf = ad.Var(np.array([[0.5, 2.0]]))
        loss = total(maximum(leaf, 1.0))
        ad.backward(loss)
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0]])

    def test_masked_mean_ignores_invalid_entries(self):
        vals = np.array([[1.0, np.inf], [3.0, 5.0]])
        mask = np.array([[True, False], [True, True]])
        leaf = ad.Var(vals)
        loss = masked_mean(leaf, mask)
        assert loss.value == pytest.approx(3.0)
        ad.backward(loss)
        np.testing.assert_allclose(leaf.grad, mask / 3.0)

    def test_masked_mean_of_a_3d_array_is_one_mean(self):
        # an (H, W, C) map is one array to average, not a stack of lanes
        vals = RNG.normal(size=(4, 5, 3))
        mask = vals > -0.5
        leaf = ad.Var(vals)
        loss = masked_mean(leaf, mask)
        assert type(loss.value) is float
        assert loss.value == float(np.add.reduce(vals[mask]) / np.count_nonzero(mask))
        ad.backward(loss)
        assert_bits_equal(leaf.grad, mask / float(np.count_nonzero(mask)))

    def test_composite_chain(self):
        def build(v):
            e = ad.div(absolute(v - 0.55), maximum(v, 0.3) + 0.05)
            return masked_mean(ad.mul(exp(e), 0.7), np.ones(v.value.shape, bool))

        check_against_fd(build, X0)

    def test_broadcast_scalar_times_grid(self):
        s0 = np.float64(1.3)
        grid = RNG.normal(size=(4, 5))
        leaf = ad.Var(float(s0))
        loss = total(ad.mul(leaf, grid))
        ad.backward(loss)
        assert leaf.grad == pytest.approx(grid.sum())

    def test_ndarray_left_operand_builds_tape_node(self):
        left = np.array([2.0, 3.0, 4.0])
        for op, value, grad in (
            (lambda x: left + x, [3.0, 5.0, 7.0], [1.0, 1.0, 1.0]),
            (lambda x: left - x, [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]),
            (lambda x: left * x, [2.0, 6.0, 12.0], [2.0, 3.0, 4.0]),
            (lambda x: left / x, [2.0, 1.5, 4.0 / 3.0], [-2.0, -0.75, -4.0 / 9.0]),
        ):
            leaf = ad.Var(np.array([1.0, 2.0, 3.0]))
            out = op(leaf)
            assert isinstance(out, ad.Var)
            np.testing.assert_allclose(out.value, value, rtol=1e-15)
            ad.backward(total(out))
            np.testing.assert_allclose(leaf.grad, grad, rtol=1e-15)


class TestDeterminism:
    def test_backward_is_bit_reproducible(self):
        def run():
            leaf = ad.Var(X0.copy())
            mid = ad.box3(ad.mul(leaf, leaf)) + ad.axis_diff(leaf, 1)
            loss = masked_mean(absolute(mid), np.ones(X0.shape, bool))
            ad.backward(loss)
            return np.asarray(leaf.grad).copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)


# -- activity rule and accumulation -------------------------------------------


def summed_to(contribution, shape):
    """`contribution` summed over the axes numpy broadcast `shape` along."""
    c = np.asarray(contribution, dtype=float)
    lead = c.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and c.shape[lead + i] != 1
    )
    return c.sum(axis=axes).reshape(shape) if axes else c


def zero_seeded_backward(root):
    """Reference backward: every reachable node starts from a zero
    gradient and, in reverse creation order, runs its vjp and adds each
    active input's contribution, summed to that input's shape. Returns
    {id(node): grad} without touching any node."""
    order = reachable(root)
    grads = {id(n): np.zeros(np.shape(n.value)) if np.shape(n.value) else 0.0 for n in order}
    grads[id(root)] = np.ones(np.shape(root.value)) if np.shape(root.value) else 1.0
    for node in reversed(order):
        if not node._parents or isinstance(node, ad._LaneView):
            continue
        contributions = node._vjp(grads[id(node)])
        for parent, i in node._parents:
            contribution = summed_to(contributions[i], np.shape(parent.value))
            if isinstance(parent, ad._LaneView):  # lanes of a stack: add to those
                stack = parent._parents[0][0]
                grads[id(stack)] = grads[id(stack)].copy()
                grads[id(stack)][parent.rows] += contribution
                continue
            grads[id(parent)] = grads[id(parent)] + contribution
    return grads


def assert_leaf_grads_match_reference(root, backward=ad.backward):
    leaves = [n for n in reachable(root) if not n._parents]
    expected = zero_seeded_backward(root)
    backward(root)
    assert leaves
    for leaf in leaves:
        assert_bits_equal(leaf.grad, expected[id(leaf)])


IMG = RNG.uniform(0, 1, (6, 7))
IMG3 = RNG.uniform(0, 1, (6, 7, 3))
MASK = RNG.uniform(size=(6, 7)) > 0.3

COMPOSITES = {
    "box3": lambda v: total(ad.mul(ad.box3(ad.mul(v, v)), W)),
    "axis_diff": lambda v: total(absolute(ad.axis_diff(v, 0) - ad.axis_diff(v, 1))),
    "bilinear": lambda v: total(
        ad.bilinear(IMG3, ad.mul(v, 6.0), ad.Var(RNG.uniform(-0.5, 5.5, (6, 7))))[0]
    ),
    "div": lambda v: total(ad.div(ad.sub(v, IMG), ad.add(ad.mul(v, v), 0.5))),
    "masked_mean": lambda v: masked_mean(absolute(ad.sub(ad.box3(v), IMG)), MASK)
    + masked_mean(ad.mul(v, 0.0), MASK),
}


class TestActivity:
    def test_constant_expression_has_no_links(self):
        c = exp(ad.as_var(X0)) + ad.box3(ad.as_var(W)) * 2.0
        c = masked_mean(absolute(ad.axis_diff(c, 0)), MASK)
        assert c._parents == ()
        assert not c._active
        assert not ad.as_var(1.5)._active

    def test_leaf_is_active_and_links_only_to_active_parents(self):
        leaf = ad.Var(X0.copy())
        const = exp(ad.as_var(W))
        node = ad.mul(leaf, const)
        assert leaf._active and node._active
        assert [parent for parent, _ in node._parents] == [leaf]
        ad.backward(total(node))
        assert const.grad is None
        np.testing.assert_array_equal(leaf.grad, np.exp(W))

    def test_backward_calls_vjps_only_on_paths_to_a_leaf(self):
        calls = []

        def spy(name, inputs):
            def vjp(g):
                calls.append(name)
                return (g,) * inputs

            return vjp

        leaf = ad.Var(np.ones(3))
        const = ad.as_var(np.full(3, 2.0))
        mixed = ad.Var(np.ones(3), (leaf, const), spy("mixed", 2))
        constant = ad.Var(np.ones(3), (const,), spy("constant", 1))
        root = ad.Var(np.ones(3), (mixed, constant), spy("root", 2))
        assert not constant._active
        assert constant._parents == () and constant._vjp is None
        ad.backward(root)
        assert calls == ["root", "mixed"]
        assert const.grad is None and constant.grad is None
        np.testing.assert_array_equal(leaf.grad, np.ones(3))

    def test_repeated_input_runs_the_vjp_once_and_adds_by_position(self):
        # the constant's entry comes first, so reading contributions by
        # link order would hand the leaf the constant's; the leaf's three
        # entries must add in entry order: (1 + 1e16) - 1e16 == 0, while
        # in reverse order (-1e16 + 1e16) + 1 == 1
        calls = []
        leaf = ad.Var(np.array([1.0, 2.0]))
        const = ad.as_var(np.array([5.0, 6.0]))

        def vjp(g):
            calls.append(g)
            return g * 100.0, g * 1.0, g * 1e16, g * -1e16

        node = ad.Var(leaf.value * 3.0, (const, leaf, leaf, leaf), vjp)
        assert node._parents == ((leaf, 1), (leaf, 2), (leaf, 3))
        ad.backward(node)
        assert len(calls) == 1
        assert_bits_equal(leaf.grad, np.zeros(2))
        ad.backward(node)
        assert len(calls) == 2

    def test_contributions_arrive_summed_to_the_input_shape(self):
        # a (H, W) contribution for a scalar input and one for a (1, W)
        # input; integer entries keep every sum exact
        full = np.arange(12.0).reshape(3, 4)
        scalar = ad.Var(2.0)
        row = ad.Var(np.ones((1, 4)))
        node = ad.Var(full, (scalar, row), lambda g: (g * full, g * full))
        ad.backward(node)
        assert_bits_equal(scalar.grad, 66.0)
        assert_bits_equal(row.grad, np.array([[12.0, 15.0, 18.0, 21.0]]))

    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    def test_leaf_grads_equal_zero_seeded_reference(self, name):
        assert_leaf_grads_match_reference(COMPOSITES[name](ad.Var(X0.copy())))

    # recover-depth at 24x18 with --weights 1,1,0.1,0, one step after the
    # dpc warmup so all three terms are on the tape, as a stack of one and
    # next to the other three configs of the ablate grid, where the cgdc
    # and dpc nodes read two lanes of four through `ad.lanes`
    @pytest.mark.parametrize("grid", [False, True], ids=["alone", "ablate-grid"])
    def test_depth_step_grads_equal_zero_seeded_reference(self, monkeypatch, grid):
        spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
        camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=12.0, cy=9.0)
        bundle = synthesize(spec, camera, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), 18, 24)
        weights = [(1.0, 1.0, 0.1)]
        if grid:
            weights = [(1.0, wc, wd) for wc in (0.0, 1.0) for wd in (0.0, 0.1)]
        configs = [optim.OptimConfig(w_p=wp, w_c=wc, w_d=wd, iterations=10, seed=1)
                   for wp, wc, wd in weights]
        plan = optim._plan(bundle)
        objectives = [optim._Lane(config, plan) for config in configs]
        theta = np.stack([optim._initial_theta(bundle, c, np.random.default_rng(c.seed))
                          for c in configs])
        roots, parts = [], []

        def checked_backward(root, backward=ad.backward):
            roots.append(root)
            assert_leaf_grads_match_reference(root, backward)

        def recorded_terms(*args, build=optim._terms):
            built = build(*args)
            parts.extend(built[0])
            return built

        monkeypatch.setattr(ad, "backward", checked_backward)
        monkeypatch.setattr(optim, "_terms", recorded_terms)
        it = configs[0].iterations - 1
        optim._depth_step(objectives, theta, optim._decode_values(theta), it)
        assert len(roots) == 1
        assert objectives[-1].weights(it)["dpc"] > 0
        on_tape = reachable(roots[0])
        assert len(parts) == 3
        assert all(any(node is n for n in on_tape) for node, _, _ in parts)
        assert any(isinstance(n, ad._LaneView) for n in on_tape) == grid

    def test_negative_zero_sums_read_positive_zero(self):
        leaf = ad.Var(np.array([1.0, 2.0]))
        scalar = ad.Var(3.0)
        loss = total(ad.mul(leaf, -0.0) + ad.mul(leaf, -0.0)) + ad.mul(scalar, -0.0)
        ad.backward(loss)
        assert_bits_equal(leaf.grad, np.zeros(2))
        assert_bits_equal(scalar.grad, 0.0)

    def test_backward_mutates_no_value_and_not_the_root_seed(self):
        leaf = ad.Var(X0.copy())
        other = ad.Var(W.copy())
        root = ad.add(ad.add(leaf, other), ad.add(leaf, ad.box3(leaf)))
        values = {id(n): np.copy(n.value) for n in reachable(root)}
        ad.backward(root)
        np.testing.assert_array_equal(root.grad, np.ones(X0.shape))
        for node in reachable(root):
            np.testing.assert_array_equal(node.value, values[id(node)])
        assert not np.shares_memory(leaf.grad, root.grad)
        assert not np.shares_memory(other.grad, root.grad)

    def test_second_backward_starts_afresh(self):
        leaf = ad.Var(X0.copy())
        loss = total(ad.mul(leaf, W))
        ad.backward(loss)
        first = np.copy(leaf.grad)
        ad.backward(loss)
        assert_bits_equal(leaf.grad, first)


# -- kernel twins --------------------------------------------------------------


def box3_padded(v):
    """The 3x3 zero-padded mean over the last two axes via np.pad: nine
    shifted adds from zeros."""
    p = np.pad(v, ((0, 0),) * (v.ndim - 2) + ((1, 1), (1, 1)))
    out = np.zeros_like(v)
    H, W = v.shape[-2:]
    for dy in range(3):
        for dx in range(3):
            out += p[..., dy : dy + H, dx : dx + W]
    return out / 9.0


def bilinear_fancy(values, xs, ys):
    """Clamp, gather the corners with values[y, x] and blend."""
    H, W = values.shape[:2]
    x = np.clip(xs, 0.0, W - 1.0)
    y = np.clip(ys, 0.0, H - 1.0)
    x0 = np.clip(np.floor(x).astype(int), 0, W - 2)
    y0 = np.clip(np.floor(y).astype(int), 0, H - 2)
    wx, wy = x - x0, y - y0
    if values.ndim == 3:
        wx, wy = wx[..., None], wy[..., None]
    v00, v01 = values[y0, x0], values[y0, x0 + 1]
    v10, v11 = values[y0 + 1, x0], values[y0 + 1, x0 + 1]
    top = v00 * (1.0 - wx) + v01 * wx
    bottom = v10 * (1.0 - wx) + v11 * wx
    return top * (1.0 - wy) + bottom * wy, (wy, v00, v01, v10, v11, top, bottom)


class TestKernelTwins:
    @pytest.mark.parametrize("shape", [(6, 7), (6, 7, 3), (3, 3), (1, 4), (4, 1)])
    def test_box3_matches_padded_form(self, shape):
        v = RNG.normal(size=shape)
        v.flat[::3] = -0.0  # 0.0 + -0.0 is +0.0: the sums must start from zeros
        assert_bits_equal(ad.box3(ad.Var(v)).value, box3_padded(v))
        # several arrays at once, each as by itself
        arrays = [v, -v, RNG.normal(size=shape)]
        for mean, array in zip(ad._box3(*arrays), arrays, strict=True):
            assert_bits_equal(mean, box3_padded(array))

    @pytest.mark.parametrize("shape", [(6, 9), (3, 3), (5, 4, 3)])
    def test_axis_diff_matches_twice_np_gradient(self, shape):
        v = RNG.normal(size=shape)
        for axis in (0, 1):
            assert_bits_equal(_axis_diff(v, axis), 2.0 * np.gradient(v, axis=axis))

    # length 3 along the stencil axis makes the border and interior rows
    # of the adjoints overlap
    STENCIL_SHAPES = [(6, 9), (3, 5), (5, 3), (3, 3), (5, 4, 3), (3, 3, 2), (4, 3, 5)]

    @pytest.mark.parametrize("shape", STENCIL_SHAPES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_stencils_match_moveaxis_forms(self, shape, axis):
        x = RNG.normal(size=shape)
        x.flat[::4] = -0.0
        short = list(shape)
        short[axis] -= 1
        for g, g_short in [(RNG.normal(size=shape), RNG.normal(size=short)),
                           (-np.zeros(shape), -np.zeros(short))]:  # 0.0 + -0.0 is +0.0
            g.flat[1::3] = -0.0
            g_short.flat[1::3] = -0.0
            assert_bits_equal(_axis_diff(x, axis), moveaxis_axis_diff(x, axis))
            assert_bits_equal(ad._axis_diff_vjp(g, axis, shape),
                              moveaxis_axis_diff_vjp(g, axis, shape))
            (fd_adjoint,) = forward_diff(ad.Var(x), axis)._vjp(g_short)
            assert_bits_equal(fd_adjoint, moveaxis_forward_diff_vjp(g_short, axis, shape))

    @pytest.mark.parametrize("shape", STENCIL_SHAPES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_stencil_adjoint_identity(self, shape, axis):
        # <A x, y> = <x, A^T y> for the stencil A and its vjp A^T
        x, y = RNG.normal(size=shape), RNG.normal(size=shape)
        np.testing.assert_allclose(np.vdot(_axis_diff(x, axis), y),
                                   np.vdot(x, ad._axis_diff_vjp(y, axis, shape)), rtol=1e-12)
        y_short = np.diff(y, axis=axis)
        (fd_adjoint,) = forward_diff(ad.Var(x), axis)._vjp(y_short)
        np.testing.assert_allclose(np.vdot(np.diff(x, axis=axis), y_short),
                                   np.vdot(x, fd_adjoint), rtol=1e-12)

    # lengths numpy runs through its scalar loop only, and through its
    # vector loops with and without a scalar tail
    CLAMP_LENGTHS = [1, 3, 7, 8, 9, 16, 33, 1001]

    @pytest.mark.parametrize("n", CLAMP_LENGTHS)
    def test_clamp_matches_np_clip(self, n):
        # np.clip keeps an entry equal to a bound, so a -0.0 against a 0.0
        # bound stays -0.0; NaN propagates
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5.0, np.nextafter(5.0, 6.0),
                             -np.nextafter(0.0, 1.0), -1e300, 2.5, 0.02, -0.02])
        x = np.random.default_rng(n).choice(specials, size=n)
        for lo, hi in [(0.0, 5.0), (0.0, 0.0), (-0.02, 0.02)]:  # (0, 0): a 1-wide image
            for view in (x, x[::2], x[::-1]):
                assert_bits_equal(_clamp(view, lo, hi), np.clip(view, lo, hi))

    @pytest.mark.parametrize("n", CLAMP_LENGTHS)
    def test_integer_clamp_matches_np_clip(self, n):
        # the cast of a NaN coordinate is the most negative integer
        i = np.random.default_rng(n).integers(-2**62, 2**62, size=n)
        i[::3] = np.iinfo(np.int64).min
        i[1::4] = 0
        for hi in (0, 1, 94):
            clamped = _clamp(i, 0, hi)
            assert clamped.dtype == np.clip(i, 0, hi).dtype
            assert np.array_equal(clamped, np.clip(i, 0, hi))

    @pytest.mark.parametrize("channels", [None, 1, 3])
    def test_bilinear_terms_match_fancy_indexing(self, channels):
        shape = (8, 9) if channels is None else (8, 9, channels)
        img = RNG.normal(size=shape)
        # a third of the samples fall outside and are clamped
        xs = RNG.uniform(-2.0, 10.0, (7, 5))
        ys = RNG.uniform(-2.0, 9.0, (7, 5))
        out, inside, terms = _bilinear_terms(img, xs, ys)
        expected, expected_terms = bilinear_fancy(img, xs, ys)
        assert (~inside).sum() > 0
        assert_bits_equal(out, expected)
        for term, expected_term in zip(terms, expected_terms):
            assert_bits_equal(term, expected_term)

    @pytest.mark.parametrize("channels", [None, 3])
    def test_bilinear_vjp_with_bool_live_keeps_the_float_mask_bits(self, channels):
        # the live masks stay bool on the tape; the adjoint's product with
        # one has the bits of the product with its float mask: a NaN or inf
        # adjoint at a masked-out pixel gives NaN there (where np.where would
        # give 0.0), and a -0.0 keeps its sign on either side of the mask
        img = RNG.normal(size=(6, 7) if channels is None else (6, 7, channels))
        xs = RNG.uniform(-2.0, 8.0, (4, 5))
        ys = RNG.uniform(-2.0, 7.0, (4, 5))
        _, _, px, py = ad._bilinear_partials(img, xs, ys)
        for d, live in (px, py):
            assert live.dtype == bool
            live[0, :4] = [False, False, False, True]
            live[1, :2] = [False, True]
            d[0, 3] = d[1, :2] = 1.0
            g = RNG.normal(size=d.shape)
            g[0, 0], g[0, 1], g[0, 2], g[0, 3] = np.nan, np.inf, -np.inf, np.inf
            g[1, :2] = -0.0
            with np.errstate(invalid="ignore"):  # as `backward` runs a vjp
                out = ad._bilinear_vjp(g, (d, live))
                assert_bits_equal(out, ad._bilinear_vjp(g, (d, live.astype(float))))
            assert np.isnan(out[0, :3]).all() and out[0, 3] == np.inf
            if channels is None:  # (a sum over channels of -0.0 reads +0.0)
                assert np.signbit(out[1, :2]).all() and (out[1, :2] == 0.0).all()

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), (4, 1, 3)])
    def test_bilinear_on_one_wide_or_one_high_images(self, shape):
        img = RNG.normal(size=shape)
        n = max(shape[:2])
        line = img.reshape(n, -1)
        along = np.array([[-0.5, 0.0, 0.4, 1.7, 2.25, n - 1.0, n + 0.3]])
        across = np.array([[0.0, -0.2, 0.0, 0.6, 0.0, 0.0, 0.0]])
        xs, ys = (across, along) if shape[1] == 1 else (along, across)
        clipped = np.clip(along[0], 0.0, n - 1.0)
        # linear interpolation along the long axis; the short axis is flat
        expected = np.stack([np.interp(clipped, np.arange(n), c) for c in line.T], axis=-1)
        expected = expected.reshape(1, 7, *shape[2:])
        sampled, _ = bilinear_sample(img, xs, ys)
        np.testing.assert_allclose(sampled, expected, rtol=0, atol=1e-15)
        vx, vy = ad.Var(xs), ad.Var(ys)
        out, _ = ad.bilinear(img, vx, vy)
        assert_bits_equal(out.value, sampled)
        ad.backward(total(out))
        short = vx if shape[1] == 1 else vy
        assert_bits_equal(short.grad, np.zeros(xs.shape))


# Exports no other module of the package calls. `BENCHMARK.json`'s per_layer
# list names `autodiff.box3_s` and `autodiff.bilinear_s`, so these two stay
# until the rigid-flow merge of ROADMAP item 4 takes the last callers of the
# warp's composed form and moves them to tests/composed.py with those names.
# `test_every_benchmarked_function_is_traceable` is the guard that fails
# while the benchmark still names them and they are gone.
UNCALLED_EXPORTS = {"box3", "bilinear"}


def autodiff_references(path):
    """The names of `flowgeo.autodiff` that the module at `path` reads:
    attributes of the name it imports the module as, and names it imports
    from it."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                names |= {alias.name for alias in node.names}
            elif node.module is None:
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "autodiff"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def public_names(module):
    """The public functions and classes `module` defines."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


def test_every_export_has_a_caller_in_the_package():
    """An op whose last caller in the package goes moves to tests/composed.py
    in the same change, and a public function or class of `grad`,
    `triangulate`, `losses`, `optim` or `geometry` that the package neither
    reads nor exports goes too. flowgeo has no `__all__`, so its exports are the public names
    of its namespace, what `from flowgeo import *` binds."""
    package = Path(ad.__file__).parent
    called = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            called |= autodiff_references(path)
    # the operator sugar of `Var` (a + b, a * b, ...) calls the arithmetic ops
    var = inspect.getsource(ad.Var)
    called |= {node.id for node in ast.walk(ast.parse(var)) if isinstance(node, ast.Name)}
    assert public_names(ad) - called == UNCALLED_EXPORTS
    # a name the package's code reads, as a name or an attribute (its own
    # `def` and the imports that bind it are not reads)
    read = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {name for name in vars(flowgeo) if not name.startswith("_")}
    for module in (grad, triangulate, losses, optim, geometry):
        assert public_names(module) - read - exported == set(), module.__name__


def test_every_benchmarked_function_is_traceable():
    """Each per-layer metric of `BENCHMARK.json` that times or counts one
    function, `<layer>.<function>_s` or `<layer>.<function>.calls`, names a
    function the benchmark's tracer can wrap: a public function that
    `flowgeo.<layer>` defines itself. A traced run that cannot measure a
    metric it declares exits 1. The run's own counters (`self`, `write`,
    the layer-level `calls`) and names with neither suffix are no function."""
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    checked = 0
    for metric in spec["per_layer"]:
        layer, _, rest = metric["name"].partition(".")
        function = (rest[: -len(".calls")] if rest.endswith(".calls")
                    else rest[: -len("_s")] if rest.endswith("_s") else None)
        if function in (None, "self", "write"):
            continue
        module = importlib.import_module(f"flowgeo.{layer}")
        obj = getattr(module, function, None)
        assert (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not function.startswith("_")), metric["name"]
        checked += 1
    assert checked > 0


def test_no_module_binds_an_import_it_never_reads():
    """Every name a module of the package imports is read in that module;
    `__init__.py`, whose imports are the package's exports, aside."""
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert bound - read == set(), path.name


FUNCTION_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def locals_bound(func):
    """The names `func` binds in its own scope: assignment, loop, `with`
    and walrus targets, `except ... as` names and nested `def`s, less the
    names it declares global or nonlocal. A nested function's body is a
    scope of its own."""
    bound, declared, stack = set(), set(), list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        if isinstance(node, FUNCTION_SCOPES):
            if not isinstance(node, ast.Lambda):
                bound.add(node.name)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def test_no_function_binds_a_local_it_never_reads():
    """Every local name a function of the package binds is read in that
    function, or in a function nested in it; a name that starts with `_`
    is unused on purpose. A flag left behind by a deleted branch fails
    here."""
    dead = []
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, FUNCTION_SCOPES):
                continue
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            dead += [f"{path.name}:{func.lineno}: {name}"
                     for name in sorted(locals_bound(func) - read) if not name.startswith("_")]
    assert dead == []
