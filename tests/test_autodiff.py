"""Tape correctness: every structured operator's adjoint is checked
against central differences of its forward map (dot-product tests), and
subgradient conventions are pinned down."""

import numpy as np
import pytest

from flowgeo import autodiff as ad
from flowgeo.geometry import bilinear_sample, grid_gradient


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
        check_against_fd(lambda v: ad.total(ad.mul(ad.box3(v), W)), X0)

    def test_box3_is_self_adjoint(self):
        # <box(x), y> == <x, box(y)> for the zero-padded mean filter
        x = RNG.normal(size=(5, 8))
        y = RNG.normal(size=(5, 8))
        bx = ad.box3(ad.Var(x)).value
        by = ad.box3(ad.Var(y)).value
        assert abs(np.sum(bx * y) - np.sum(x * by)) < 1e-12

    def test_axis_diff_both_axes(self):
        check_against_fd(lambda v: ad.total(ad.mul(ad.axis_diff(v, 0), W)), X0)
        check_against_fd(lambda v: ad.total(ad.mul(ad.axis_diff(v, 1), W)), X0)

    def test_axis_diff_matches_unnormalized_gradient(self):
        vals = RNG.normal(size=(6, 9))
        out = ad.axis_diff(ad.Var(vals), axis=1).value
        np.testing.assert_allclose(out, 2.0 * np.gradient(vals, axis=1), atol=1e-15)

    def test_axis_diff_is_grid_gradient_bitwise(self):
        vals = RNG.normal(size=(6, 9))
        g = grid_gradient(vals)
        np.testing.assert_array_equal(ad.axis_diff(ad.Var(vals), axis=1).value, g[..., 0])
        np.testing.assert_array_equal(ad.axis_diff(ad.Var(vals), axis=0).value, g[..., 1])

    def test_forward_diff(self):
        w = RNG.normal(size=(6, 6))
        check_against_fd(lambda v: ad.total(ad.mul(ad.forward_diff(v, 1), w)), X0)

    def test_take_channel(self):
        x = RNG.uniform(size=(4, 5, 3))
        leaf = ad.Var(x.copy())
        loss = ad.total(ad.mul(ad.take_channel(leaf, 1), 2.0))
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
            return ad.total(ad.mul(out, wgt))

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

    def test_bilinear_outside_clamped_axis_flat(self):
        img = RNG.uniform(0, 1, (6, 6))
        xs = np.array([[7.5]])  # beyond the right edge: flat in x
        ys = np.array([[2.3]])
        vx, vy = ad.Var(xs), ad.Var(ys)
        out, inside = ad.bilinear(img, vx, vy)
        assert not inside.any()
        ad.backward(ad.total(out))
        assert vx.grad[0, 0] == 0.0  # clamped axis
        assert vy.grad[0, 0] != 0.0  # the sample still slides along y


class TestScalarOps:
    def test_abs_subgradient_zero_at_zero(self):
        leaf = ad.Var(np.array([[0.0, -2.0, 3.0]]))
        loss = ad.total(ad.absolute(leaf))
        ad.backward(loss)
        np.testing.assert_array_equal(leaf.grad, [[0.0, -1.0, 1.0]])

    def test_maximum_gradient_gate(self):
        leaf = ad.Var(np.array([[0.5, 2.0]]))
        loss = ad.total(ad.maximum(leaf, 1.0))
        ad.backward(loss)
        np.testing.assert_array_equal(leaf.grad, [[0.0, 1.0]])

    def test_masked_mean_ignores_invalid_entries(self):
        vals = np.array([[1.0, np.inf], [3.0, 5.0]])
        mask = np.array([[True, False], [True, True]])
        leaf = ad.Var(vals)
        loss = ad.masked_mean(leaf, mask)
        assert loss.value == pytest.approx(3.0)
        ad.backward(loss)
        np.testing.assert_allclose(leaf.grad, mask / 3.0)

    def test_composite_chain(self):
        def build(v):
            e = ad.div(ad.absolute(v - 0.55), ad.maximum(v, 0.3) + 0.05)
            return ad.masked_mean(ad.mul(ad.exp(e), 0.7), np.ones(v.value.shape, bool))

        check_against_fd(build, X0)

    def test_broadcast_scalar_times_grid(self):
        s0 = np.float64(1.3)
        grid = RNG.normal(size=(4, 5))
        leaf = ad.Var(float(s0))
        loss = ad.total(ad.mul(leaf, grid))
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
            ad.backward(ad.total(out))
            np.testing.assert_allclose(leaf.grad, grad, rtol=1e-15)


class TestDeterminism:
    def test_backward_is_bit_reproducible(self):
        def run():
            leaf = ad.Var(X0.copy())
            mid = ad.box3(ad.mul(leaf, leaf)) + ad.axis_diff(leaf, 1)
            loss = ad.masked_mean(ad.absolute(mid), np.ones(X0.shape, bool))
            ad.backward(loss)
            return np.asarray(leaf.grad).copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)
