"""Tape correctness: every structured operator's adjoint is checked
against central differences of its forward map (dot-product tests),
subgradient conventions are pinned down, the activity rule (which nodes
backward visits) and its accumulation are checked against a zero-seeded
reference, and the grid kernels are checked bit for bit against
independent reference forms."""

import numpy as np
import pytest
from composed import (
    exp,
    maximum,
    moveaxis_axis_diff,
    moveaxis_axis_diff_vjp,
    moveaxis_forward_diff_vjp,
    take_channel,
)
from conftest import assert_bits_equal, reachable

from flowgeo import autodiff as ad
from flowgeo import optim
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
        np.testing.assert_array_equal(out, 2.0 * np.gradient(vals, axis=1))

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
        loss = ad.total(ad.mul(take_channel(leaf, 1), 2.0))
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
        loss = ad.total(maximum(leaf, 1.0))
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
            e = ad.div(ad.absolute(v - 0.55), maximum(v, 0.3) + 0.05)
            return ad.masked_mean(ad.mul(exp(e), 0.7), np.ones(v.value.shape, bool))

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
        if not node._parents:
            continue
        contributions = node._vjp(grads[id(node)])
        for parent, i in node._parents:
            grads[id(parent)] = grads[id(parent)] + summed_to(contributions[i], np.shape(parent.value))
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
    "box3": lambda v: ad.total(ad.mul(ad.box3(ad.mul(v, v)), W)),
    "axis_diff": lambda v: ad.total(ad.absolute(ad.axis_diff(v, 0) - ad.axis_diff(v, 1))),
    "bilinear": lambda v: ad.total(
        ad.bilinear(IMG3, ad.mul(v, 6.0), ad.Var(RNG.uniform(-0.5, 5.5, (6, 7))))[0]
    ),
    "div": lambda v: ad.total(ad.div(ad.sub(v, IMG), ad.add(ad.mul(v, v), 0.5))),
    "masked_mean": lambda v: ad.masked_mean(ad.absolute(ad.sub(ad.box3(v), IMG)), MASK)
    + ad.masked_mean(ad.mul(v, 0.0), MASK),
}


class TestActivity:
    def test_constant_expression_has_no_links(self):
        c = exp(ad.as_var(X0)) + ad.box3(ad.as_var(W)) * 2.0
        c = ad.masked_mean(ad.absolute(ad.axis_diff(c, 0)), MASK)
        assert c._parents == ()
        assert not c._active
        assert not ad.as_var(1.5)._active

    def test_leaf_is_active_and_links_only_to_active_parents(self):
        leaf = ad.Var(X0.copy())
        const = exp(ad.as_var(W))
        node = ad.mul(leaf, const)
        assert leaf._active and node._active
        assert [parent for parent, _ in node._parents] == [leaf]
        ad.backward(ad.total(node))
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

    def test_depth_step_grads_equal_zero_seeded_reference(self, monkeypatch):
        # recover-depth at 24x18 with --weights 1,1,0.1,0, one step after
        # the dpc warmup so all three terms are on the tape
        spec = SceneSpec("affine-inverse-shift", a=0.21, b=1.3e-3, c=0.9e-3)
        camera = CameraIntrinsics(fx=100.0, fy=100.0, cx=12.0, cy=9.0)
        bundle = synthesize(spec, camera, RigidMotion(np.eye(3), [0.31, 0.02, 0.42]), 18, 24)
        config = optim.OptimConfig(w_p=1.0, w_c=1.0, w_d=0.1, w_b=0.0, iterations=10, seed=1)
        objective = optim._DepthObjective(bundle, config)
        theta = optim._initial_theta(bundle, config, np.random.default_rng(config.seed))
        roots, terms = [], {}

        def checked_backward(root, backward=ad.backward):
            roots.append(root)
            assert_leaf_grads_match_reference(root, backward)

        def recorded_losses(depth_var, build=objective.losses):
            terms.update(build(depth_var))
            return terms

        monkeypatch.setattr(ad, "backward", checked_backward)
        monkeypatch.setattr(objective, "losses", recorded_losses)
        optim._depth_step(objective, theta, optim._decode_values(theta), config.iterations - 1,
                          config)
        assert len(roots) == 1
        assert min(objective.weights(config.iterations - 1).values()) > 0
        on_tape = {id(node) for node in reachable(roots[0])}
        assert sorted(terms) == ["cgdc", "dpc", "photometric"]
        assert all(id(term) in on_tape for term in terms.values())

    def test_negative_zero_sums_read_positive_zero(self):
        leaf = ad.Var(np.array([1.0, 2.0]))
        scalar = ad.Var(3.0)
        loss = ad.total(ad.mul(leaf, -0.0) + ad.mul(leaf, -0.0)) + ad.mul(scalar, -0.0)
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
        loss = ad.total(ad.mul(leaf, W))
        ad.backward(loss)
        first = np.copy(leaf.grad)
        ad.backward(loss)
        assert_bits_equal(leaf.grad, first)


# -- kernel twins --------------------------------------------------------------


def box3_padded(v):
    """The 3x3 zero-padded mean via np.pad: nine shifted adds from zeros."""
    p = np.pad(v, ((1, 1), (1, 1)) + ((0, 0),) * (v.ndim - 2))
    out = np.zeros_like(v)
    for dy in range(3):
        for dx in range(3):
            out += p[dy : dy + v.shape[0], dx : dx + v.shape[1]]
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
            (fd_adjoint,) = ad.forward_diff(ad.Var(x), axis)._vjp(g_short)
            assert_bits_equal(fd_adjoint, moveaxis_forward_diff_vjp(g_short, axis, shape))

    @pytest.mark.parametrize("shape", STENCIL_SHAPES)
    @pytest.mark.parametrize("axis", [0, 1])
    def test_stencil_adjoint_identity(self, shape, axis):
        # <A x, y> = <x, A^T y> for the stencil A and its vjp A^T
        x, y = RNG.normal(size=shape), RNG.normal(size=shape)
        np.testing.assert_allclose(np.vdot(_axis_diff(x, axis), y),
                                   np.vdot(x, ad._axis_diff_vjp(y, axis, shape)), rtol=1e-12)
        y_short = np.diff(y, axis=axis)
        (fd_adjoint,) = ad.forward_diff(ad.Var(x), axis)._vjp(y_short)
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
        ad.backward(ad.total(out))
        short = vx if shape[1] == 1 else vy
        assert_bits_equal(short.grad, np.zeros(xs.shape))
