"""Reverse-accumulation tape over numpy arrays.

Small engine tailored to grid losses: scalar-or-array values, full numpy
broadcasting in binary ops, and hand-written adjoints for the structured
operations (stencil differences, 3x3 box filter, bilinear sampling).
Gradients are exact derivatives of the forward expressions;
absolute-value kinks use subgradient 0 at exactly-zero arguments.

Activity: a `Var` made by a caller (`Var(x)`) is a leaf and gets a
gradient. `as_var` wraps ndarray and float operands as constants. An op
node links only to its active parents, and a node with no active parent is
itself a constant. `backward` visits only the nodes that link the root to
a leaf; `.grad` stays None on every node that depends on no leaf.

Nodes: `Var(value, inputs, vjp)` is one elemental function of its
`inputs`, however many there are. `vjp(g)` returns one contribution per
entry of `inputs` (it may return None for an entry that is not active);
`backward` calls it once per pass, sums each contribution down to its
input's shape (the reverse of numpy broadcasting) and adds it to that
input's gradient. An input may appear more than once, as in `mul(a, a)`:
each entry adds its own contribution. So the loss terms of `losses` and
the photometric warp of `grad`, one node each, can hand a parent shared by
several composed terms their contributions one at a time, in the order
the composed graph's backward pass made them, and every gradient keeps
its bits.

Accumulation order is fixed (reverse creation order, each node's inputs
in entry order), so gradients are bit-reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .geometry import _axis_diff, _bilinear_terms

_counter = 0


def _next_id():
    global _counter
    _counter += 1
    return _counter


class Var:
    """Node in the expression graph: a value, its inputs and one vjp."""

    __slots__ = ("value", "grad", "_parents", "_vjp", "_active", "_id")
    # make numpy operands defer to the reflected operators below, so
    # `ndarray + Var` builds a tape node instead of an object array
    __array_ufunc__ = None

    def __init__(self, value, inputs=None, vjp=None):
        self.value = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        self.grad = None
        if inputs is None:  # made by a caller: a leaf
            self._parents, self._active = (), True
        else:  # (input, position) pairs, kept for active inputs only
            self._parents = tuple(
                (x, i) for i, x in enumerate(inputs) if isinstance(x, Var) and x._active
            )
            self._active = bool(self._parents)
        self._vjp = vjp if self._parents else None
        self._id = _next_id()

    # -- operator sugar -----------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)


def as_var(x) -> Var:
    """`x` itself if it is a Var, else `x` wrapped as a constant."""
    return x if isinstance(x, Var) else Var(x, ())


def active(x) -> bool:
    """True for a Var that carries a gradient (a leaf or a node over one)."""
    return isinstance(x, Var) and x._active


def value_of(x):
    """The value of a Var, or `x` itself."""
    return x.value if isinstance(x, Var) else x


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (the reverse of numpy broadcasting)."""
    if np.shape(grad) == tuple(shape):
        return grad
    g = np.asarray(grad, dtype=float)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    if shape == ():
        return float(np.sum(g))
    return g


# -- arithmetic --------------------------------------------------------------


def add(a, b):
    a, b = as_var(a), as_var(b)
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def sub(a, b):
    a, b = as_var(a), as_var(b)
    return Var(a.value - b.value, (a, b), lambda g: (g, -g))


def mul(a, b):
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return Var(av * bv, (a, b), lambda g: (g * bv, g * av))


def div(a, b):
    # invalid pixels may carry zero denominators; they must be masked out
    # before any reduction, so the forward quietly produces inf/nan there
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv

    def vjp(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return g / bv, -g * av / (bv * bv)

    return Var(out, (a, b), vjp)


def sin(a):
    a = as_var(a)
    v = a.value
    return Var(np.sin(v), (a,), lambda g: (g * np.cos(v),))


def cos(a):
    a = as_var(a)
    v = a.value
    return Var(np.cos(v), (a,), lambda g: (-g * np.sin(v),))


def sqrt(a):
    a = as_var(a)
    out = np.sqrt(a.value)
    return Var(out, (a,), lambda g: (g * 0.5 / out,))


def absolute(a):
    """|a| with subgradient 0 at exactly-zero arguments (np.sign(0) == 0)."""
    a = as_var(a)
    s = np.sign(a.value)
    return Var(np.abs(a.value), (a,), lambda g: (g * s,))


# -- reductions ---------------------------------------------------------------


def total(a):
    a = as_var(a)
    shape = np.shape(a.value)
    return Var(np.sum(a.value), (a,), lambda g: (np.broadcast_to(g, shape) if shape else g,))


def _mean_over(values, mask):
    """(mean of `values` over a boolean mask, the mask, its count): the
    valid subset is summed in a fixed (row-major) order, so masked entries
    may be non-finite. The adjoint weights are `m.astype(float) / n`."""
    m = np.asarray(mask, bool)
    n = np.count_nonzero(m)
    return float(np.sum(values[m]) / n), m, n


def masked_mean(a, mask: np.ndarray):
    """Mean of `a` over a constant boolean mask (see `_mean_over`)."""
    a = as_var(a)
    value, m, n = _mean_over(a.value, mask)
    w = m.astype(float) / n
    return Var(value, (a,), lambda g: (g * w,))


# -- structured grid operators ------------------------------------------------


def forward_diff(a, axis: int):
    """First difference x[i+1] - x[i] along an axis (length shrinks by 1)."""
    a = as_var(a)

    shape = np.shape(a.value)

    def vjp(g):
        gx = np.zeros(shape)
        gm, gg = gx.swapaxes(0, axis), np.asarray(g, dtype=float).swapaxes(0, axis)
        gm[1:] += gg
        gm[:-1] -= gg
        return (gx,)

    return Var(np.diff(a.value, axis=axis), (a,), vjp)


def axis_diff(a, axis: int):
    """Unnormalized difference (forward value is geometry._axis_diff):
    interior x[i+1] - x[i-1], borders 2 * one-sided."""
    a = as_var(a)
    out = _axis_diff(a.value, axis)
    shape = np.shape(a.value)
    return Var(out, (a,), lambda g: (_axis_diff_vjp(g, axis, shape),))


def _axis_diff_vjp(g, axis, shape):
    """Adjoint of `axis_diff` along `axis` for an input of `shape`."""
    gx = np.zeros(shape)
    # views with the stencil axis first
    gm, gg = gx.swapaxes(0, axis), np.asarray(g, dtype=float).swapaxes(0, axis)
    # border rows: y[0] = 2(x[1]-x[0]); y[-1] = 2(x[-1]-x[-2])
    gm[1] += 2.0 * gg[0]
    gm[0] -= 2.0 * gg[0]
    gm[-1] += 2.0 * gg[-1]
    gm[-2] -= 2.0 * gg[-1]
    # interior rows: y[i] = x[i+1] - x[i-1]
    gm[2:] += gg[1:-1]
    gm[:-2] -= gg[1:-1]
    return gx


def _box3(v):
    """3x3 zero-padded mean of an array over its first two axes: nine
    shifted adds from zeros, then one division.

    The padded grid is laid out flat, row after row, so each shifted
    window is one contiguous run of H rows W + 2 wide. The two extra
    columns per row are summed as well and dropped at the end; every kept
    entry sees the same nine adds in the same order as the 2-D form."""
    H, W = v.shape[:2]
    rest = v.shape[2:]
    row = W + 2
    n = H * row
    p = np.zeros(((H + 2) * row + 2,) + rest)
    p[: (H + 2) * row].reshape((H + 2, row) + rest)[1:-1, 1:-1] = v
    out = np.zeros((n,) + rest)
    for dy in range(3):
        for dx in range(3):
            start = dy * row + dx
            out += p[start : start + n]
    out /= 9.0
    return out.reshape((H, row) + rest)[:, :W]


def box3(a):
    """3x3 zero-padded mean filter (self-adjoint by symmetry)."""
    a = as_var(a)
    return Var(_box3(a.value), (a,), lambda g: (_box3(np.asarray(g, dtype=float)),))


def _bilinear_partials(values, xv, yv):
    """Bilinear sample of `values` at (xv, yv) and what its coordinate
    adjoints read: (sampled, inside, (dx, live_x), (dy, live_y)), with the
    clamped forward differentiated exactly: a coordinate pinned at the
    rectangle edge is locally flat along its own axis only (clamped samples
    can still feed pooled statistics of valid neighbors)."""
    H, W = values.shape[:2]
    out, inside, (wy, v00, v01, v10, v11, top, bottom) = _bilinear_terms(values, xv, yv)
    dx = (v01 - v00) * (1 - wy) + (v11 - v10) * wy
    dy = bottom - top
    live_x = ((xv >= 0.0) & (xv <= W - 1.0)).astype(float)
    live_y = ((yv >= 0.0) & (yv <= H - 1.0)).astype(float)
    return out, inside, (dx, live_x), (dy, live_y)


def _bilinear_vjp(g, partial):
    """Adjoint of a bilinear sample for one coordinate, from its
    `(d, live)` pair of `_bilinear_partials`; channels are summed."""
    d, live = partial
    gd = np.asarray(g) * d
    if gd.ndim > live.ndim:
        gd = gd.sum(axis=-1)
    return gd * live


def bilinear(values: np.ndarray, xs, ys):
    """Bilinear sample of a constant image at variable coordinates.

    Returns (Var sampled, inside mask). Gradients flow to the coordinates
    only; out-of-rectangle samples are clamped and must be masked out by
    the caller before any reduction.
    """
    xs, ys = as_var(xs), as_var(ys)
    out, inside, px, py = _bilinear_partials(values, xs.value, ys.value)
    return Var(out, (xs, ys), lambda g: (_bilinear_vjp(g, px), _bilinear_vjp(g, py))), inside


# -- backward pass -------------------------------------------------------------


def backward(root: Var) -> None:
    """Accumulate d(root)/d(node) into .grad for every node that links the
    root to a leaf; constants are never visited."""
    seen = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen[node._id] = node
        for parent, _ in node._parents:
            if parent._id not in seen:
                stack.append(parent)
    # creation ids give a topological order: ops always follow their inputs
    order = sorted(seen.values(), key=lambda n: n._id)

    for node in order:
        node.grad = None
    root.grad = np.ones(np.shape(root.value)) if np.shape(root.value) else 1.0

    for node in reversed(order):
        if not node._parents:
            # a leaf: every node that reads it came later and has run, and
            # a sum of -0.0 contributions reads +0.0, as from a zero seed
            node.grad = node.grad + 0.0
            continue
        contributions = node._vjp(node.grad)
        for parent, i in node._parents:
            contribution = _unbroadcast(contributions[i], np.shape(parent.value))
            # the first contribution is assigned; later ones make a new sum,
            # never in place, because identity vjps hand back `g` itself
            if parent.grad is None:
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution
