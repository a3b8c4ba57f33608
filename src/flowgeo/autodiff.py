"""Reverse-accumulation tape over numpy arrays.

Small engine tailored to grid losses: scalar-or-array values, full numpy
broadcasting in binary ops, and hand-written adjoints for the structured
operations (stencil differences, 3x3 box filter, bilinear sampling).
Gradients are exact derivatives of the forward expressions; absolute-value
kinks use subgradient 0 at exactly-zero arguments.

Activity: a `Var` made by a caller (`Var(x)`) is a leaf and gets a
gradient. `as_var` wraps ndarray and float operands as constants. An op
node links only to its active parents, and a node with no active parent is
itself a constant. `backward` visits only the nodes that link the root to
a leaf; `.grad` stays None on every node that depends on no leaf.

Accumulation order is fixed (reverse creation order, each node's parents
in argument order), so gradients are bit-reproducible run to run.
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
    """Node in the expression graph: a value plus vjp links to parents."""

    __slots__ = ("value", "grad", "_parents", "_active", "_id")
    # make numpy operands defer to the reflected operators below, so
    # `ndarray + Var` builds a tape node instead of an object array
    __array_ufunc__ = None

    def __init__(self, value, parents=None):
        self.value = np.asarray(value, dtype=float) if np.ndim(value) else float(value)
        self.grad = None
        if parents is None:  # made by a caller: a leaf
            self._parents, self._active = (), True
        else:  # (Var, vjp) pairs, kept for active parents only
            self._parents = tuple(link for link in parents if link[0]._active)
            self._active = bool(self._parents)
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
    return x if isinstance(x, Var) else Var(x, parents=())


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


def _binary(a, b, out_value, da, db):
    a, b = as_var(a), as_var(b)
    sa, sb = np.shape(a.value), np.shape(b.value)
    return Var(
        out_value,
        parents=(
            (a, lambda g: _unbroadcast(da(g), sa)),
            (b, lambda g: _unbroadcast(db(g), sb)),
        ),
    )


# -- arithmetic --------------------------------------------------------------


def add(a, b):
    a, b = as_var(a), as_var(b)
    return _binary(a, b, a.value + b.value, lambda g: g, lambda g: g)


def sub(a, b):
    a, b = as_var(a), as_var(b)
    return _binary(a, b, a.value - b.value, lambda g: g, lambda g: -g)


def mul(a, b):
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    return _binary(a, b, av * bv, lambda g: g * bv, lambda g: g * av)


def div(a, b):
    # invalid pixels may carry zero denominators; they must be masked out
    # before any reduction, so the forward quietly produces inf/nan there
    a, b = as_var(a), as_var(b)
    av, bv = a.value, b.value
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv

    def da(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return g / bv

    def db(g):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -g * av / (bv * bv)

    return _binary(a, b, out, da, db)


def exp(a):
    a = as_var(a)
    out = np.exp(a.value)
    return Var(out, parents=((a, lambda g, o=out: g * o),))


def sin(a):
    a = as_var(a)
    return Var(np.sin(a.value), parents=((a, lambda g, v=a.value: g * np.cos(v)),))


def cos(a):
    a = as_var(a)
    return Var(np.cos(a.value), parents=((a, lambda g, v=a.value: -g * np.sin(v)),))


def sqrt(a):
    a = as_var(a)
    out = np.sqrt(a.value)
    return Var(out, parents=((a, lambda g, o=out: g * 0.5 / o),))


def absolute(a):
    """|a| with subgradient 0 at exactly-zero arguments (np.sign(0) == 0)."""
    a = as_var(a)
    s = np.sign(a.value)
    return Var(np.abs(a.value), parents=((a, lambda g: g * s),))


def maximum(a, floor: float):
    """max(a, floor) against a constant; gradient passes where a >= floor."""
    a = as_var(a)
    keep = (a.value >= floor).astype(float)
    return Var(np.maximum(a.value, floor), parents=((a, lambda g: g * keep),))


# -- reductions ---------------------------------------------------------------


def total(a):
    a = as_var(a)
    shape = np.shape(a.value)
    return Var(np.sum(a.value), parents=((a, lambda g: np.broadcast_to(g, shape) if shape else g),))


def masked_mean(a, mask: np.ndarray):
    """Mean of `a` over a constant boolean mask: sums the valid subset in
    a fixed (row-major) order, so masked entries may be non-finite."""
    a = as_var(a)
    m = np.asarray(mask, bool)
    n = int(m.sum())
    w = m.astype(float) / n
    return Var(float(np.sum(a.value[m]) / n), parents=((a, lambda g: g * w),))


# -- structured grid operators ------------------------------------------------


def take_channel(a, index: int):
    """Select channel `index` from the last axis."""
    a = as_var(a)
    shape = np.shape(a.value)

    def vjp(g, index=index, shape=shape):
        gx = np.zeros(shape)
        gx[..., index] = g
        return gx

    return Var(a.value[..., index], parents=((a, vjp),))


def forward_diff(a, axis: int):
    """First difference x[i+1] - x[i] along an axis (length shrinks by 1)."""
    a = as_var(a)

    def vjp(g, axis=axis, shape=np.shape(a.value)):
        gx = np.zeros(shape)
        gm = np.moveaxis(gx, axis, 0)
        gg = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
        gm[1:] += gg
        gm[:-1] -= gg
        return gx

    return Var(np.diff(a.value, axis=axis), parents=((a, vjp),))


def axis_diff(a, axis: int):
    """Unnormalized difference (forward value is geometry._axis_diff):
    interior x[i+1] - x[i-1], borders 2 * one-sided."""
    a = as_var(a)
    out = _axis_diff(a.value, axis)

    def vjp(g, axis=axis, shape=np.shape(a.value)):
        gx = np.zeros(shape)
        gm = np.moveaxis(gx, axis, 0)
        gg = np.moveaxis(np.asarray(g, dtype=float), axis, 0)
        # border rows: y[0] = 2(x[1]-x[0]); y[-1] = 2(x[-1]-x[-2])
        gm[1] += 2.0 * gg[0]
        gm[0] -= 2.0 * gg[0]
        gm[-1] += 2.0 * gg[-1]
        gm[-2] -= 2.0 * gg[-1]
        # interior rows: y[i] = x[i+1] - x[i-1]
        gm[2:] += gg[1:-1]
        gm[:-2] -= gg[1:-1]
        return gx

    return Var(out, parents=((a, vjp),))


def box3(a):
    """3x3 zero-padded mean filter (self-adjoint by symmetry)."""
    a = as_var(a)

    def run(v):
        H, W = v.shape[:2]
        p = np.zeros((H + 2, W + 2) + v.shape[2:])
        p[1:-1, 1:-1] = v
        out = np.zeros(v.shape)
        for dy in range(3):
            for dx in range(3):
                out += p[dy : dy + H, dx : dx + W]
        return out / 9.0

    return Var(run(a.value), parents=((a, lambda g: run(np.asarray(g, dtype=float))),))


def bilinear(values: np.ndarray, xs, ys):
    """Bilinear sample of a constant image at variable coordinates.

    Returns (Var sampled, inside mask). Gradients flow to the coordinates
    only; out-of-rectangle samples are clamped and must be masked out by
    the caller before any reduction.
    """
    xs, ys = as_var(xs), as_var(ys)
    H, W = values.shape[:2]
    xv, yv = xs.value, ys.value
    out, inside, (wy, v00, v01, v10, v11, top, bottom) = _bilinear_terms(values, xv, yv)
    dx = (v01 - v00) * (1 - wy) + (v11 - v10) * wy
    dy = bottom - top
    # differentiate the clamped forward exactly: a coordinate pinned at the
    # rectangle edge is locally flat along its own axis only (clamped
    # samples can still feed pooled statistics of valid neighbors)
    live_x = ((xv >= 0.0) & (xv <= W - 1.0)).astype(float)
    live_y = ((yv >= 0.0) & (yv <= H - 1.0)).astype(float)
    if values.ndim == 3:
        dgx = lambda g: (np.asarray(g) * dx).sum(axis=-1) * live_x
        dgy = lambda g: (np.asarray(g) * dy).sum(axis=-1) * live_y
    else:
        dgx = lambda g: np.asarray(g) * dx * live_x
        dgy = lambda g: np.asarray(g) * dy * live_y
    return Var(out, parents=((xs, dgx), (ys, dgy))), inside


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
        g = node.grad
        for parent, vjp in node._parents:
            contribution = vjp(g)
            # the first contribution is assigned; later ones make a new sum,
            # never in place, because identity vjps hand back `g` itself
            if parent.grad is None:
                parent.grad = contribution
            else:
                parent.grad = parent.grad + contribution
    for node in order:
        if not node._parents:
            # a sum of -0.0 contributions reads +0.0, as it did from a zero seed
            node.grad = node.grad + 0.0
