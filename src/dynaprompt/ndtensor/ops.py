"""Differentiable tensor operations.

Every op validates its operands, computes the forward value with numpy, and
registers an exact gradient rule on the active tape.  Broadcasting is
deliberately narrow: elementwise binaries accept equal shapes, a scalar, or
one operand whose shape is a trailing suffix of the other (leading-axis batch
broadcast).  Richer patterns are built from permute + suffix broadcast so
every gradient rule stays auditable.

Reductions rely on numpy's deterministic evaluation order, so repeated runs
over identical inputs are bit-identical.

``linear`` and ``attention`` each record as one node what would otherwise be
a chain of the ops here, with the same arithmetic in the same order, so they
equal that chain bit for bit while keeping fewer arrays alive.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf as _erf

from .tensor import NumericError, ShapeError, Tensor, record_op

__all__ = [
    "add", "sub", "mul", "div", "scale", "add_const", "mul_const",
    "pow_const", "sqrt", "matmul", "linear", "permute", "reshape", "concat",
    "slice_axis", "gather_rows", "embedding_lookup", "sum", "mean",
    "rowwise_scale", "softmax", "attention", "cross_entropy", "layernorm",
    "gelu",
]

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise binaries with suffix (leading-axis) broadcast
# ---------------------------------------------------------------------------

def _broadcast_shapes(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if len(sa) >= len(sb) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeError(
        f"shapes {list(sa)} and {list(sb)} are neither equal nor "
        "leading-axis broadcastable"
    )


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over broadcast leading axes back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


def _binary(a, b, fwd, grad_a, grad_b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shapes(a.shape, b.shape)
    out = Tensor(fwd(a.data, b.data))

    def grad_fn(g):
        ga = _reduce_to(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _reduce_to(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return record_op(out, (a, b), grad_fn)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary(a, b, np.divide,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    return record_op(out, (a,), lambda g: (g * c,))


def add_const(a, arr) -> Tensor:
    """Add a non-trainable array; it must broadcast into ``a``'s shape."""
    a = _as_tensor(a)
    arr = np.asarray(arr, dtype=np.float64)
    if np.broadcast_shapes(a.shape, arr.shape) != a.shape:
        raise ShapeError(f"constant of shape {list(arr.shape)} does not "
                         f"broadcast into {list(a.shape)}")
    out = Tensor(a.data + arr)
    return record_op(out, (a,), lambda g: (g,))


def mul_const(a, arr) -> Tensor:
    """Multiply by a non-trainable array broadcastable into ``a``'s shape."""
    a = _as_tensor(a)
    arr = np.asarray(arr, dtype=np.float64)
    if np.broadcast_shapes(a.shape, arr.shape) != a.shape:
        raise ShapeError(f"constant of shape {list(arr.shape)} does not "
                         f"broadcast into {list(a.shape)}")
    out = Tensor(a.data * arr)
    return record_op(out, (a,), lambda g: (g * arr,))


def pow_const(a, p: float) -> Tensor:
    """Elementwise power with constant exponent.

    Non-integer or negative exponents require strictly positive inputs so the
    gradient a -> p*a**(p-1) stays finite.
    """
    a = _as_tensor(a)
    p = float(p)
    if (p != int(p) or p < 1.0) and np.any(a.data <= 0.0):
        raise NumericError(f"pow_const(p={p}) needs strictly positive inputs")
    out = Tensor(a.data ** p)

    def grad_fn(g):
        return (g * p * a.data ** (p - 1.0),)

    return record_op(out, (a,), grad_fn)


def sqrt(a) -> Tensor:
    return pow_const(a, 0.5)


# ---------------------------------------------------------------------------
# linear algebra and structure
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product.

    Supported: 2-D x 2-D, batched x batched with identical leading axes, and
    batched x 2-D (shared weight applied to every leading slice).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got "
                         f"{list(a.shape)} x {list(b.shape)}")
    if A.shape[-1] != B.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: "
                         f"{list(a.shape)} x {list(b.shape)}")
    shared_weight = B.ndim == 2 and A.ndim > 2
    if not shared_weight and A.shape[:-2] != B.shape[:-2]:
        raise ShapeError(f"matmul leading axes disagree: "
                         f"{list(a.shape)} x {list(b.shape)}")
    out = Tensor(np.matmul(A, B))

    def grad_fn(g):
        if shared_weight:
            ga = np.matmul(g, B.T) if a.requires_grad else None
            if b.requires_grad:
                k, n = B.shape
                gb = np.matmul(A.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = None
        else:
            ga = np.matmul(g, B.swapaxes(-1, -2)) if a.requires_grad else None
            gb = np.matmul(A.swapaxes(-1, -2), g) if b.requires_grad else None
        return ga, gb

    return record_op(out, (a, b), grad_fn)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` as one node: ``x`` is [n, k] or batched
    [..., n, k] over the shared weight ``w`` [k, m]; ``b`` is [m].

    The values and gradients equal ``add(matmul(x, w), b)``'s bit for bit;
    the node keeps only its inputs, not the pre-bias product.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    X, W = x.data, w.data
    if X.ndim < 2 or W.ndim != 2 or X.shape[-1] != W.shape[0] \
            or b.shape != W.shape[1:]:
        raise ShapeError(f"linear shapes disagree: x {list(x.shape)}, "
                         f"w {list(w.shape)}, b {list(b.shape)}")
    y = np.matmul(X, W)
    y += b.data
    out = Tensor(y)

    def grad_fn(g):
        gx = np.matmul(g, W.T) if x.requires_grad else None
        if w.requires_grad:
            k, n = W.shape
            gw = np.matmul(X.reshape(-1, k).T, g.reshape(-1, n))
        else:
            gw = None
        gb = _reduce_to(g, b.shape) if b.requires_grad else None
        return gx, gw, gb

    return record_op(out, (x, w, b), grad_fn)


def permute(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute axes {list(axes)} invalid for rank {a.ndim}")
    inverse = tuple(np.argsort(axes))
    out = Tensor(a.data.transpose(axes))  # ctor makes the contiguous copy
    return record_op(out, (a,), lambda g: (g.transpose(inverse),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {list(a.shape)} into {list(shape)}")
    out = Tensor(a.data.reshape(shape))
    return record_op(out, (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat of an empty sequence")
    nd = tensors[0].ndim
    axis = axis % nd
    ref = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != nd or other[:axis] + other[axis + 1:] != ref[:axis] + ref[axis + 1:]:
            raise ShapeError(f"concat shapes disagree off axis {axis}: "
                             f"{ref} vs {other}")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def grad_fn(g):
        pieces = []
        for i, t in enumerate(tensors):
            if t.requires_grad:
                idx = [slice(None)] * nd
                idx[axis] = slice(bounds[i], bounds[i + 1])
                pieces.append(np.ascontiguousarray(g[tuple(idx)]))
            else:
                pieces.append(None)
        return pieces

    return record_op(out, tuple(tensors), grad_fn)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    axis = axis % a.ndim
    n = a.shape[axis]
    if not (0 <= start <= stop <= n):
        raise ShapeError(f"slice [{start}:{stop}] out of range for extent {n}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(np.ascontiguousarray(a.data[idx]))

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        return (buf,)

    return record_op(out, (a,), grad_fn)


def gather_rows(a, indices) -> Tensor:
    """Select rows of ``a`` along axis 0; ``indices`` may have any shape.

    The gradient scatter-adds into the source, so unselected rows receive an
    exact zero.
    """
    a = _as_tensor(a)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError("gather_rows indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise IndexError(f"gather index out of range [0, {a.shape[0]})")
    out = Tensor(a.data[idx])

    def grad_fn(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return record_op(out, (a,), grad_fn)


def embedding_lookup(table, ids) -> Tensor:
    """Row lookup of ``ids`` (any integer shape) in a 2-D embedding table."""
    table = _as_tensor(table)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {list(table.shape)}")
    return gather_rows(table, ids)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum(a, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001
    a = _as_tensor(a)
    out = Tensor(np.sum(a.data, axis=axis, keepdims=keepdims))

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return record_op(out, (a,), grad_fn)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    return scale(sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def rowwise_scale(a, s) -> Tensor:
    """Scale the last axis of ``a`` per leading index: out[..., d] = a[..., d]*s[...].

    ``s`` must have exactly ``a``'s leading shape.  Implemented by moving the
    last axis to the front so the multiply is a plain suffix broadcast.
    """
    a, s = _as_tensor(a), _as_tensor(s)
    if a.shape[:-1] != s.shape:
        raise ShapeError(f"rowwise_scale shapes disagree: {list(a.shape)} "
                         f"vs {list(s.shape)}")
    axes = (a.ndim - 1,) + tuple(range(a.ndim - 1))
    back = tuple(range(1, a.ndim)) + (0,)
    return permute(mul(permute(a, axes), s), back)


# ---------------------------------------------------------------------------
# nonlinearities and losses
# ---------------------------------------------------------------------------

def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``; rows sum to one exactly up to rounding."""
    a = _as_tensor(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softmax on non-finite input")
    y = a.data - np.max(a.data, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= np.sum(y, axis=axis, keepdims=True)
    out = Tensor(y)

    def grad_fn(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return record_op(out, (a,), grad_fn)


def attention(q, k, v, mask_add, n_heads: int) -> Tensor:
    """Masked multi-head scaled dot-product attention as one node.

    ``q`` is [B, Lq, d] and ``k``, ``v`` are [B, L, d]; each splits into
    ``n_heads`` heads of d / n_heads features.  Per head the scores
    q k^T / sqrt(d / n_heads) get the constant ``mask_add`` (broadcast into
    [B, heads, Lq, L]; a large negative entry masks a key), a softmax over
    the keys weights v, and the heads merge back into [B, Lq, d].

    The values and gradients equal those of the composition of reshape,
    permute, matmul, scale, add_const and softmax bit for bit.  The node
    keeps only what its backward reads: its inputs and the probabilities.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim != 3 or k.shape != v.shape or k.ndim != 3 \
            or k.shape[0] != q.shape[0] or k.shape[2] != q.shape[2]:
        raise ShapeError(f"attention needs q [B, Lq, d] and k, v [B, L, d], "
                         f"got {list(q.shape)}, {list(k.shape)}, "
                         f"{list(v.shape)}")
    b, lq, d = q.shape
    length = k.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"{n_heads} heads do not divide width {d}")
    hd = d // n_heads
    c = float(1.0 / np.sqrt(hd))
    mask_add = np.asarray(mask_add, dtype=np.float64)
    scores_shape = (b, n_heads, lq, length)
    if np.broadcast_shapes(scores_shape, mask_add.shape) != scores_shape:
        raise ShapeError(f"mask of shape {list(mask_add.shape)} does not "
                         f"broadcast into {list(scores_shape)}")

    def heads(a, n):  # [B, n, d] -> [B, heads, n, hd] view
        return a.reshape(b, n, n_heads, hd).transpose(0, 2, 1, 3)

    # Each matmul operand has the layout the composition gives it, so the
    # BLAS calls, and with them every rounding, are the same.
    def keys_t():
        return np.ascontiguousarray(heads(k.data, length).transpose(0, 1, 3, 2))

    def values():
        return np.ascontiguousarray(heads(v.data, length))

    p = np.matmul(np.ascontiguousarray(heads(q.data, lq)), keys_t())
    p *= c
    p += mask_add
    if not np.all(np.isfinite(p)):
        raise NumericError("attention scores are not finite")
    p -= np.max(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.sum(p, axis=-1, keepdims=True)
    ctx = np.matmul(p, values())
    out = Tensor(ctx.transpose(0, 2, 1, 3).reshape(b, lq, d))

    def grad_fn(g):
        gh = g.reshape(b, lq, n_heads, hd).transpose(0, 2, 1, 3)
        gq = gk = gv = None
        if v.requires_grad:
            gv = np.matmul(p.swapaxes(-1, -2), gh)
            gv = gv.transpose(0, 2, 1, 3).reshape(b, length, d)
        if q.requires_grad or k.requires_grad:
            gs = np.matmul(gh, values().swapaxes(-1, -2))
            gs -= np.sum(gs * p, axis=-1, keepdims=True)
            gs *= p
            gs *= c
            if q.requires_grad:
                gq = np.matmul(gs, keys_t().swapaxes(-1, -2))
                gq = gq.transpose(0, 2, 1, 3).reshape(b, lq, d)
            if k.requires_grad:
                qh = np.ascontiguousarray(heads(q.data, lq))
                gk = np.matmul(qh.swapaxes(-1, -2), gs)
                gk = gk.transpose(0, 3, 1, 2).reshape(b, length, d)
        return gq, gk, gv

    return record_op(out, (q, k, v), grad_fn)


def cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of ``labels`` under row-wise softmax.

    ``logits`` is [n, classes]; ``labels`` is an integer vector of length n.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy logits must be 2-D, got {list(logits.shape)}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels shape {list(labels.shape)} does not match "
                         f"logits {list(logits.shape)}")
    n, v = logits.shape
    if n == 0:
        raise ShapeError("cross_entropy on an empty batch")
    if labels.min() < 0 or labels.max() >= v:
        raise IndexError(f"label out of range [0, {v})")
    z = logits.data
    m = np.max(z, axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1))
    rows = np.arange(n)
    out = Tensor(np.mean(lse - z[rows, labels]))

    def grad_fn(g):
        p = np.exp(z - m)
        p /= np.sum(p, axis=1, keepdims=True)
        p[rows, labels] -= 1.0
        return (p * (float(g) / n),)

    return record_op(out, (logits,), grad_fn)


def layernorm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layernorm gain/bias must have shape [{d}], got "
                         f"{list(gain.shape)} / {list(bias.shape)}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    xhat = x.data - mu
    y = xhat ** 2
    var = np.mean(y, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=y)
    y += bias.data
    out = Tensor(y)

    def grad_fn(g):
        gx = None
        if x.requires_grad:
            dxhat = g * gain.data
            tmp = dxhat * xhat
            m2 = np.mean(tmp, axis=-1, keepdims=True)
            dxhat -= np.mean(dxhat, axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=tmp)
            dxhat -= tmp
            dxhat *= inv
            gx = dxhat
        gg = (g * xhat).reshape(-1, d).sum(axis=0) if gain.requires_grad else None
        gb = g.reshape(-1, d).sum(axis=0) if bias.requires_grad else None
        return gx, gg, gb

    return record_op(out, (x, gain, bias), grad_fn)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    a = _as_tensor(a)
    cdf = _erf(a.data * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = Tensor(a.data * cdf)

    def grad_fn(g):
        pdf = np.exp(-0.5 * a.data * a.data)
        pdf *= _INV_SQRT2PI
        return (g * (cdf + a.data * pdf),)

    return record_op(out, (a,), grad_fn)
