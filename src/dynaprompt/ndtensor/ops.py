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
``linear_rows`` runs ``linear`` at some rows of a sequence and still equals
it bit for bit there.  ``gather_blocks`` and ``cosine_pull`` each record as
one node what would otherwise be a chain per batch row; their rules hand a
shared input one gradient per row (``Parts``), in the order the chains'
nodes would, so they too equal the chains bit for bit.

A gradient rule closes over the arrays it reads, plain shapes and
``requires_grad`` flags, never over an input tensor (see ``record_op``): an
input whose value no rule reads is freed before backward reaches it.
"""

from __future__ import annotations

import numpy as np

from .tensor import (NumericError, Parts, ShapeError, Tensor, grad_enabled,
                     record_op)

__all__ = [
    "add", "sub", "mul", "div", "scale", "mul_const",
    "pow_const", "sqrt", "matmul", "linear", "linear_rows", "permute",
    "reshape", "concat", "slice_axis", "gather_rows", "gather_blocks",
    "embedding_lookup", "sum", "mean", "rowwise_scale", "softmax",
    "attention", "cross_entropy", "cosine_pull", "layernorm", "gelu",
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


def _binary(a, b, fwd, grad_a, grad_b, reads_data: bool) -> Tensor:
    """``grad_a``/``grad_b`` get the operands' data only if ``reads_data``."""
    a, b = _as_tensor(a), _as_tensor(b)
    _broadcast_shapes(a.shape, b.shape)
    out = Tensor(fwd(a.data, b.data))
    x, y = (a.data, b.data) if reads_data else (None, None)
    sa, sb, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def grad_fn(g):
        ga = _reduce_to(grad_a(g, x, y), sa) if ra else None
        gb = _reduce_to(grad_b(g, x, y), sb) if rb else None
        return ga, gb

    return record_op(out, (a, b), grad_fn)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, x, y: g, lambda g, x, y: g, False)


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: -g,
                   False)


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply,
                   lambda g, x, y: g * y, lambda g, x, y: g * x, True)


def div(a, b) -> Tensor:
    return _binary(a, b, np.divide,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y),
                   True)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    out = Tensor(a.data * c)
    return record_op(out, (a,), lambda g: (g * c,))


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
    A = a.data
    out = Tensor(A ** p)

    def grad_fn(g):
        return (g * p * A ** (p - 1.0),)

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
    ra, rb = a.requires_grad, b.requires_grad

    def grad_fn(g):
        if shared_weight:
            ga = np.matmul(g, B.T) if ra else None
            if rb:
                k, n = B.shape
                gb = np.matmul(A.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = None
        else:
            ga = np.matmul(g, B.swapaxes(-1, -2)) if ra else None
            gb = np.matmul(A.swapaxes(-1, -2), g) if rb else None
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
    needs = _linear_needs(x, w, b)
    return record_op(out, (x, w, b), lambda g: _linear_grads(W, X, g, needs))


def _linear_needs(x, w, b):
    """What ``_linear_grads`` reads of the inputs besides arrays: which of
    ``x``, ``w``, ``b`` require a gradient, and the bias shape."""
    return x.requires_grad, w.requires_grad, b.requires_grad, b.shape


def _linear_grads(W, X, g, needs):
    """Gradients of ``X @ W + b`` for those of ``x``, ``w``, ``b`` that
    require them (``needs`` from ``_linear_needs``), given the output
    gradient ``g``."""
    rx, rw, rb, b_shape = needs
    gx = np.matmul(g, W.T) if rx else None
    if rw:
        k, n = W.shape
        gw = np.matmul(X.reshape(-1, k).T, g.reshape(-1, n))
    else:
        gw = None
    gb = _reduce_to(g, b_shape) if rb else None
    return gx, gw, gb


def linear_rows(x, w, b, rows, length: int) -> Tensor:
    """``linear`` at the positions ``rows`` (ascending ints) of a
    [B, length, k] sequence only: ``x`` holds all ``length`` positions or
    just the R rows; the output is [B, R, m].

    The forward is one [B*R, k] @ ``w`` product, which equals ``linear``'s
    rows bit for bit.  The backward puts the output gradient (and a pruned
    ``x``) at their positions among zeros over all B*length rows and runs
    ``linear``'s gradient rule there, so its gradients equal those of
    ``linear`` over every position when the positions off ``rows`` get zero
    gradient.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    X, W = x.data, w.data
    rows = np.asarray(rows)
    if X.ndim != 3 or W.ndim != 2 or X.shape[-1] != W.shape[0] \
            or b.shape != W.shape[1:] or X.shape[1] not in (length, rows.size):
        raise ShapeError(f"linear_rows shapes disagree: x {list(x.shape)}, "
                         f"w {list(w.shape)}, b {list(b.shape)}, "
                         f"{rows.size} of {length} rows")
    bsz, k, m = X.shape[0], W.shape[0], W.shape[1]
    pruned = X.shape[1] != length
    flat = (X if pruned else X[:, rows]).reshape(-1, k)
    n = flat.shape[0]
    if n == 1:  # a one-row product takes gemv, whose sums differ from gemm's
        flat = np.concatenate([flat, np.zeros_like(flat)])
    y = np.matmul(flat, W)[:n]
    y += b.data
    out = Tensor(y.reshape(bsz, rows.size, m))
    needs = _linear_needs(x, w, b)
    pad_x = pruned and w.requires_grad

    def grad_fn(g):
        full_g = np.zeros((bsz, length, m))
        full_g[:, rows] = g
        full_x = X
        if pad_x:
            full_x = np.zeros((bsz, length, k))
            full_x[:, rows] = X
        gx, gw, gb = _linear_grads(W, full_x, full_g, needs)
        if pruned and gx is not None:
            gx = gx[:, rows]
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
    in_shape = a.shape
    return record_op(out, (a,), lambda g: (g.reshape(in_shape),))


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
    needs = [t.requires_grad for t in tensors]

    def grad_fn(g):
        pieces = []
        for i, needed in enumerate(needs):
            if needed:
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
    in_shape = a.shape

    def grad_fn(g):
        buf = np.zeros(in_shape)
        buf[idx] = g
        return (buf,)

    return record_op(out, (a,), grad_fn)


def _check_indices(idx: np.ndarray, extent: int, what: str):
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{what} indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= extent):
        raise IndexError(f"{what} index out of range [0, {extent})")


def gather_rows(a, indices) -> Tensor:
    """Select rows of ``a`` along axis 0; ``indices`` may have any shape.

    The gradient scatter-adds into the source, so unselected rows receive an
    exact zero.
    """
    a = _as_tensor(a)
    idx = np.asarray(indices)
    _check_indices(idx, a.shape[0], "gather_rows")
    out = Tensor(a.data[idx])
    in_shape = a.shape

    def grad_fn(g):
        buf = np.zeros(in_shape)
        np.add.at(buf, idx, g)
        return (buf,)

    return record_op(out, (a,), grad_fn)


def gather_blocks(values, indices, bias) -> Tensor:
    """Blocks of ``values`` [M, L, D] picked by ``indices`` [B, n], plus
    ``bias`` [D] on every token: [B, n*L, D], row b holding the blocks
    ``indices[b]`` in order.

    Per row this is ``gather_rows``, a reshape to [n*L, D] and an ``add``
    of the bias.  The forward is elementwise, so it equals those rows bit
    for bit.  The backward hands each input one gradient per row, the last
    row first, as the per-row nodes would.
    """
    values, bias = _as_tensor(values), _as_tensor(bias)
    idx = np.asarray(indices)
    if values.ndim != 3 or bias.shape != values.shape[2:] or idx.ndim != 2:
        raise ShapeError(f"gather_blocks needs values [M, L, D], indices "
                         f"[B, n] and bias [D], got {list(values.shape)}, "
                         f"{list(idx.shape)}, {list(bias.shape)}")
    _check_indices(idx, values.shape[0], "gather_blocks")
    m, length, d = values.shape
    b, n = idx.shape
    y = values.data[idx].reshape(b, n * length, d)
    y += bias.data
    out = Tensor(y)
    rv, rb = values.requires_grad, bias.requires_grad

    def grad_fn(g):
        gv = gb = None
        if rv:
            gv = Parts()
            for i in range(b - 1, -1, -1):
                buf = np.zeros((m, length, d))
                np.add.at(buf, idx[i], g[i].reshape(n, length, d))
                gv.append(buf)
        if rb:
            gb = Parts(g[i].sum(axis=0) for i in range(b - 1, -1, -1))
        return gv, gb

    return record_op(out, (values, bias), grad_fn)


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
    in_shape = a.shape

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g, in_shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, in_shape).copy(),)

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
    permute, matmul, scale, add and softmax bit for bit.  The node
    keeps only what its backward reads: its inputs' values and the
    probabilities.
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
    Q, K, V = q.data, k.data, v.data
    rq, rk, rv = q.requires_grad, k.requires_grad, v.requires_grad
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
        return np.ascontiguousarray(heads(K, length).transpose(0, 1, 3, 2))

    def values():
        return np.ascontiguousarray(heads(V, length))

    p = np.matmul(np.ascontiguousarray(heads(Q, lq)), keys_t())
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
        if rv:
            gv = np.matmul(p.swapaxes(-1, -2), gh)
            gv = gv.transpose(0, 2, 1, 3).reshape(b, length, d)
        if rq or rk:
            gs = np.matmul(gh, values().swapaxes(-1, -2))
            gs -= np.sum(gs * p, axis=-1, keepdims=True)
            gs *= p
            gs *= c
            if rq:
                gq = np.matmul(gs, keys_t().swapaxes(-1, -2))
                gq = gq.transpose(0, 2, 1, 3).reshape(b, lq, d)
            if rk:
                qh = np.ascontiguousarray(heads(Q, lq))
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


def _pow_half(a: np.ndarray) -> np.ndarray:
    """``pow_const(a, 0.5)``'s value, with its domain check.  ``a`` must be
    an ndarray, 0-d included: numpy takes ``sqrt`` for an array's ``** 0.5``
    but ``pow`` for a scalar's, and the two can differ in the last bit."""
    if np.any(a <= 0.0):
        raise NumericError("pow_const(p=0.5) needs strictly positive inputs")
    return np.asarray(a ** 0.5)


def cosine_pull(records, c: float) -> Tensor:
    """``c`` times the pull of selected keys toward their queries.

    Each record is (keys [M, D], queries [B, D], indices [B, n]).  Row i of
    a record adds n - sum_j cos(keys[indices[i, j]], queries[i]); a zero
    query row adds the constant n, with no gradient.  The rows add up in
    record order, then the sum is scaled by ``c``.

    Per row the forward repeats the numpy calls of the composition
    ``n - sum(div(matmul(k, q), mul(sqrt(sum(mul(k, k), 1)),
    sqrt(sum(mul(q, q))))))`` at the same shapes, and the backward each of
    those ops' gradient rules in reverse, so values and gradients equal the
    composition's bit for bit.  The node's inputs are each record's keys
    and queries, the last record first, and each gets one gradient per row,
    the last row first: a key set or query block that several records share
    then sums its gradients in the composition's order.  The node keeps
    copies of the selected key rows, not the key sets, and views of the
    query rows, which keep the query block alive as the composition did.
    """
    c = float(c)
    taped = grad_enabled()
    inputs, rules = [], []  # per record, last first
    total = None
    for keys, queries, indices in records:
        keys, queries = _as_tensor(keys), _as_tensor(queries)
        idx = np.asarray(indices)
        K, Q = keys.data, queries.data
        if K.ndim != 2 or Q.ndim != 2 or Q.shape[1] != K.shape[1] \
                or idx.ndim != 2 or idx.shape[0] != Q.shape[0]:
            raise ShapeError(f"cosine_pull needs keys [M, D], queries [B, D] "
                             f"and indices [B, n], got {list(K.shape)}, "
                             f"{list(Q.shape)}, {list(idx.shape)}")
        _check_indices(idx, K.shape[0], "cosine_pull")
        d = K.shape[1]
        rk = taped and keys.requires_grad
        rq = taped and queries.requires_grad
        live = []  # what the backward of each row with a gradient reads
        for i, row in enumerate(idx):
            n = len(row)
            if float(np.linalg.norm(Q[i])) == 0.0:
                term = np.asarray(float(n))
            else:
                q = np.ascontiguousarray(Q[i:i + 1]).reshape(d)
                ks = K[row]
                dots = np.matmul(ks, q.reshape(d, 1)).reshape(n)
                s = np.sum(ks * ks, axis=1)
                kn = _pow_half(s)
                sq = np.asarray(np.sum(q * q))
                qn = _pow_half(sq)
                den = kn * qn
                term = np.asarray(float(n)) - np.asarray(np.sum(dots / den))
                if rk or rq:
                    live.append((i, row, q, ks, dots, s, kn, sq, qn, den))
            total = term if total is None else np.asarray(total + term)
        inputs[:0] = (keys, queries)
        rules.insert(0, (live, rk, rq, K.shape, Q.shape))
    if total is None:
        raise ShapeError("cosine_pull over no rows")
    out = Tensor(total * c)

    def grad_fn(g):
        g = -(g * c)  # scale, the adds of the rows, n - sum(cos)
        grads = []
        for live, rk, rq, k_shape, q_shape in rules:
            gk, gq = Parts() if rk else None, Parts() if rq else None
            for i, row, q, ks, dots, s, kn, sq, qn, den in reversed(live):
                n, d = ks.shape
                gc = np.broadcast_to(g, (n,)).copy()  # sum(cos)
                g_dots = (gc / den).reshape((n, 1))  # div, reshape
                g_den = -gc * dots / (den * den)
                if rk:
                    # mul(kn, qn), sqrt, sum over axis 1, mul(k, k), matmul
                    g_s = g_den * qn * 0.5 * s ** (0.5 - 1.0)
                    g_kk = np.broadcast_to(np.expand_dims(g_s, 1),
                                           (n, d)).copy()
                    g_ks = g_kk * ks + g_kk * ks
                    g_ks = g_ks + np.matmul(g_dots,
                                            q.reshape(d, 1).swapaxes(-1, -2))
                    buf = np.zeros(k_shape)  # gather_rows
                    np.add.at(buf, row, g_ks)
                    gk.append(buf)
                if rq:
                    # mul(kn, qn), sqrt, sum, mul(q, q), matmul
                    g_qn = (g_den * kn).sum(axis=(0,))
                    g_qq = np.broadcast_to(g_qn * 0.5 * sq ** (0.5 - 1.0),
                                           (d,)).copy()
                    g_q = g_qq * q + g_qq * q
                    g_q = g_q + np.matmul(ks.swapaxes(-1, -2),
                                          g_dots).reshape(d)
                    buf = np.zeros(q_shape)  # slice_axis at row i
                    buf[i:i + 1] = g_q.reshape((1, d))
                    gq.append(buf)
            grads += (gk, gq)
        return grads

    if not any(rule[0] for rule in rules):  # no row has a gradient
        return out
    return record_op(out, tuple(inputs), grad_fn)


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
    G = gain.data
    np.multiply(xhat, G, out=y)
    y += bias.data
    out = Tensor(y)
    rx, rg, rb = x.requires_grad, gain.requires_grad, bias.requires_grad

    def grad_fn(g):
        gx = None
        if rx:
            dxhat = g * G
            tmp = dxhat * xhat
            m2 = np.mean(tmp, axis=-1, keepdims=True)
            dxhat -= np.mean(dxhat, axis=-1, keepdims=True)
            np.multiply(xhat, m2, out=tmp)
            dxhat -= tmp
            dxhat *= inv
            gx = dxhat
        gg = (g * xhat).reshape(-1, d).sum(axis=0) if rg else None
        gb = g.reshape(-1, d).sum(axis=0) if rb else None
        return gx, gg, gb

    return record_op(out, (x, gain, bias), grad_fn)


# Cephes ndtr.c coefficients: erf on |x| <= 1 (T, U), erfc on 1 < |x| < 8
# (P, Q).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _polevl(z: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, one rounding per step (no FMA)."""
    y = coef[0] * z
    y += coef[1]
    for c in coef[2:]:
        y *= z
        y += c
    return y


def _p1evl(z: np.ndarray, coef) -> np.ndarray:
    """Cephes ``p1evl``: ``_polevl`` with an implied leading 1.0."""
    y = z + coef[0]
    for c in coef[1:]:
        y *= z
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function, equal bit for bit to Cephes ``erf`` (ndtr.c):
    the same float operations in the same order.

    |x| <= 1 takes the rational form in x*x, which is odd, so it runs on the
    signed x.  1 < |x| < 6 takes 1 - erfc(|x|) with its sign copied back.
    From |x| = 6 on erfc is below 2**-54 and the result is exactly +-1.0, so
    |x| is clamped to 6 there; this also covers +-inf.  NaN stays NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = x * x
        out = x * _polevl(z, _ERF_T)
        out /= _p1evl(z, _ERF_U)
        idx = np.flatnonzero(z > 1.0)
        if idx.size:
            xb = np.take(x, idx)
            a = np.minimum(np.abs(xb), 6.0)
            e = a * a
            np.negative(e, out=e)
            # Cephes calls libm's exp.  numpy's float64 exp is its own SIMD
            # code and differs from libm in the last bit on some inputs;
            # its complex exp is C99 cexp, whose real part at a zero
            # imaginary part is libm's exp(re) * 1.0.
            e = np.exp(e.astype(np.complex128)).real
            e *= _polevl(a, _ERFC_P)
            e /= _p1evl(a, _ERFC_Q)
            np.subtract(1.0, e, out=a)
            np.copysign(a, xb, out=a)
            np.put(out, idx, a)
    return out


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit, x * (1 + erf(x / sqrt 2)) / 2, with
    ``_erf`` in numpy.

    When the op is recorded, the forward also computes the derivative
    cdf + x * pdf, with ``np.exp`` for the density, and the node keeps only
    that array; its backward is one multiply.  Under ``no_grad``, or for an
    input that needs no gradient, no derivative is computed.
    """
    a = _as_tensor(a)
    A = a.data
    cdf = _erf(A * _INV_SQRT2)
    cdf += 1.0
    cdf *= 0.5
    out = Tensor(A * cdf)
    if not (grad_enabled() and a.requires_grad):
        return out
    pdf = np.exp(-0.5 * A * A)
    pdf *= _INV_SQRT2PI
    d = cdf + A * pdf
    return record_op(out, (a,), lambda g: (g * d,))
