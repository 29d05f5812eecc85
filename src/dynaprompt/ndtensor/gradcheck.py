"""Central-difference gradient verification for tape-recorded functions.

``fd_check`` compares tape gradients of a deterministic scalar function
against (f(x+h) - f(x-h)) / 2h per coordinate.  ``OP_SUITE`` registers a
named finite-difference case for every differentiable op so the whole ruleset
can be swept under many seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .tensor import NumericError, Tensor, backward, no_grad

__all__ = ["fd_check", "FdCheckReport", "OP_SUITE", "run_op_suite"]


@dataclass
class FdCheckReport:
    """Per-parameter worst relative error between tape and finite differences."""

    per_param: dict[str, float] = field(default_factory=dict)
    tol: float = 1e-5
    h: float = 1e-5

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tol

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max_rel_error={self.max_rel_error:.3e} tol={self.tol:.1e}"


def _rel_error(g: float, fd: float) -> float:
    # Relative for large gradients, absolute (floor 1) for tiny ones; keeps
    # central-difference roundoff (~1e-11 on unit-scale values) well under tol.
    return abs(g - fd) / max(abs(g), abs(fd), 1.0)


def fd_check(f, params: dict[str, Tensor], h: float = 1e-5, tol: float = 1e-5,
             coords_per_param: int | None = None,
             rng: np.random.Generator | None = None) -> FdCheckReport:
    """Verify tape gradients of ``f`` (zero-arg, returns scalar Tensor).

    ``params`` maps names to the leaf tensors ``f`` closes over.  Every
    coordinate is perturbed unless ``coords_per_param`` caps the (seeded)
    sample per tensor.  Non-determinism of ``f`` is detected by evaluating it
    twice before differencing.
    """
    with no_grad():
        v0 = float(f().item())
        v1 = float(f().item())
    if v0 != v1:
        raise NumericError(f"fd_check: f is non-deterministic ({v0!r} != {v1!r})")

    for p in params.values():
        p.grad = None
    loss = f()
    backward(loss)

    report = FdCheckReport(tol=tol, h=h)
    for name, p in params.items():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if coords_per_param is not None and n > coords_per_param:
            sampler = rng if rng is not None else np.random.default_rng(0)
            coords = sampler.choice(n, size=coords_per_param, replace=False)
        else:
            coords = range(n)
        worst = 0.0
        with no_grad():
            for i in coords:
                orig = flat[i]
                flat[i] = orig + h
                fp = float(f().item())
                flat[i] = orig - h
                fm = float(f().item())
                flat[i] = orig
                fd = (fp - fm) / (2.0 * h)
                worst = max(worst, _rel_error(float(grad.reshape(-1)[i]), fd))
        report.per_param[name] = worst
    return report


# ---------------------------------------------------------------------------
# one finite-difference case per differentiable op
# ---------------------------------------------------------------------------

def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _case_add(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
    return (lambda: ops.sum(ops.mul(ops.add(a, b), ops.add(a, b)))), {"a": a, "b": b}


def _case_sub(rng):
    a, b = _leaf(rng, (2, 3)), _leaf(rng, (2, 3))
    return (lambda: ops.sum(ops.mul(ops.sub(a, b), a))), {"a": a, "b": b}


def _case_mul(rng):
    a, b = _leaf(rng, (2, 3, 2)), _leaf(rng, (2,))
    return (lambda: ops.sum(ops.mul(a, b))), {"a": a, "b": b}


def _case_div(rng):
    a, b = _leaf(rng, (3, 3)), _leaf(rng, (3, 3), 0.5, 2.0)
    return (lambda: ops.sum(ops.div(a, b))), {"a": a, "b": b}


def _case_scale(rng):
    a = _leaf(rng, (4,))
    return (lambda: ops.sum(ops.scale(a, 2.5))), {"a": a}


def _case_add_const(rng):
    a = _leaf(rng, (2, 4))
    c = rng.uniform(-1, 1, size=(4,))
    return (lambda: ops.sum(ops.mul(ops.add_const(a, c), a))), {"a": a}


def _case_mul_const(rng):
    a = _leaf(rng, (2, 4))
    c = rng.uniform(-1, 1, size=(2, 4))
    return (lambda: ops.sum(ops.mul_const(a, c))), {"a": a}


def _case_pow_const(rng):
    a = _leaf(rng, (6,), 0.3, 2.0)
    return (lambda: ops.sum(ops.pow_const(a, 1.7))), {"a": a}


def _case_sqrt(rng):
    a = _leaf(rng, (6,), 0.2, 3.0)
    return (lambda: ops.sum(ops.sqrt(a))), {"a": a}


def _case_matmul(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4, 2))
    return (lambda: ops.sum(ops.matmul(a, b))), {"a": a, "b": b}


def _case_matmul_batched(rng):
    a, b = _leaf(rng, (2, 3, 4)), _leaf(rng, (2, 4, 2))
    return (lambda: ops.sum(ops.mul(ops.matmul(a, b), ops.matmul(a, b)))), {"a": a, "b": b}


def _case_matmul_weight(rng):
    a, w = _leaf(rng, (2, 3, 4)), _leaf(rng, (4, 3))
    return (lambda: ops.sum(ops.matmul(a, w))), {"a": a, "w": w}


def _case_linear(rng, x_shape=(2, 3, 4), n_out=3):
    x = _leaf(rng, x_shape)
    w, b = _leaf(rng, (x_shape[-1], n_out)), _leaf(rng, (n_out,))
    c = rng.uniform(-1, 1, size=x_shape[:-1] + (n_out,))
    return (lambda: ops.sum(ops.mul_const(ops.linear(x, w, b), c))), \
           {"x": x, "w": w, "b": b}


def _case_permute(rng):
    a = _leaf(rng, (2, 3, 4))
    return (lambda: ops.sum(ops.mul(ops.permute(a, (2, 0, 1)),
                                    ops.permute(a, (2, 0, 1))))), {"a": a}


def _case_reshape(rng):
    a = _leaf(rng, (3, 4))
    return (lambda: ops.sum(ops.mul(ops.reshape(a, (2, 6)),
                                    ops.reshape(a, (2, 6))))), {"a": a}


def _case_concat(rng):
    a, b = _leaf(rng, (2, 3)), _leaf(rng, (4, 3))
    def f():
        c = ops.concat([a, b], axis=0)
        return ops.sum(ops.mul(c, c))
    return f, {"a": a, "b": b}


def _case_slice_axis(rng):
    a = _leaf(rng, (5, 3))
    return (lambda: ops.sum(ops.mul(ops.slice_axis(a, 0, 1, 4),
                                    ops.slice_axis(a, 0, 1, 4)))), {"a": a}


def _case_gather_rows(rng):
    a = _leaf(rng, (6, 3))
    idx = rng.integers(0, 6, size=(4,))
    return (lambda: ops.sum(ops.mul(ops.gather_rows(a, idx),
                                    ops.gather_rows(a, idx)))), {"a": a}


def _case_embedding_lookup(rng):
    t = _leaf(rng, (7, 4))
    ids = rng.integers(0, 7, size=(2, 3))
    return (lambda: ops.sum(ops.mul(ops.embedding_lookup(t, ids),
                                    ops.embedding_lookup(t, ids)))), {"table": t}


def _case_sum(rng):
    a = _leaf(rng, (3, 4))
    return (lambda: ops.sum(ops.mul(ops.sum(a, axis=1), ops.sum(a, axis=1)))), {"a": a}


def _case_mean(rng):
    a = _leaf(rng, (3, 4))
    return (lambda: ops.sum(ops.mul(ops.mean(a, axis=0), ops.mean(a, axis=0)))), {"a": a}


def _case_rowwise_scale(rng):
    a, s = _leaf(rng, (3, 4)), _leaf(rng, (3,))
    return (lambda: ops.sum(ops.mul(ops.rowwise_scale(a, s), a))), {"a": a, "s": s}


def _case_softmax(rng):
    a = _leaf(rng, (3, 5), -3.0, 3.0)
    w = rng.uniform(-1, 1, size=(3, 5))
    return (lambda: ops.sum(ops.mul_const(ops.softmax(a, axis=-1), w))), {"a": a}


def _case_attention(rng):
    # two heads, fewer query rows than keys, the last key masked for item 0
    q = _leaf(rng, (2, 2, 4), -2.0, 2.0)
    k = _leaf(rng, (2, 3, 4), -2.0, 2.0)
    v = _leaf(rng, (2, 3, 4))
    mask_add = np.zeros((2, 1, 1, 3))
    mask_add[0, ..., 2] = -1e30
    c = rng.uniform(-1, 1, size=(2, 2, 4))
    return (lambda: ops.sum(ops.mul_const(ops.attention(q, k, v, mask_add, 2),
                                          c))), {"q": q, "k": k, "v": v}


def _case_cross_entropy(rng):
    logits = _leaf(rng, (4, 6), -2.0, 2.0)
    labels = rng.integers(0, 6, size=(4,))
    return (lambda: ops.cross_entropy(logits, labels)), {"logits": logits}


def _case_layernorm(rng):
    x = _leaf(rng, (3, 6))
    g = _leaf(rng, (6,), 0.5, 1.5)
    b = _leaf(rng, (6,))
    w = rng.uniform(-1, 1, size=(3, 6))
    return (lambda: ops.sum(ops.mul_const(ops.layernorm(x, g, b), w))), \
           {"x": x, "gain": g, "bias": b}


def _case_gelu(rng):
    a = _leaf(rng, (2, 6), -3.0, 3.0)
    return (lambda: ops.sum(ops.gelu(a))), {"a": a}


OP_SUITE: dict = {
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "div": _case_div,
    "scale": _case_scale,
    "add_const": _case_add_const,
    "mul_const": _case_mul_const,
    "pow_const": _case_pow_const,
    "sqrt": _case_sqrt,
    "matmul": _case_matmul,
    "matmul_batched": _case_matmul_batched,
    "matmul_weight": _case_matmul_weight,
    "linear": _case_linear,
    "linear_2d": lambda rng: _case_linear(rng, (3, 4), 2),
    "permute": _case_permute,
    "reshape": _case_reshape,
    "concat": _case_concat,
    "slice_axis": _case_slice_axis,
    "gather_rows": _case_gather_rows,
    "embedding_lookup": _case_embedding_lookup,
    "sum": _case_sum,
    "mean": _case_mean,
    "rowwise_scale": _case_rowwise_scale,
    "softmax": _case_softmax,
    "attention": _case_attention,
    "cross_entropy": _case_cross_entropy,
    "layernorm": _case_layernorm,
    "gelu": _case_gelu,
}


def run_op_suite(seeds: int = 100, tol: float = 1e-5, h: float = 1e-5):
    """fd-check every registered op across ``seeds`` random inputs.

    Returns (passed, worst) where worst maps op name to its maximum relative
    error over all seeds.
    """
    worst: dict[str, float] = {}
    for name, builder in OP_SUITE.items():
        top = 0.0
        for seed in range(seeds):
            f, params = builder(np.random.default_rng(seed))
            report = fd_check(f, params, h=h, tol=tol)
            top = max(top, report.max_rel_error)
        worst[name] = top
    return all(v < tol for v in worst.values()), worst
