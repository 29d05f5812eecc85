"""Dense float64 tensors recorded on a reverse-mode differentiation tape.

Values are flat row-major float64 buffers (numpy arrays kept C-contiguous).
Differentiable operations append nodes to the active :class:`Tape`; a call to
:func:`backward` walks that tape strictly in reverse creation order and
accumulates gradients into every reachable leaf.  A tape is consumed by
exactly one backward pass; the next recorded op starts a fresh one.

Tensors produced on an already-consumed tape are treated as constants if they
are fed into later computations: gradients never flow across tape boundaries.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "no_grad",
    "tensor",
    "zeros",
    "ShapeError",
    "NumericError",
    "TapeConsumedError",
    "flags",
]


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """Non-finite values or a numeric-domain violation."""


class TapeConsumedError(RuntimeError):
    """A second backward pass was attempted on a consumed tape."""


class _NumericFlags:
    """Process-wide counters for degenerate-but-tolerated numeric events."""

    def __init__(self):
        self.degenerate_cosine = 0

    def reset(self):
        self.degenerate_cosine = 0

    def flag_degenerate_cosine(self):
        self.degenerate_cosine += 1


flags = _NumericFlags()


class Tape:
    """Wengert list: nodes in creation order, consumed once by backward."""

    __slots__ = ("nodes", "epoch", "consumed")

    def __init__(self, epoch: int):
        self.nodes: list[TapeNode] = []
        self.epoch = epoch
        self.consumed = False


class TapeNode:
    __slots__ = ("out", "inputs", "grad_fn", "tape")

    def __init__(self, out, inputs, grad_fn, tape):
        self.out = out
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.tape = tape


_active_tape: Tape | None = None
_tape_epoch = 0
_grad_enabled = True


def active_tape() -> Tape:
    """Return the current tape, starting a fresh epoch if none is live."""
    global _active_tape, _tape_epoch
    if _active_tape is None or _active_tape.consumed:
        _tape_epoch += 1
        _active_tape = Tape(_tape_epoch)
    return _active_tape


def grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (e.g. optimizer updates)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """An n-dimensional float64 value, optionally tracked for gradients.

    ``data`` is the row-major value buffer, ``grad`` (same shape, lazily
    created) accumulates gradients for leaves, and ``tape_node`` links
    non-leaf tensors to the node that produced them.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self.tape_node: TapeNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"

    # Arithmetic operators are installed by dynaprompt.ndtensor.ops.


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def record_op(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    """Register a differentiable op on the active tape.

    ``grad_fn(out_grad) -> [in_grad | None, ...]`` returns one gradient array
    per input, aligned positionally.  Recording happens only when gradients
    are enabled and at least one input requires them.
    """
    if _grad_enabled and any(t.requires_grad for t in inputs):
        tape = active_tape()
        node = TapeNode(out, inputs, grad_fn, tape)
        tape.nodes.append(node)
        out.requires_grad = True
        out.tape_node = node
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The loss must be scalar.  Its tape is traversed strictly in reverse
    creation order and marked consumed; a constant loss (no tape node) is a
    no-op, leaving all gradients untouched (i.e. zero).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    node = loss.tape_node
    if node is None:
        return
    tape = node.tape
    if tape.consumed:
        raise TapeConsumedError("backward() called twice on the same tape")
    tape.consumed = True

    # Intermediate grads live in this dict; only leaves get .grad written.
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for nd in reversed(tape.nodes):
        g = grads.pop(id(nd.out), None)
        if g is None:
            continue
        in_grads = nd.grad_fn(g)
        for t, ig in zip(nd.inputs, in_grads):
            if ig is None:
                continue
            if t.tape_node is not None:
                if t.tape_node.tape is tape:
                    key = id(t)
                    prev = grads.get(key)
                    grads[key] = ig if prev is None else prev + ig
                # else: produced on a consumed tape -> constant here
            elif t.requires_grad:
                t.grad = ig.copy() if t.grad is None else t.grad + ig
    tape.nodes.clear()
