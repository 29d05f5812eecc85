"""Dense float64 tensors recorded on a reverse-mode differentiation tape.

Values are flat row-major float64 buffers (numpy arrays kept C-contiguous).
Differentiable operations append nodes to the active :class:`Tape`; a call to
:func:`backward` walks that tape strictly in reverse creation order and
accumulates gradients into every reachable leaf.  A tape is consumed by
exactly one backward pass; the next recorded op starts a fresh one.

Tensors produced on an already-consumed tape are treated as constants if they
are fed into later computations: gradients never flow across tape boundaries.

A node holds only what its gradient rule reads: the arrays the rule closes
over, plain shapes and flags, and for each input the node that produced it
(or, for a leaf, the leaf tensor itself).  It never holds an intermediate
tensor, so an activation stays alive only while some rule reads it; the
input of an ``add``, say, is freed once the forward is done with it, not
when backward reaches the ``add``.  References run one way only: a
tensor points at the node that produced it, a node at its inputs'
producers, never at its output.  Backward drops each node's links and
gradient rule as it consumes them, so whatever remains is freed by
reference counting as backward walks past it rather than waiting for the
cyclic garbage collector.  On glibc, importing this module also keeps freed
heap memory in the process (see :func:`_retain_freed_heap`), so the next step
reuses those pages instead of faulting fresh ones in.
"""

from __future__ import annotations

import contextlib
import ctypes
import os

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Parts",
    "backward",
    "no_grad",
    "grad_enabled",
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

    __slots__ = ("nodes", "consumed")

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.consumed = False


class TapeNode:
    """One recorded op: per input its producing node (a leaf input is kept as
    its tensor), its gradient rule and, during backward, the gradient
    pending for its output.  It holds no reference to that output, so
    tensors and nodes never form a cycle."""

    __slots__ = ("inputs", "grad_fn", "tape", "grad")

    def __init__(self, inputs, grad_fn, tape):
        self.inputs = inputs
        self.grad_fn = grad_fn
        self.tape = tape
        self.grad: np.ndarray | None = None


_active_tape: Tape | None = None
_grad_enabled = True


def active_tape() -> Tape:
    """Return the current tape, starting a fresh one if none is live."""
    global _active_tape
    if _active_tape is None or _active_tape.consumed:
        _active_tape = Tape()
    return _active_tape


def grad_enabled() -> bool:
    """Whether ops record to the tape (False inside :func:`no_grad`)."""
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


class Parts(list):
    """Several gradient contributions for one input, in the order in which
    separate nodes would hand them over.  ``backward`` adds them one at a
    time, so one node that stands for a chain of ops sums into a shared
    input exactly as the chain's nodes would."""

    __slots__ = ()


def record_op(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> Tensor:
    """Register a differentiable op on the active tape.

    ``grad_fn(out_grad) -> [in_grad | None, ...]`` returns, per input and
    aligned positionally, one gradient array, a :class:`Parts` of several
    to be added in turn, or None.  Recording happens only when gradients
    are enabled and at least one input requires them.  ``grad_fn`` must close
    over the arrays it reads, never over the input tensors: the node keeps
    each input's producing node, so an intermediate tensor's value is freed
    once no rule reads it.
    """
    if _grad_enabled and any(t.requires_grad for t in inputs):
        tape = active_tape()
        links = tuple(t if t.tape_node is None else t.tape_node for t in inputs)
        node = TapeNode(links, grad_fn, tape)
        tape.nodes.append(node)
        out.requires_grad = True
        out.tape_node = node
    return out


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The loss must be scalar.  Its tape is traversed strictly in reverse
    creation order and marked consumed; a constant loss (no tape node) is a
    no-op, leaving all gradients untouched (i.e. zero).  A rule's
    :class:`Parts` are added to their input one by one, in order, as if
    each came from a node of its own.
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

    # Intermediate grads wait in their producer's node; only leaves get .grad
    # written.  A consumed node lets go of its gradient, inputs and rule, so
    # whatever only it kept alive is freed here rather than after the step.
    node.grad = np.ones_like(loss.data)
    for nd in reversed(tape.nodes):
        g, inputs, grad_fn = nd.grad, nd.inputs, nd.grad_fn
        nd.grad = nd.inputs = nd.grad_fn = None
        if g is None:
            continue
        for src, ig in zip(inputs, grad_fn(g)):
            if ig is None:
                continue
            parts = ig if type(ig) is Parts else (ig,)
            if type(src) is TapeNode:
                if src.tape is tape:
                    for part in parts:
                        src.grad = part if src.grad is None else src.grad + part
                # else: produced on a consumed tape -> constant here
            elif src.requires_grad:
                for part in parts:
                    src.grad = (part.copy() if src.grad is None
                                else src.grad + part)
    tape.nodes.clear()


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _retain_freed_heap():
    """Keep glibc from handing freed activation memory back to the kernel.

    With the tape acyclic, every step frees its activations when backward
    ends.  By default glibc then trims the top of the heap and serves the
    next step's large arrays from fresh mmaps, so each step faults the same
    pages in again.  Measured per benchmark unit (2-vCPU VM, glibc 2.36),
    minor page faults went from 758 with the cycle to 154k without it on a
    40-step desk pre-training, and from 59k to 880k on a 3-task fine-tune,
    whose system time rose from 0.15 to 2.38 s.  Serving arrays below 32 MB
    from the heap and never trimming it keeps those pages mapped for reuse:
    4 and 68 faults, 0.004 s.  The peak resident size stays the largest
    step's live set.  Elsewhere than glibc this does nothing.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_retain_freed_heap()
