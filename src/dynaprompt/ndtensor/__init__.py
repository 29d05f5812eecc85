"""Float64 tensor core: values, reverse-mode tape, ops, gradient checking."""

from .tensor import (
    NumericError,
    ShapeError,
    Tape,
    TapeConsumedError,
    Tensor,
    backward,
    flags,
    grad_enabled,
    no_grad,
    record_op,
    tensor,
    zeros,
)
from . import ops  # installs Tensor operators
from .ops import (
    add,
    concat,
    cross_entropy,
    embedding_lookup,
    gelu,
    layernorm,
    matmul,
    mean,
    mul,
    softmax,
)
from .gradcheck import FdCheckReport, OP_SUITE, fd_check, run_op_suite

__all__ = [
    "Tensor", "Tape", "backward", "no_grad", "grad_enabled", "tensor", "zeros",
    "record_op", "ShapeError", "NumericError", "TapeConsumedError", "flags",
    "ops", "add", "mul", "matmul", "softmax", "cross_entropy", "layernorm",
    "gelu", "embedding_lookup", "concat", "mean", "fd_check", "FdCheckReport",
    "OP_SUITE", "run_op_suite",
]
