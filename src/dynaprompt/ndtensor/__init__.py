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
)
from . import ops
from .gradcheck import FdCheckReport, OP_SUITE, fd_check, run_op_suite

__all__ = [
    "Tensor", "Tape", "backward", "no_grad", "grad_enabled", "record_op",
    "ShapeError", "NumericError", "TapeConsumedError", "flags", "ops",
    "fd_check", "FdCheckReport", "OP_SUITE", "run_op_suite",
]
