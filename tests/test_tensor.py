"""Tensor/tape semantics: backward, linearity, consumption, fd_check,
and the lifetime of a tape's activations."""

import gc
import weakref

import numpy as np
import pytest

from dynaprompt import harness
from dynaprompt.ndtensor import (
    NumericError,
    ShapeError,
    TapeConsumedError,
    Tensor,
    backward,
    fd_check,
    no_grad,
    ops,
    record_op,
    tensor,
)
from dynaprompt.ndtensor.tensor import TapeNode
from dynaprompt.objectives import pretrain_step
from dynaprompt.optim import AdamW


class TestTensorBasics:
    def test_row_major_flat_invariant(self):
        t = tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.data.flags["C_CONTIGUOUS"]
        assert int(np.prod(t.shape)) == t.size

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            tensor([1.0, 2.0]).item()

    def test_grad_shape_matches_data(self):
        x = tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        backward(ops.sum(ops.mul(x, x)))
        assert x.grad.shape == x.shape


class TestBackward:
    def test_sum_of_squares_gradient(self):
        # loss = sum x^2 -> grad 2x elementwise
        x = tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(ops.sum(ops.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_constant_loss_leaves_grads_zero(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        backward(tensor(5.0))
        assert x.grad is None  # never touched == zero

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(ops.mul(x, x))

    def test_double_backward_on_consumed_tape(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        loss = ops.sum(ops.mul(x, x))
        backward(loss)
        with pytest.raises(TapeConsumedError):
            backward(loss)

    def test_gradient_accumulates_across_backwards(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        backward(ops.sum(x))
        backward(ops.sum(ops.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [3.0, 5.0])

    def test_backward_linearity(self):
        # grad of (loss1 + loss2) in one pass == sum of separate passes
        rng = np.random.default_rng(7)
        data = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))

        def build(x):
            h = ops.matmul(x, Tensor(w))
            return ops.sum(ops.mul(h, h)), ops.sum(ops.gelu(x))

        x1 = tensor(data, requires_grad=True)
        l1, l2 = build(x1)
        backward(ops.add(l1, l2))

        x2 = tensor(data, requires_grad=True)
        la, _ = build(x2)
        backward(la)
        _, lb = build(x2)
        backward(lb)

        np.testing.assert_allclose(x1.grad, x2.grad, atol=1e-12)

    def test_no_grad_blocks_recording(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert y.tape_node is None and not y.requires_grad

    def test_mlp_loss_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(4, 5)), requires_grad=True)
        w1 = tensor(rng.normal(size=(5, 6)) * 0.5, requires_grad=True)
        b1 = tensor(rng.normal(size=(6,)) * 0.1, requires_grad=True)
        w2 = tensor(rng.normal(size=(6, 3)) * 0.5, requires_grad=True)
        labels = rng.integers(0, 3, size=4)

        def f():
            h = ops.gelu(ops.add(ops.matmul(x, w1), b1))
            return ops.cross_entropy(ops.matmul(h, w2), labels)

        report = fd_check(f, {"x": x, "w1": w1, "b1": b1, "w2": w2})
        assert report.passed, report.summary()
        assert report.max_rel_error < 1e-5


class TestTapeLifetime:
    def test_pretrain_step_leaves_no_cyclic_garbage(self, tiny_config,
                                                    batch_factory):
        rng = np.random.default_rng(0)
        model, pools, heads = harness.build_model(tiny_config)
        params = {**model.parameters(), **pools.parameters(),
                  **heads.parameters()}
        optimizer = AdamW(params, lr=1e-3)
        batch = batch_factory(tiny_config, "image_text", 2, rng)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            pretrain_step(batch, model, pools, heads, optimizer, tiny_config,
                          np.random.default_rng(1))
            gc.collect()
            cyclic = [type(o).__name__ for o in gc.garbage
                      if isinstance(o, (Tensor, TapeNode))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert cyclic == []

    def test_intermediate_freed_by_backward(self):
        x = tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = tensor(np.ones((3, 4)), requires_grad=True)
        h = ops.gelu(ops.matmul(x, w))
        buffer = weakref.ref(h.data)
        loss = ops.sum(ops.mul(h, h))
        del h
        backward(loss)
        # freed while the caller still holds the loss: a consumed node lets
        # go of its inputs
        assert buffer() is None
        assert x.grad is not None and w.grad is not None

    def test_tensor_from_consumed_tape_enters_new_tape_as_constant(self):
        x = tensor([1.0, 2.0], requires_grad=True)
        h = ops.mul(x, x)
        backward(ops.sum(h))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        y = tensor([3.0, 5.0], requires_grad=True)
        backward(ops.sum(ops.mul(h, y)))
        np.testing.assert_array_equal(y.grad, h.data)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])  # no flow into h

    def test_fan_out_gradient_accumulates_in_consumer_order(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(3, 4))
        c1, c2, c3 = (rng.normal(size=(3, 4)) for _ in range(3))
        x = tensor(data, requires_grad=True)
        h = ops.scale(x, 1.0)  # an intermediate with three consumers
        loss = ops.add(ops.add(ops.sum(ops.mul(h, Tensor(c1))),
                               ops.sum(ops.mul(h, Tensor(c2)))),
                       ops.sum(ops.mul(h, Tensor(c3))))
        backward(loss)
        # consumers run in reverse tape order: g3, then g2, then g1
        reference = (c3 + c2) + c1
        assert np.array_equal(x.grad, reference)


class TestFdCheck:
    def test_bilinear_analytic(self):
        x = tensor(2.0, requires_grad=True)
        y = tensor(3.0, requires_grad=True)
        report = fd_check(lambda: ops.mul(x, y), {"x": x, "y": y})
        assert float(x.grad) == 3.0 and float(y.grad) == 2.0
        assert report.max_rel_error < 1e-9

    def test_softmax_cross_entropy_passes(self):
        rng = np.random.default_rng(11)
        logits = tensor(rng.normal(size=(5, 7)), requires_grad=True)
        labels = rng.integers(0, 7, size=5)
        report = fd_check(lambda: ops.cross_entropy(logits, labels),
                          {"logits": logits})
        assert report.passed

    def test_wrong_gradient_rule_fails(self):
        # negative control: an op whose registered rule is deliberately wrong
        def buggy_double(a):
            out = Tensor(a.data * 2.0)
            return record_op(out, (a,), lambda g: (g * 3.0,))

        x = tensor([1.0, -0.5, 2.0], requires_grad=True)
        report = fd_check(lambda: ops.sum(buggy_double(x)), {"x": x})
        assert not report.passed

    def test_nondeterministic_f_detected(self):
        state = {"calls": 0}

        def f():
            state["calls"] += 1
            return tensor(float(state["calls"]))

        with pytest.raises(NumericError):
            fd_check(f, {})
