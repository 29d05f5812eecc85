"""Per-op contracts: worked examples against independent oracles."""

import math

import numpy as np
import pytest

from dynaprompt.ndtensor import (
    NumericError,
    ShapeError,
    Tensor,
    backward,
    fd_check,
    ops,
    run_op_suite,
)
from dynaprompt.ndtensor.gradcheck import OP_SUITE


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ops.matmul(Tensor(np.eye(2)), m)
        np.testing.assert_array_equal(out.data, m.data)

    def test_scalar_case(self):
        out = ops.matmul(Tensor([[2.0]]), Tensor([[3.0]]))
        assert out.item() == 6.0

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ops.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\[3, 4\].*\[3, 2\]"):
            ops.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        out = ops.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6,))
        for c in (-100.0, 0.5, 42.0):
            a = ops.softmax(Tensor(x)).data
            b = ops.softmax(Tensor(x + c)).data
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_exp_normalize_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.sum(np.exp(x))
        out = ops.softmax(Tensor(x))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one_on_random_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=(4, 9)) * rng.uniform(0.1, 50)
            out = ops.softmax(Tensor(x), axis=-1)
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            ops.softmax(Tensor([1.0, np.inf]))


class TestCrossEntropy:
    def test_saturated_correct_prediction(self):
        logits = Tensor([[20.0, 0.0, 0.0]])
        assert ops.cross_entropy(logits, [0]).item() < 1e-8

    def test_uniform_logits_give_log_vocab(self):
        for v in (2, 256):
            logits = Tensor(np.zeros((3, v)))
            got = ops.cross_entropy(logits, [0, 1, 0]).item()
            assert got == pytest.approx(math.log(v), abs=1e-12)

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(6, 10)) * 3
        labels = rng.integers(0, 10, size=6)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        expected = -np.mean(np.log(p[np.arange(6), labels]))
        got = ops.cross_entropy(Tensor(z), labels).item()
        assert got == pytest.approx(expected, abs=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            ops.cross_entropy(Tensor(np.zeros((2, 3))), [0, 3])


class TestPlumbingOps:
    def test_concat_and_slice_round_trip(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        cat = ops.concat([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(ops.slice_axis(cat, 0, 2, 6).data, b)

    def test_gather_rows_matches_fancy_indexing(self):
        rng = np.random.default_rng(6)
        table = rng.normal(size=(9, 4))
        idx = rng.integers(0, 9, size=(3, 5))
        out = ops.embedding_lookup(Tensor(table), idx)
        np.testing.assert_array_equal(out.data, table[idx])

    def test_gather_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            ops.gather_rows(Tensor(np.zeros((3, 2))), [0, 3])

    def test_layernorm_zero_mean_unit_var(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 8)) * 4 + 2
        out = ops.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)

    def test_layernorm_matches_its_unfused_expressions_bitwise(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 5, 8)) * 3 + 1
        gain, bias = rng.normal(size=8), rng.normal(size=8)
        w = rng.normal(size=x.shape)
        mu = np.mean(x, axis=-1, keepdims=True)
        var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = (x - mu) * inv
        dxhat = w * gain
        want = {
            "out": xhat * gain + bias,
            "x": inv * (dxhat - np.mean(dxhat, axis=-1, keepdims=True)
                        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)),
            "gain": (w * xhat).reshape(-1, 8).sum(axis=0),
            "bias": w.reshape(-1, 8).sum(axis=0),
        }
        leaves = {"x": Tensor(x, requires_grad=True),
                  "gain": Tensor(gain, requires_grad=True),
                  "bias": Tensor(bias, requires_grad=True)}
        out = ops.layernorm(leaves["x"], leaves["gain"], leaves["bias"])
        backward(ops.sum(ops.mul_const(out, w)))  # out's gradient is w
        got = {"out": out.data, **{k: t.grad for k, t in leaves.items()}}
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_rowwise_scale(self):
        rng = np.random.default_rng(8)
        a, s = rng.normal(size=(4, 3)), rng.normal(size=(4,))
        out = ops.rowwise_scale(Tensor(a), Tensor(s))
        np.testing.assert_allclose(out.data, a * s[:, None], atol=1e-15)

    def test_broadcast_restricted_to_leading_axes(self):
        with pytest.raises(ShapeError):
            ops.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 1))))


class TestOpSuiteGradients:
    """Spot fd-check of every registered op; the 100-seed sweep lives in
    the acceptance suite."""

    @pytest.mark.parametrize("name", sorted(OP_SUITE))
    def test_op_passes_fd(self, name):
        for seed in (0, 1, 2):
            f, params = OP_SUITE[name](np.random.default_rng(seed))
            report = fd_check(f, params)
            assert report.passed, f"{name}[seed={seed}]: {report.summary()}"

    def test_every_op_has_a_case(self):
        # each op in ops.__all__ is differentiable, fused ones included
        assert set(ops.__all__) - set(OP_SUITE) == set()

    def test_suite_runner(self):
        passed, worst = run_op_suite(seeds=2)
        assert passed, worst
