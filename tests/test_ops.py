"""Per-op contracts: worked examples against independent oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import dynaprompt
from dynaprompt.harness import batch_from_pairs, build_model, default_corpus
from dynaprompt.ndtensor import (
    NumericError,
    ShapeError,
    Tensor,
    backward,
    fd_check,
    no_grad,
    ops,
    run_op_suite,
)
from dynaprompt.ndtensor.gradcheck import OP_SUITE
from dynaprompt.objectives import combined_pretrain_loss
from tests.row_oracles import rows_cosine_pull, rows_gather_blocks


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


def run_fused_and_rows(loss_fn, leaves):
    """``loss_fn(rows)`` builds a scalar loss through the per-row oracle
    when ``rows`` is true, else through the fused op.  Each is run from
    cleared gradients and gives the loss bytes, whether the loss is a
    constant, and each leaf's gradient bytes (None where it got none)."""
    out = []
    for rows in (False, True):
        for t in leaves:
            t.grad = None
        loss = loss_fn(rows)
        constant = loss.tape_node is None
        backward(loss)
        out.append((loss.data.tobytes(), constant,
                    [None if t.grad is None else t.grad.tobytes()
                     for t in leaves]))
    return out


class TestGatherBlocksMatchesRows:
    """``gather_blocks`` equals the per-row gather, reshape and add joined
    by a concat, bit for bit in the value and every gradient."""

    @pytest.mark.parametrize("b", [1, 7, 64])
    @pytest.mark.parametrize("frozen", [None, "values", "bias"])
    @pytest.mark.parametrize("through_node", [False, True])
    def test_value_and_gradients_bitwise(self, b, frozen, through_node):
        rng = np.random.default_rng(b)
        values = Tensor(rng.normal(size=(9, 4, 5)), frozen != "values")
        bias = Tensor(rng.normal(size=(5,)), frozen != "bias")
        idx = rng.integers(0, 9, size=(b, 3))
        if b > 1:  # entries repeat across rows
            assert len(np.unique(idx)) < idx.size
        w = rng.normal(size=(b, 12, 5))

        def loss(rows):
            v, r = values, bias
            if through_node:  # inputs with a producer, not leaves
                v, r = ops.scale(values, 1.0), ops.scale(bias, 1.0)
            f = rows_gather_blocks if rows else ops.gather_blocks
            return ops.sum(ops.mul_const(f(v, idx, r), w))

        fused, rows = run_fused_and_rows(loss, [values, bias])
        assert fused == rows
        assert all((g is None) == (t is frozen) for g, t in
                   zip(fused[2], ("values", "bias")))

    def test_one_node_and_shape_checks(self):
        values = Tensor(np.ones((4, 2, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        out = ops.gather_blocks(values, [[0, 3], [3, 1]], bias)
        assert out.shape == (2, 4, 3)
        assert out.tape_node.tape.nodes[-1] is out.tape_node
        assert out.tape_node.inputs == (values, bias)
        with pytest.raises(ShapeError):
            ops.gather_blocks(values, [0, 3], bias)
        with pytest.raises(IndexError):
            ops.gather_blocks(values, [[0, 4]], bias)


def _pull_records(rng, b, zero_rows=()):
    """Two records of ``b`` rows over two key sets of 10 keys; the
    ``zero_rows`` of each query block are zero."""
    records = []
    for _ in range(2):
        keys = Tensor(rng.normal(size=(10, 6)), requires_grad=True)
        q = rng.normal(size=(b, 6))
        q[list(zero_rows)] = 0.0
        idx = np.stack([rng.permutation(10)[:3] for _ in range(b)])
        records.append((keys, Tensor(q, requires_grad=True), idx))
    return records


class TestCosinePullMatchesRows:
    """``cosine_pull`` equals the per-row chain of slice, gather, matmul,
    mul, sum, sqrt, div, sub and add, bit for bit in the value and every
    gradient."""

    @staticmethod
    def check(records, c=0.125, through_node=False):
        leaves = [t for keys, q, _ in records for t in (keys, q)]

        def loss(rows):
            recs = records
            if through_node:  # queries with a producer, as in pre-training
                recs = [(k, ops.scale(q, 1.0), i) for k, q, i in records]
            return (rows_cosine_pull if rows else ops.cosine_pull)(recs, c)

        fused, rows = run_fused_and_rows(loss, leaves)
        assert fused == rows
        return fused

    @pytest.mark.parametrize("b", [1, 7, 64])
    @pytest.mark.parametrize("through_node", [False, True])
    def test_value_and_gradients_bitwise(self, b, through_node):
        rng = np.random.default_rng(b)
        zero = (0,) if b == 1 else (2, b - 1)
        records = _pull_records(rng, b) + _pull_records(rng, b, zero)
        _, constant, grads = self.check(records, 1.0 / b, through_node)
        # with one row, the second pair of records holds only zero queries
        live = grads if b > 1 else grads[:4]
        assert not constant and all(g is not None for g in live)

    def test_shared_keys_and_queries_sum_in_row_order(self):
        rng = np.random.default_rng(3)
        (keys, q, idx), _ = _pull_records(rng, 7, (4,))
        other = np.stack([rng.permutation(10)[:3] for _ in range(7)])
        self.check([(keys, q, idx), (keys, q, other)])

    def test_thousand_rows_over_six_decades_of_norm(self):
        # numpy's ** 0.5 takes sqrt on an array, 0-d included, and pow on a
        # scalar; the two differ in the last bit on about one squared norm
        # in a thousand (** -0.5 on about one in twenty), so rows where they
        # differ are drawn and added to the random ones
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(1000, 32))
        rows *= 10.0 ** rng.uniform(-3, 3, size=(1000, 1))
        rows[17] = 0.0
        split = [r for r in rng.normal(size=(20000, 32))
                 if np.sqrt(np.sum(r * r)) != np.float64(np.sum(r * r)) ** 0.5]
        assert split
        queries = Tensor(np.vstack([rows] + split), requires_grad=True)
        keys = Tensor(rng.normal(size=(64, 32)), requires_grad=True)
        idx = np.stack([rng.permutation(64)[:5] for _ in queries.data])
        self.check([(keys, queries, idx)], 1.0 / len(idx))

    def test_every_row_degenerate_is_a_constant(self):
        rng = np.random.default_rng(5)
        records = _pull_records(rng, 4, range(4))
        value, constant, grads = self.check(records)
        assert constant and grads == [None] * 4
        assert np.frombuffer(value)[0] == 0.125 * 2 * 4 * 3

    @pytest.mark.parametrize("off", ["frozen_keys", "constant_query",
                                     "consumed_tape_query"])
    def test_inputs_off_the_tape(self, off):
        rng = np.random.default_rng(7)
        records = _pull_records(rng, 7, (3,))
        keys, q, idx = records[0]
        if off == "frozen_keys":
            keys.requires_grad = False
        elif off == "constant_query":
            q.requires_grad = False
        else:  # its producer's tape is consumed, so it is a constant here
            q = ops.scale(q, 1.0)
            backward(ops.sum(q))
            assert q.requires_grad
        records[0] = (keys, q, idx)
        _, _, grads = self.check(records)
        got = grads[0] is not None, grads[1] is not None
        assert got == {"frozen_keys": (False, True),
                       "constant_query": (True, False),
                       "consumed_tape_query": (True, False)}[off]

    def test_one_node(self):
        rng = np.random.default_rng(2)
        records = _pull_records(rng, 5, (1,))
        loss = ops.cosine_pull(records, 0.5)
        assert loss.tape_node.tape.nodes[-1] is loss.tape_node
        # the last record's inputs first, as its chain comes last on a tape
        assert loss.tape_node.inputs == tuple(
            t for keys, q, _ in records[::-1] for t in (keys, q))

    def test_zero_key_and_empty_rows_rejected(self):
        keys = Tensor(np.eye(3))
        keys.data[1] = 0.0
        q = Tensor(np.ones((1, 3)))
        with pytest.raises(NumericError):
            ops.cosine_pull([(keys, q, [[0, 1]])], 1.0)
        with pytest.raises(ShapeError):
            ops.cosine_pull([(keys, Tensor(np.ones((0, 3))),
                              np.zeros((0, 2), dtype=int))], 1.0)


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


class TestGelu:
    """The node keeps gelu's derivative, computed in the forward only when
    the op is recorded."""

    class CountingNumpy:
        """numpy, counting ``exp`` calls on real arrays: the density's."""

        def __init__(self):
            self.real_exp = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            self.real_exp += not np.iscomplexobj(x)
            return np.exp(x, *args, **kwargs)

    @staticmethod
    def inputs():
        return np.random.default_rng(4).normal(size=(5, 7)) * 3.0

    def test_no_grad_records_nothing_and_computes_no_derivative(
            self, monkeypatch):
        counting = self.CountingNumpy()
        monkeypatch.setattr(ops, "np", counting)
        x = Tensor(self.inputs(), requires_grad=True)
        with no_grad():
            plain = ops.gelu(x)
        constant = ops.gelu(Tensor(self.inputs()))
        assert plain.tape_node is None and constant.tape_node is None
        assert counting.real_exp == 0
        taped = ops.gelu(x)
        assert taped.tape_node is not None and counting.real_exp == 1
        backward(ops.sum(taped))
        assert counting.real_exp == 1  # backward is one multiply
        assert plain.data.tobytes() == taped.data.tobytes()
        assert constant.data.tobytes() == taped.data.tobytes()

    def test_gradient_equals_density_formula_bit_for_bit(self):
        a = self.inputs()
        x = Tensor(a, requires_grad=True)
        g = np.random.default_rng(5).normal(size=a.shape)
        backward(ops.sum(ops.mul_const(ops.gelu(x), g)))
        cdf = (ops._erf(a * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
        pdf = np.exp(-0.5 * a * a) * (1.0 / np.sqrt(2.0 * np.pi))
        assert x.grad.tobytes() == (g * (cdf + a * pdf)).tobytes()


class TestErf:
    """``ops._erf`` equals scipy's Cephes ``erf`` bit for bit; scipy is the
    oracle here and nowhere in the package."""

    @staticmethod
    def assert_bits_equal(x):
        got, want = ops._erf(x), special.erf(x)
        bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert bad.size == 0, (
            f"{bad.size} of {x.size} differ; first at x={x.flat[bad[0]]!r}: "
            f"{got.flat[bad[0]]!r} != {want.flat[bad[0]]!r}")

    @pytest.mark.parametrize("scale", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 30.0])
    def test_bit_equal_on_normals(self, scale):
        # 7 scales x 1.5M draws: 10.5M inputs across both branches
        x = np.random.default_rng(90).normal(size=1_500_000) * scale
        self.assert_bits_equal(x)

    def test_bit_equal_on_edge_values(self):
        pos = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(6.0, 0.0), 6.0,
               8.0, 26.6, 1e200, 5e-324, np.inf]
        x = np.array(pos + [-v for v in pos])
        self.assert_bits_equal(x)
        assert np.signbit(ops._erf(x))[len(pos)]  # erf(-0.0) is -0.0

    def test_nan_gives_nan(self):
        x = np.array([np.nan, 0.5, np.nan, 3.0, -np.nan])
        out = ops._erf(x)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(x))
        self.assert_bits_equal(x[[1, 3]])

    def test_bit_equal_on_desk_step_gelu_inputs(self, desk_config,
                                                monkeypatch):
        seen = []
        erf = ops._erf

        def spy(x):
            seen.append(x.copy())
            return erf(x)

        monkeypatch.setattr(ops, "_erf", spy)
        model, pools, heads = build_model(desk_config)
        batch = batch_from_pairs(
            default_corpus(desk_config).pairs[:desk_config.batch_size],
            desk_config, "image_text")
        combined_pretrain_loss(batch, model, pools, heads, desk_config,
                               rng=np.random.default_rng(0))
        monkeypatch.undo()
        assert seen
        for x in seen:
            self.assert_bits_equal(x)

    def test_package_runs_without_scipy(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import dynaprompt, dynaprompt.harness, dynaprompt.cli\n"
            "from dynaprompt.ndtensor import Tensor, backward, ops\n"
            "x = Tensor(np.linspace(-8.0, 8.0, 101), requires_grad=True)\n"
            "backward(ops.sum(ops.gelu(x)))\n"
            "assert np.all(np.isfinite(x.grad))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
        src = Path(dynaprompt.__file__).resolve().parents[1]
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
