"""Prompt pool selection, surrogate pull loss, and token assembly."""

import numpy as np
import pytest

from dynaprompt.config import ConfigError, ModelConfig
from dynaprompt.ndtensor import Tensor, backward, fd_check, flags, no_grad, ops
from dynaprompt.pools import (
    IntegrityError,
    PromptPool,
    PromptPools,
    RoleTag,
    SelectionResult,
    assemble_prompt_tokens,
    cross_query,
    query_fn,
    select_prompts,
    surrogate_loss,
)


def make_pool(pool_size=8, key_dim=6, prompt_len=3, seed=0, modality="visual"):
    return PromptPool(modality, pool_size, key_dim, prompt_len,
                      np.random.default_rng(seed))


def brute_force_top_n(keys, query, n_sel):
    """Independent oracle: rank every entry by (-cosine, index), take n."""
    qn = np.linalg.norm(query)
    sims = keys @ query / (np.linalg.norm(keys, axis=1) * qn)
    order = sorted(range(len(keys)), key=lambda i: (-sims[i], i))
    return order[:n_sel]


class TestQueryFn:
    def test_single_token_identity(self):
        row = np.array([[0.3, -1.0, 2.0]])
        np.testing.assert_array_equal(query_fn(Tensor(row)).data, row[0])

    def test_opposing_tokens_cancel(self):
        u = np.array([1.0, -2.0, 0.5])
        out = query_fn(Tensor(np.stack([u, -u])))
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_matches_column_mean_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 8))
        oracle = np.array([x[:, j].sum() / 5 for j in range(8)])
        np.testing.assert_allclose(query_fn(Tensor(x)).data, oracle, atol=1e-12)

    def test_batched_rows_match_per_row_queries(self):
        x = np.random.default_rng(17).normal(size=(3, 5, 4))
        out = query_fn(Tensor(x))
        assert out.shape == (3, 4)
        for i in range(3):
            np.testing.assert_array_equal(out.data[i], query_fn(Tensor(x[i])).data)

    def test_masked_mean_matches_valid_token_oracle(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 7, 5))
        valid = rng.random((4, 7)) < 0.5
        valid[:, 0] = True  # every row keeps at least one token
        valid[2] = True     # and one row keeps all of them
        out = query_fn(Tensor(x), valid)
        for i in range(4):
            kept = [x[i, t] for t in range(7) if valid[i, t]]
            oracle = np.array([sum(v[j] for v in kept) / len(kept)
                               for j in range(5)])
            np.testing.assert_allclose(out.data[i], oracle, atol=1e-12)
        np.testing.assert_allclose(out.data[2], x[2].mean(axis=0), atol=1e-12)

    def test_row_without_valid_tokens_rejected(self):
        x = Tensor(np.ones((3, 4, 2)))
        valid = np.ones((3, 4), dtype=bool)
        valid[1] = False
        with pytest.raises(ConfigError):
            query_fn(x, valid)


class TestCrossQuery:
    def test_identity_projection_equals_query_fn(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(1, 4, 6)))
        got = cross_query(query_fn(x), Tensor(np.eye(6)))
        np.testing.assert_allclose(got.data, query_fn(x).data, atol=1e-15)

    def test_no_projection_when_dims_agree(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(cross_query(query_fn(x), None).data,
                                      query_fn(x).data)

    def test_zero_input_gives_zero_query(self):
        proj = Tensor(np.random.default_rng(3).normal(size=(6, 4)))
        out = cross_query(query_fn(Tensor(np.zeros((1, 3, 6)))), proj)
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_matches_matmul_after_mean_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 6))
        w = rng.normal(size=(6, 4))
        oracle = (x.mean(axis=0) @ w)[None]
        got = cross_query(query_fn(Tensor(x[None])), Tensor(w))
        np.testing.assert_allclose(got.data, oracle, atol=1e-12)

    def test_projection_must_accept_query(self):
        with pytest.raises(ops.ShapeError):
            cross_query(Tensor(np.ones((1, 6))), Tensor(np.ones((5, 4))))


class TestSelectPrompts:
    def test_orthonormal_basis_keys(self):
        pool = make_pool(pool_size=3, key_dim=3)
        pool.keys.data[:] = np.eye(3)
        sel = select_prompts(pool, Tensor([[0.0, 1.0, 0.0]]), 1)
        assert sel.indices.tolist() == [[1]]
        assert sel.similarities.tolist() == [[pytest.approx(1.0, abs=1e-12)]]

    def test_tie_breaks_to_lowest_index(self):
        pool = make_pool(pool_size=4, key_dim=2)
        pool.keys.data[:] = np.array([[0.0, 1.0], [1.0, 0.0],
                                      [1.0, 0.0], [0.0, -1.0]])
        sel = select_prompts(pool, Tensor([[1.0, 0.0]]), 2)
        assert sel.indices.tolist() == [[1, 2]]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        for case in range(200):
            pool_size = int(rng.integers(2, 65))
            n_sel = int(rng.integers(1, min(8, pool_size) + 1))
            key_dim = int(rng.integers(2, 12))
            pool = make_pool(pool_size, key_dim, 2, seed=case)
            if case % 3 == 0:  # force deliberate ties via duplicated keys
                dup = int(rng.integers(0, pool_size))
                pool.keys.data[(dup + 1) % pool_size] = pool.keys.data[dup]
            q = rng.normal(size=key_dim)
            sel = select_prompts(pool, Tensor(q[None]), n_sel)
            assert sel.indices[0].tolist() == brute_force_top_n(pool.keys.data,
                                                                q, n_sel)

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(6)
        pool = make_pool(pool_size=32, key_dim=8)
        x = rng.normal(size=(1, 5, 8))
        base = select_prompts(pool, query_fn(Tensor(x)), 5).indices.tolist()
        for c in (1e-3, 1.0, 1e3):
            got = select_prompts(pool, query_fn(Tensor(c * x)), 5).indices.tolist()
            assert got == base

    def test_determinism_bit_exact(self):
        rng = np.random.default_rng(7)
        pool = make_pool(pool_size=16, key_dim=5)
        q = Tensor(rng.normal(size=(1, 5)))
        a = select_prompts(pool, q, 4)
        b = select_prompts(pool, q, 4)
        assert a.indices.tolist() == b.indices.tolist()
        assert a.similarities.tolist() == b.similarities.tolist()  # identical floats

    def test_n_sel_exceeding_pool_size(self):
        pool = make_pool(pool_size=3)
        with pytest.raises(ConfigError):
            select_prompts(pool, Tensor(np.ones((1, 6))), 4)

    def test_usage_counter_invariant(self):
        rng = np.random.default_rng(8)
        pool = make_pool(pool_size=10, key_dim=4)
        calls = 17
        for _ in range(calls):
            select_prompts(pool, Tensor(rng.normal(size=(1, 4))), 3)
        assert pool.usage.sum() == calls * 3

    def test_index_outside_pool_rejected(self):
        pool = make_pool(pool_size=4, key_dim=3)
        with pytest.raises(IntegrityError):
            SelectionResult(indices=np.array([[1, 4]]),
                            similarities=np.zeros((1, 2)),
                            query=Tensor(np.ones((1, 3))), pool=pool)

    def test_zero_query_flags_degenerate(self):
        pool = make_pool()
        flags.reset()
        sel = select_prompts(pool, Tensor(np.zeros((1, 6))), 2)
        assert flags.degenerate_cosine == 1
        assert sel.similarities.tolist() == [[0.0, 0.0]]


class TestBatchedSelection:
    """One call over a [B, D] block equals B one-row calls bit for bit."""

    @pytest.mark.parametrize("b", [1, 7, 64])
    def test_block_equals_single_rows(self, b):
        rng = np.random.default_rng(b)
        pools = [make_pool(pool_size=24, key_dim=8, seed=30) for _ in range(2)]
        for pool in pools:  # duplicated keys tie
            pool.keys.data[5] = pool.keys.data[2]
            pool.keys.data[9] = pool.keys.data[2]
        q = rng.normal(size=(b, 8))
        q[2::4] = pools[0].keys.data[2] * 3.0  # rows that hit the tie
        q[1::3] = 0.0  # degenerate rows
        flags.reset()
        block = select_prompts(pools[0], Tensor(q), 5)
        block_flags = flags.degenerate_cosine
        flags.reset()
        rows = [select_prompts(pools[1], Tensor(q[i:i + 1]), 5)
                for i in range(b)]
        assert block_flags == flags.degenerate_cosine == len(q[1::3])
        assert block.indices.shape == block.similarities.shape == (b, 5)
        np.testing.assert_array_equal(
            block.indices, np.concatenate([r.indices for r in rows]))
        assert block.similarities.tobytes() == np.concatenate(
            [r.similarities for r in rows]).tobytes()
        np.testing.assert_array_equal(pools[0].usage, pools[1].usage)
        assert pools[0].usage.sum() == 5 * b
        # and each live row's cosines are the one-vector formula's bits
        keys = pools[0].keys.data
        kn = np.linalg.norm(keys, axis=1)
        for i in range(b):
            if q[i].any():
                sims = (keys @ q[i]) / (kn * float(np.linalg.norm(q[i])))
                assert (block.similarities[i].tobytes()
                        == sims[block.indices[i]].tobytes())

    @pytest.mark.parametrize("indices, sims, match", [
        ([[0, 1], [3, 3]], [[0.9, 0.5], [0.4, 0.4]], "distinct"),
        ([[0, 1], [2, 8]], [[0.9, 0.5], [0.4, 0.3]], "outside"),
        ([[0, 1], [2, 3]], [[0.9, 0.5], [0.3, 0.4]], "non-increasing"),
    ])
    def test_record_checks_every_row(self, indices, sims, match):
        pool = make_pool(pool_size=8, key_dim=3)
        with pytest.raises(IntegrityError, match=match):
            SelectionResult(indices=np.array(indices),
                            similarities=np.array(sims),
                            query=Tensor(np.ones((2, 3))), pool=pool)


class TestSurrogateLoss:
    def test_zero_when_keys_equal_queries(self):
        pool = make_pool(pool_size=4, key_dim=3)
        q = Tensor(pool.keys.data[2:3].copy())
        sel = select_prompts(pool, q, 1)
        assert sel.indices.tolist() == [[2]]
        assert surrogate_loss([sel]).item() == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_keys_give_n_sel(self):
        # five selected keys all orthogonal to the query, batch of one -> 5.0
        pool = make_pool(pool_size=6, key_dim=8)
        pool.keys.data[:] = 0.0
        for i in range(6):
            pool.keys.data[i, i % 4] = 1.0  # live in coords 0..3
        q = np.zeros(8)
        q[5] = 2.0  # orthogonal to every key
        sel = select_prompts(pool, Tensor(q[None]), 5)
        assert surrogate_loss([sel]).item() == pytest.approx(5.0, abs=1e-12)

    def test_matches_hand_composed_oracle_and_fd(self):
        rng = np.random.default_rng(9)
        pool = make_pool(pool_size=12, key_dim=6, seed=10)
        q_data = rng.normal(size=6)
        q = Tensor(q_data[None], requires_grad=True)
        sel = select_prompts(pool, q, 4)

        expected = 0.0
        for i in sel.indices[0]:
            k = pool.keys.data[i]
            expected += 1.0 - (k @ q_data) / (np.linalg.norm(k) * np.linalg.norm(q_data))
        loss = surrogate_loss([sel])
        assert loss.item() == pytest.approx(expected, abs=1e-12)

        report = fd_check(lambda: surrogate_loss([select_prompts(pool, q, 4)]),
                          {"keys": pool.keys, "query": q})
        assert report.passed, report.summary()

    def test_gradient_isolation_unselected_keys(self):
        pool = make_pool(pool_size=10, key_dim=5, seed=11)
        q = Tensor(np.random.default_rng(12).normal(size=(1, 5)))
        sel = select_prompts(pool, q, 3)
        backward(surrogate_loss([sel]))
        grad = pool.keys.grad
        selected = set(sel.indices[0].tolist())
        for i in range(10):
            if i in selected:
                assert np.any(grad[i] != 0.0)
            else:
                np.testing.assert_array_equal(grad[i], np.zeros(5))

    def test_descent_over_ten_sgd_steps(self):
        rng = np.random.default_rng(13)
        pool = make_pool(pool_size=16, key_dim=6, seed=13)
        queries = Tensor(rng.normal(size=(4, 6)))
        prev = None
        for _ in range(10):
            sels = [select_prompts(pool, queries, 3)]
            loss = surrogate_loss(sels, batch_size=len(queries.data))
            pool.keys.grad = None
            backward(loss)
            val = loss.item()
            if prev is not None:
                assert val <= prev + 1e-9
            prev = val
            with no_grad():
                pool.keys.data -= 1e-3 * pool.keys.grad

    def test_empty_selection_list_rejected(self):
        with pytest.raises(ValueError):
            surrogate_loss([])


class TestAssemblePromptTokens:
    def test_output_shape(self):
        pool = make_pool(pool_size=5, key_dim=4, prompt_len=2)
        sel = select_prompts(pool, Tensor(np.ones((3, 4))), 1)
        out = assemble_prompt_tokens(pool, sel.indices, RoleTag.VISUAL_CONTEXT)
        assert out.shape == (3, 2, 4)

    def test_zero_role_embedding_is_identity(self):
        pool = make_pool(pool_size=5, key_dim=4, prompt_len=2, seed=14)
        pool.role_embeddings[RoleTag.TEXTUAL_CONTEXT].data[:] = 0.0
        sel = select_prompts(pool, Tensor(np.ones((1, 4))), 2)
        out = assemble_prompt_tokens(pool, sel.indices, RoleTag.TEXTUAL_CONTEXT)
        expected = pool.values.data[sel.indices].reshape(1, 4, 4)
        np.testing.assert_array_equal(out.data, expected)

    def test_matches_gather_then_add_oracle(self):
        pool = make_pool(pool_size=9, key_dim=5, prompt_len=4, seed=15)
        queries = Tensor(np.random.default_rng(16).normal(size=(2, 5)))
        sel = select_prompts(pool, queries, 3)
        role = RoleTag.VISUAL_CONTEXT
        out = assemble_prompt_tokens(pool, sel.indices, role)
        for i, row in enumerate(sel.indices):
            oracle = (pool.values.data[row].reshape(12, 5)
                      + pool.role_embeddings[role].data)
            np.testing.assert_allclose(out.data[i], oracle, atol=1e-12)

    def test_exactly_two_role_embeddings_per_pool(self):
        pool = make_pool()
        assert set(pool.role_embeddings) == set(RoleTag.ALL)
        assert len(pool.role_embeddings) == 2


class TestPromptPools:
    def test_nonzero_key_norms_after_init(self):
        pools = PromptPools(ModelConfig(), np.random.default_rng(0))
        for pool in (pools.visual, pools.textual):
            assert np.all(np.linalg.norm(pool.keys.data, axis=1) > 0)

    def test_projections_exist_iff_dims_differ(self):
        cfg = ModelConfig()
        assert cfg.d_vision != cfg.d_text
        pools = PromptPools(cfg, np.random.default_rng(0))
        assert pools.vis_to_txt is not None
        same = ModelConfig(d_text=24, d_vision=24)
        pools_same = PromptPools(same, np.random.default_rng(0))
        assert pools_same.vis_to_txt is None

    def test_parameter_names_stable(self):
        pools = PromptPools(ModelConfig(), np.random.default_rng(0))
        names = set(pools.parameters())
        assert "pools.visual.keys" in names
        assert "pools.textual.values" in names
        assert "pools.visual.role.as_textual_context" in names
        assert "pools.vis_to_txt" in names
