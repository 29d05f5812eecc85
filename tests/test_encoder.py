"""Input unification, sequence layout, and the shared encoder stack."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynaprompt.adaptation import CaptionDecoder
from dynaprompt.config import PAD_ID, ConfigError, ModelConfig
from dynaprompt.encoder import (
    SEGMENTS,
    KVCache,
    TransformerLayer,
    UnifiedBatch,
    VisionLanguageModel,
    _computed_rows,
    _take_rows,
    assembled_attention_mask,
    sequence_layout,
)
from dynaprompt.ndtensor import (ShapeError, Tensor, backward, fd_check,
                                 no_grad, ops)
from dynaprompt.ndtensor.tensor import active_tape
from dynaprompt.pools import PromptPools
from tests.conftest import make_batch

KINDS = ("image_only", "text_only", "image_text")


def build(config, seed=0):
    rng = np.random.default_rng(seed)
    return VisionLanguageModel(config, rng), PromptPools(config, rng)


class TestEmbedText:
    def test_repeated_id_differs_only_by_position(self, tiny_config):
        model, _ = build(tiny_config)
        ids = np.array([[7, 7, 7, 7, 7]])
        out = model.embed_text(ids).data[0]
        diff = out - model.text_table.data[7]
        np.testing.assert_allclose(diff, model.text_pos.data[:5], atol=1e-15)

    def test_zero_positional_table_is_pure_lookup(self, tiny_config):
        model, _ = build(tiny_config)
        model.text_pos.data[:] = 0.0
        ids = np.array([[4, 9, 4, 5, 6]])
        out = model.embed_text(ids).data[0]
        np.testing.assert_array_equal(out, model.text_table.data[ids[0]])

    def test_matches_gather_oracle(self, tiny_config):
        model, _ = build(tiny_config)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, tiny_config.vocab_size, size=(3, 5))
        oracle = model.text_table.data[ids] + model.text_pos.data[np.arange(5)]
        np.testing.assert_allclose(model.embed_text(ids).data, oracle, atol=1e-12)

    def test_out_of_range_id(self, tiny_config):
        model, _ = build(tiny_config)
        with pytest.raises(IndexError):
            model.embed_text(np.array([[0, tiny_config.vocab_size, 0, 0, 0]]))


class TestEmbedPatches:
    def test_identity_projection_passthrough(self):
        config = ModelConfig(d_vision=6, patch_dim=6, d_text=6)
        model, _ = build(config)
        model.patch_proj_w.data[:] = np.eye(6)
        model.patch_proj_b.data[:] = 0.0
        model.patch_pos.data[:] = 0.0
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(2, config.patch_count, 6))
        np.testing.assert_allclose(model.embed_patches(feats).data, feats, atol=1e-15)

    def test_zero_input_gives_positional_only(self, tiny_config):
        model, _ = build(tiny_config)
        feats = np.zeros((2, tiny_config.patch_count, tiny_config.patch_dim))
        out = model.embed_patches(feats).data
        expected = model.patch_proj_b.data + model.patch_pos.data
        for b in range(2):
            np.testing.assert_allclose(out[b], expected, atol=1e-15)

    def test_matches_matmul_oracle(self, tiny_config):
        model, _ = build(tiny_config)
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(2, tiny_config.patch_count, tiny_config.patch_dim))
        oracle = (feats @ model.patch_proj_w.data + model.patch_proj_b.data
                  + model.patch_pos.data)
        np.testing.assert_allclose(model.embed_patches(feats).data, oracle, atol=1e-12)


class TestUnifyLayout:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=25, deadline=None)
    @given(patch_count=st.integers(1, 6), max_text_len=st.integers(1, 6),
           n_sel=st.integers(1, 3), prompt_len_v=st.integers(1, 4),
           prompt_len_t=st.integers(1, 4),
           n_real=st.lists(st.integers(0, 6), min_size=3, max_size=3))
    # the geometries the old per-kind length rules pinned: 6 + 6 + 1 for
    # text_only, 4 + 2 + 1 for image_only
    @example(patch_count=16, max_text_len=6, n_sel=2, prompt_len_v=3,
             prompt_len_t=4, n_real=[0, 2, 6])
    @example(patch_count=4, max_text_len=16, n_sel=1, prompt_len_v=4,
             prompt_len_t=2, n_real=[0, 2, 6])
    def test_segments_tile_the_sequence(self, kind, patch_count, max_text_len,
                                        n_sel, prompt_len_v, prompt_len_t,
                                        n_real):
        config = ModelConfig(patch_count=patch_count,
                             max_text_len=max_text_len, n_sel=n_sel,
                             prompt_len_v=prompt_len_v,
                             prompt_len_t=prompt_len_t)
        lay = sequence_layout(kind, config)
        want = {"cls_v": 1, "patches": patch_count,
                "prompts_v": n_sel * prompt_len_v,
                "prompts_t": n_sel * prompt_len_t, "cls_t": 1,
                "text": max_text_len}
        start = 0
        for name in SEGMENTS[kind]:
            span = getattr(lay, name)
            if isinstance(span, int):
                span = slice(span, span + 1)
            assert (span.start, span.stop) == (start, start + want[name]), name
            start = span.stop
        assert lay.total_len == start
        absent = set(want) - set(SEGMENTS[kind])
        assert all(getattr(lay, name) is None for name in absent)

        # three items with n_real content tokens each, then padding
        token_ids = np.zeros((3, max_text_len), dtype=np.int64)
        for row, n in zip(token_ids, n_real):
            row[:n] = 5
        mask = assembled_attention_mask(lay, 3, token_ids)
        want_mask = np.ones((3, lay.total_len), dtype=bool)
        if lay.text is not None:
            for row, n in zip(want_mask, n_real):
                row[lay.text.start + min(n, max_text_len):lay.text.stop] = False
        np.testing.assert_array_equal(mask, want_mask)

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_concat_oracle(self, tiny_config, kind):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(4)
        batch = make_batch(tiny_config, kind, 2, rng)
        unified = model.unify_inputs(batch, pools)

        # oracle: rebuild each segment independently and concatenate
        def hidden(x, to_text):
            if to_text:
                return (x @ model.text_to_hidden_w.data
                        + model.text_to_hidden_b.data)
            return x @ model.vis_to_hidden_w.data + model.vis_to_hidden_b.data

        def prompts(pool, item, role):
            idx = unified.selections[pool.modality].indices[item]
            tok = (pool.values.data[idx].reshape(-1, pool.key_dim)
                   + pool.role_embeddings[role].data)
            return hidden(tok, pool is pools.textual)

        vis, txt = "as_visual_context", "as_textual_context"
        cls_v, cls_t = model.cls_v.data[None, :], model.cls_t.data[None, :]
        pieces = []
        for b in range(2):
            if kind != "text_only":
                patches = hidden(
                    model.embed_patches(batch.patch_features).data[b], False)
            if kind != "image_only":
                text = hidden(model.embed_text(batch.token_ids).data[b], True)
            if kind == "image_only":  # textual pool serving the image
                seq = [cls_v, patches, prompts(pools.textual, b, vis)]
            elif kind == "text_only":  # visual pool serving the text
                seq = [prompts(pools.visual, b, txt), cls_t, text]
            else:
                seq = [cls_v, patches, prompts(pools.visual, b, vis),
                       prompts(pools.textual, b, txt), cls_t, text]
            pieces.append(np.concatenate(seq, axis=0))
        oracle = np.stack(pieces)
        assert oracle.shape == unified.states.shape
        np.testing.assert_allclose(unified.states.data, oracle, atol=1e-12)
        assert unified.layout.total_len == oracle.shape[1]

    def test_kind_field_inconsistency_rejected(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(5)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        batch.kind = "image_only"  # now token_ids should not be present
        with pytest.raises(ConfigError):
            model.unify_inputs(batch, pools)


class TestModelQueries:
    """The pool queries the model forms: a token mean per item, text pads
    left out, projected into the other key space for single-modality
    inputs."""

    def test_queries_match_mean_oracle_for_every_kind(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(12)
        for kind in ("image_only", "text_only", "image_text"):
            batch = make_batch(tiny_config, kind, 3, rng, text_len=3)
            unified = model.unify_inputs(batch, pools)
            if batch.patch_features is not None:
                patch_q = model.embed_patches(batch.patch_features).data.mean(axis=1)
            if batch.token_ids is not None:
                emb = model.embed_text(batch.token_ids).data
                real = batch.token_ids != PAD_ID
                assert not real.all()  # padding present, so the mask matters
                text_q = np.stack([emb[i][real[i]].mean(axis=0)
                                   for i in range(3)])
            if kind == "image_only":
                want_v, want_t = [], patch_q @ pools.vis_to_txt.data
            elif kind == "text_only":
                want_v, want_t = text_q @ pools.txt_to_vis.data, []
            else:
                want_v, want_t = patch_q, text_q
            for sels, want in ((unified.selections.get("visual"), want_v),
                               (unified.selections.get("textual"), want_t)):
                rows = [] if sels is None else sels.query.data
                assert len(rows) == len(want)
                for row, q in zip(rows, want):
                    np.testing.assert_allclose(row, q, atol=1e-12)

    @pytest.mark.parametrize("kind", ["image_only", "text_only", "image_text"])
    def test_queries_on_tape_only_with_pull(self, tiny_config, kind):
        model, pools = build(tiny_config)
        batch = make_batch(tiny_config, kind, 2, np.random.default_rng(16))
        for pull in (False, True):
            unified = model.unify_inputs(batch, pools, pull=pull)
            queries = [s.query for s in unified.selections.values()]
            assert sum(len(q.data) for q in queries) == (
                4 if kind == "image_text" else 2)
            assert all((q.tape_node is not None) == pull for q in queries)
            assert unified.states.tape_node is not None

    @pytest.mark.parametrize("shape", [(2, 3), (2, 1), (3, 2), (1, 2), (2,)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_pinned_selection_of_wrong_shape_rejected(self, tiny_config,
                                                      shape):
        # a pinned record must be [B, n_sel] = [2, 2]
        model, pools = build(tiny_config)
        batch = make_batch(tiny_config, "image_text", 2,
                           np.random.default_rng(17))
        pinned = np.arange(np.prod(shape)).reshape(shape)
        with pytest.raises(ShapeError, match=r"pinned visual selection must "
                           r"be \[2, 2\], got"):
            model.unify_inputs(batch, pools,
                               select_override={"visual": pinned})

    def test_text_item_without_real_tokens_rejected(self, tiny_config):
        model, pools = build(tiny_config)
        batch = make_batch(tiny_config, "text_only", 2,
                           np.random.default_rng(13), text_len=0)
        assert np.all(batch.token_ids == PAD_ID)
        with pytest.raises(ConfigError):
            model.unify_inputs(batch, pools)


class TestEncode:
    def test_zero_layer_stack_is_identity(self, tiny_config):
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "n_layers": 0})
        model, pools = build(config)
        rng = np.random.default_rng(7)
        batch = make_batch(config, "image_text", 2, rng)
        unified = model.unify_inputs(batch, pools)
        out = model.encode(unified.states, unified.mask)
        np.testing.assert_array_equal(out.data, unified.states.data)

    def test_fully_masked_others_reduce_to_cls_alone(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(8)
        batch = make_batch(tiny_config, "image_only", 1, rng)
        unified = model.unify_inputs(batch, pools)

        mask = np.zeros_like(unified.mask)
        mask[:, 0] = True  # only [CLS_v] visible
        full = model.encode(unified.states, mask)
        cls_full = full.data[:, 0]

        solo_states = ops.slice_axis(unified.states, 1, 0, 1)
        solo = model.encode(solo_states, np.ones((1, 1), dtype=bool))
        # masked keys get exactly zero probability; the residual ulp comes
        # from BLAS kernel blocking differing between the two row counts
        np.testing.assert_allclose(cls_full, solo.data[:, 0], atol=1e-12)

    def test_attention_rows_sum_to_one_under_any_mask(self, tiny_config):
        # with every value row equal to one vector, the output is that vector
        # exactly when each query's weights over the keys sum to one
        model, pools = build(tiny_config)
        rng = np.random.default_rng(9)
        layer = model.layers[0]
        for trial in range(5):
            batch = make_batch(tiny_config, "image_text", 2, rng,
                               text_len=int(rng.integers(1, 6)))
            unified = model.unify_inputs(batch, pools)
            mask_add = np.where(unified.mask[:, None, None, :], 0.0, -1e30)
            h = ops.layernorm(unified.states, layer.ln1_g, layer.ln1_b)
            q = ops.linear(h, layer.wq, layer.bq)
            k = ops.linear(h, layer.wk, layer.bk)
            const = rng.normal(size=tiny_config.d_hidden)
            v = Tensor(np.broadcast_to(const, q.shape))
            out = ops.attention(q, k, v, mask_add, layer.n_heads)
            np.testing.assert_allclose(out.data, np.broadcast_to(const, q.shape),
                                       rtol=0, atol=1e-12)

    def test_masked_token_cannot_influence_visible_outputs(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(10)
        batch = make_batch(tiny_config, "image_text", 2, rng, text_len=3)
        lay = sequence_layout("image_text", tiny_config)
        pad_col = lay.text.start + 4  # a padded text slot
        unified = model.unify_inputs(batch, pools)
        assert not unified.mask[0, pad_col]
        base = model.encode(unified.states, unified.mask).data.copy()

        perturbed = unified.states.data.copy()
        perturbed[:, pad_col, :] += rng.normal(size=perturbed.shape[-1]) * 10
        out = model.encode(Tensor(perturbed), unified.mask).data

        visible = unified.mask[0]
        np.testing.assert_allclose(out[:, visible], base[:, visible], atol=1e-12)

    def test_non_finite_activation_reports_layer(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(11)
        batch = make_batch(tiny_config, "text_only", 1, rng)
        unified = model.unify_inputs(batch, pools)
        model.layers[1].w2.data[:] = np.inf
        from dynaprompt.ndtensor import NumericError
        with pytest.raises(NumericError, match="layer 1"):
            model.encode(unified.states, unified.mask)


def _row_sets(kind, config):
    """One [CLS], every [CLS] (two apart for image_text) and a prefix."""
    lay = sequence_layout(kind, config)
    cls = lay.cls_rows()
    sets = {"one_cls": cls[:1], "prefix": (slice(0, lay.total_len // 2),)}
    if len(cls) > 1:
        sets["both_cls"] = cls
    return sets


class TestLastLayerRows:
    """The last layer computes only the rows a caller reads."""

    @pytest.mark.parametrize("n_layers", [2, 0])
    @pytest.mark.parametrize("kind", ["image_only", "text_only", "image_text"])
    def test_kept_rows_match_full_forward(self, tiny_config, kind, n_layers):
        config = ModelConfig.from_dict({**tiny_config.to_dict(),
                                        "n_layers": n_layers})
        model, pools = build(config, seed=21)
        batch = make_batch(config, kind, 3, np.random.default_rng(22),
                           text_len=3)
        with no_grad():
            full, _ = model.forward(batch, pools)
            for name, rows in _row_sets(kind, config).items():
                kept, _ = model.forward(batch, pools, rows=rows)
                want = full.data[:, np.r_[rows]]
                assert kept.shape == want.shape, name
                # single-row products may take another BLAS kernel
                np.testing.assert_allclose(kept.data, want,
                                           rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("kind", KINDS)
    def test_forward_returns_exactly_the_named_rows(self, tiny_config, kind):
        """``forward`` returns [B, R, d_hidden]: the full pass's states at
        the named positions, in order, and nothing else."""
        model, pools = build(tiny_config, seed=23)
        batch = make_batch(tiny_config, kind, 3, np.random.default_rng(24),
                           text_len=3)
        lay = sequence_layout(kind, tiny_config)
        row_sets = {"all": None, "cls": lay.cls_rows()}
        if lay.text is not None:
            row_sets["text"] = (lay.text,)
        if lay.patches is not None:
            row_sets["image"] = (slice(0, lay.patches.stop),)
        full, _ = model.forward(batch, pools)
        assert full.shape == (3, lay.total_len, tiny_config.d_hidden)
        for name, rows in row_sets.items():
            got, _ = model.forward(batch, pools, rows=rows)
            positions = (np.arange(lay.total_len) if rows is None
                         else np.r_[rows])
            assert got.shape == (3, positions.size, tiny_config.d_hidden), name
            # a recording tape keeps every row's bits
            assert got.data.tobytes() == full.data[:, positions].tobytes(), name

    def test_last_layer_ffn_sees_only_kept_rows(self, tiny_config, monkeypatch):
        model, pools = build(tiny_config, seed=25)
        batch = make_batch(tiny_config, "image_text", 2,
                           np.random.default_rng(26))
        lay = sequence_layout("image_text", tiny_config)
        shapes = []
        original = ops.gelu
        monkeypatch.setattr(ops, "gelu",
                            lambda x: shapes.append(x.shape) or original(x))
        d_ff = 4 * tiny_config.d_hidden
        with no_grad():
            model.forward(batch, pools, rows=lay.cls_rows())
        assert shapes == [(2, lay.total_len, d_ff), (2, 2, d_ff)]
        shapes.clear()
        model.forward(batch, pools, rows=lay.cls_rows())  # a tape records
        assert shapes == [(2, lay.total_len, d_ff), (2, 2, d_ff)]


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    b, length, d = x.shape
    x = ops.reshape(x, (b, length, n_heads, d // n_heads))
    return ops.permute(x, (0, 2, 1, 3))


class _HeadSplitCache:
    """Keys and values [B, heads, L, head_dim], as the composed layer kept
    them."""

    def __init__(self):
        self.k = self.v = None

    def __len__(self):
        return 0 if self.k is None else self.k.shape[2]


def composed_forward(layer, x, mask_add, cache=None, rows=None):
    """``TransformerLayer.forward`` written with the elementary ops that
    ``ops.linear`` and ``ops.attention`` fuse: the reference the fused layer
    must match bit for bit.  ``cache`` is a ``_HeadSplitCache``."""
    b, length, d = x.shape
    n_heads = layer.n_heads
    rows = _computed_rows(rows, length)
    h = ops.layernorm(x, layer.ln1_g, layer.ln1_b)
    hq = h if rows is None else _take_rows(h, rows)
    q = _split_heads(ops.add(ops.matmul(hq, layer.wq), layer.bq), n_heads)
    k = _split_heads(ops.add(ops.matmul(h, layer.wk), layer.bk), n_heads)
    if cache is not None:
        k = cache.k = k if cache.k is None else ops.concat([cache.k, k], axis=2)
    if rows is not None and mask_add.shape[-2] > 1:
        mask_add = mask_add[..., np.r_[rows], :]
    scores = ops.scale(ops.matmul(q, ops.permute(k, (0, 1, 3, 2))),
                       1.0 / np.sqrt(d // n_heads))
    mask = Tensor(np.broadcast_to(mask_add, scores.shape))
    probs = ops.softmax(ops.add(scores, mask), axis=-1)
    v = _split_heads(ops.add(ops.matmul(h, layer.wv), layer.bv), n_heads)
    if cache is not None:
        v = cache.v = v if cache.v is None else ops.concat([cache.v, v], axis=2)
    if rows is not None:
        x = _take_rows(x, rows)
    ctx = ops.permute(ops.matmul(probs, v), (0, 2, 1, 3))
    ctx = ops.reshape(ctx, (b, x.shape[1], d))
    x = ops.add(x, ops.add(ops.matmul(ctx, layer.wo), layer.bo))
    h2 = ops.layernorm(x, layer.ln2_g, layer.ln2_b)
    ff = ops.add(ops.matmul(ops.gelu(ops.add(ops.matmul(h2, layer.w1),
                                             layer.b1)), layer.w2), layer.b2)
    return ops.add(x, ff)


# tape nodes of one layer forward: 31 composed, 12 fused
FUSED_NODES_PER_LAYER = 12
NODES_SAVED_PER_LAYER = 31 - FUSED_NODES_PER_LAYER


class TestFusedLayerMatchesComposition:
    """``ops.linear`` and ``ops.attention`` change no output bit: every
    path of the fused layer equals ``composed_forward``."""

    # (batch, positions, width, heads): a tiny one and the desk geometry
    GEOMETRIES = [(2, 7, 16, 2), (8, 74, 64, 4)]

    @staticmethod
    def _masks(b, length, rng):
        padding = rng.random((b, length)) < 0.8
        padding[:, 0] = True
        causal = np.tril(np.ones((length, length), dtype=bool))
        return {"padding": np.where(padding[:, None, None, :], 0.0, -1e30),
                "causal": np.where(causal, 0.0, -1e30)[None, None]}

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_tape_outputs_gradients_and_nodes(self, geometry, monkeypatch):
        b, length, d, n_heads = geometry
        rng = np.random.default_rng(30)
        config = ModelConfig(d_hidden=d, n_heads=n_heads, n_layers=2)
        model, _ = build(config, seed=31)
        states = rng.normal(size=(b, length, d))
        weights = rng.normal(size=(b, length, d))
        fused_forward = TransformerLayer.forward
        for name, mask_add in self._masks(b, length, rng).items():
            runs = []
            for forward in (fused_forward, composed_forward):
                monkeypatch.setattr(TransformerLayer, "forward", forward)
                x = Tensor(states.copy(), requires_grad=True)
                params = {"x": x}
                for i, layer in enumerate(model.layers):
                    params.update(layer.parameters(f"{i}."))
                for p in params.values():
                    p.grad = None
                before = len(active_tape().nodes)  # another test's leftovers
                out = x
                for layer in model.layers:
                    out = layer.forward(out, mask_add)
                loss = ops.sum(ops.mul_const(out, weights))
                nodes = len(loss.tape_node.tape.nodes) - before
                backward(loss)
                runs.append((out.data.tobytes(), nodes,
                             {k: p.grad.tobytes() for k, p in params.items()}))
            (fused, fused_nodes, fused_grads), (ref, ref_nodes, ref_grads) = runs
            assert fused == ref, name
            assert fused_grads == ref_grads, name
            assert fused_nodes == FUSED_NODES_PER_LAYER * len(model.layers) + 2
            assert ref_nodes - fused_nodes == \
                NODES_SAVED_PER_LAYER * len(model.layers), name

    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_no_tape_kept_rows(self, geometry):
        b, length, d, n_heads = geometry
        rng = np.random.default_rng(32)
        layer = TransformerLayer(d, n_heads, np.random.default_rng(33))
        x = Tensor(rng.normal(size=(b, length, d)))
        row_sets = [None, (slice(0, 1),), (slice(0, 1), slice(length - 2, length)),
                    (slice(1, length // 2),)]
        with no_grad():
            for mask_add in self._masks(b, length, rng).values():
                for rows in row_sets:
                    fused = layer.forward(x, mask_add, rows=rows)
                    ref = composed_forward(layer, x, mask_add, rows=rows)
                    assert fused.shape == ref.shape
                    assert fused.data.tobytes() == ref.data.tobytes(), rows

    def test_cached_decoding(self, tiny_config, monkeypatch):
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "dec_layers": 2})
        dec = CaptionDecoder(config, np.random.default_rng(34))
        dec.out_w.data[:] = np.random.default_rng(35).normal(
            size=dec.out_w.shape) * 0.3
        rng = np.random.default_rng(36)
        prefix = Tensor(rng.normal(size=(3, 4, config.d_hidden)))
        empty = Tensor(np.empty((3, 0, config.d_hidden)))
        tokens = rng.integers(4, config.vocab_size, size=(3, 6))
        runs = []
        for forward, cache_type in ((TransformerLayer.forward, KVCache),
                                    (composed_forward, _HeadSplitCache)):
            monkeypatch.setattr(TransformerLayer, "forward", forward)
            cache = [cache_type() for _ in dec.layers]
            with no_grad():
                steps = [dec.forward_states(prefix, tokens[:, :1], cache)]
                for i in range(1, tokens.shape[1]):
                    steps.append(dec.forward_states(empty, tokens[:, i:i + 1],
                                                    cache))
            assert [len(c) for c in cache] == [4 + 6] * 2
            runs.append([s.data.tobytes() for s in steps])
        assert runs[0] == runs[1]


class TestEncoderProperties:
    def test_patch_permutation_equivariance(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(1, tiny_config.patch_count, tiny_config.patch_dim))
        perm = rng.permutation(tiny_config.patch_count)

        # positional info is additive and explicit: permuting patches with
        # their position ids permutes the embedded rows and nothing else
        base = model.embed_patches(feats)
        permuted = model.embed_patches(feats[:, perm], position_ids=perm)
        np.testing.assert_allclose(permuted.data, base.data[:, perm], atol=1e-12)

        # and the encoder is equivariant to that row permutation
        h = tiny_config.d_hidden
        states = rng.normal(size=(1, tiny_config.patch_count, h))
        mask = np.ones((1, tiny_config.patch_count), dtype=bool)
        out_a = model.encode(Tensor(states), mask).data
        out_b = model.encode(Tensor(states[:, perm]), mask).data
        np.testing.assert_allclose(out_b, out_a[:, perm], atol=1e-10)

    def test_end_to_end_fd_through_unify_and_encode(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(13)
        batch = make_batch(tiny_config, "image_text", 2, rng, text_len=4)

        probe = model.unify_inputs(batch, pools)
        override = {name: sel.indices
                    for name, sel in probe.selections.items()}
        wsum = np.random.default_rng(14).normal(
            size=(2, tiny_config.d_hidden))
        rows = probe.layout.cls_rows()

        def f():
            cls, _ = model.forward(batch, pools, select_override=override,
                                   rows=rows)
            return ops.sum(ops.mul_const(cls, wsum[:, None, :]))

        params = {
            "text_table": model.text_table,
            "cls_v": model.cls_v,
            "wq0": model.layers[0].wq,
            "w2_1": model.layers[1].w2,
            "ln1_g0": model.layers[0].ln1_g,
            "pool_keys": pools.visual.keys,
            "pool_values": pools.textual.values,
            "role": pools.visual.role_embeddings["as_visual_context"],
        }
        report = fd_check(f, params, tol=1e-4, coords_per_param=6,
                          rng=np.random.default_rng(15))
        assert report.passed, report.summary()
