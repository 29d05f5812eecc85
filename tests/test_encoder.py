"""Input unification, sequence layout, and the shared encoder stack."""

import numpy as np
import pytest

from dynaprompt.config import PAD_ID, ConfigError, ModelConfig
from dynaprompt.encoder import (
    UnifiedBatch,
    VisionLanguageModel,
    assembled_attention_mask,
    sequence_layout,
)
from dynaprompt.ndtensor import Tensor, backward, fd_check, no_grad, ops, tensor
from dynaprompt.pools import PromptPools
from tests.conftest import make_batch


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
    def test_text_only_length_rule(self):
        # text 6, two prompts of len 3 -> 6 + 6 + 1
        config = ModelConfig(max_text_len=6, n_sel=2, prompt_len_v=3)
        assert sequence_layout("text_only", config).total_len == 6 + 6 + 1

    def test_image_only_length_rule(self):
        # patches 4, one prompt of len 2 -> 4 + 2 + 1
        config = ModelConfig(patch_count=4, n_sel=1, prompt_len_t=2,
                             pool_size_v=8, pool_size_t=8)
        assert sequence_layout("image_only", config).total_len == 4 + 2 + 1

    def test_image_text_matches_concat_oracle(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(4)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        unified = model.unify_inputs(batch, pools)
        c = tiny_config
        lay = unified.layout

        # oracle: rebuild each segment independently and concatenate
        text_emb = model.embed_text(batch.token_ids).data
        patch_emb = model.embed_patches(batch.patch_features).data
        t2h = text_emb @ model.text_to_hidden_w.data + model.text_to_hidden_b.data
        v2h = patch_emb @ model.vis_to_hidden_w.data + model.vis_to_hidden_b.data
        pieces = []
        for b in range(2):
            sv = unified.selections_v[b]
            st = unified.selections_t[b]
            pv = (pools.visual.values.data[sv.indices].reshape(-1, c.d_vision)
                  + pools.visual.role_embeddings["as_visual_context"].data)
            pt = (pools.textual.values.data[st.indices].reshape(-1, c.d_text)
                  + pools.textual.role_embeddings["as_textual_context"].data)
            pv = pv @ model.vis_to_hidden_w.data + model.vis_to_hidden_b.data
            pt = pt @ model.text_to_hidden_w.data + model.text_to_hidden_b.data
            seq = np.concatenate([
                model.cls_v.data[None, :], v2h[b], pv, pt,
                model.cls_t.data[None, :], t2h[b]], axis=0)
            pieces.append(seq)
        oracle = np.stack(pieces)
        assert oracle.shape == unified.states.shape
        np.testing.assert_allclose(unified.states.data, oracle, atol=1e-12)
        assert lay.total_len == oracle.shape[1]

    def test_kind_field_inconsistency_rejected(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(5)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        batch.kind = "image_only"  # now token_ids should not be present
        with pytest.raises(ConfigError):
            model.unify_inputs(batch, pools)

    def test_mask_length_validated(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(6)
        batch = make_batch(tiny_config, "text_only", 2, rng)
        batch.attention_mask = batch.attention_mask[:, :-1]
        with pytest.raises(Exception):
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
            for sels, want in ((unified.selections_v, want_v),
                               (unified.selections_t, want_t)):
                assert len(sels) == len(want)
                for sel, q in zip(sels, want):
                    np.testing.assert_allclose(sel.query.data, q, atol=1e-12)

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
        model, pools = build(tiny_config)
        rng = np.random.default_rng(9)
        for trial in range(5):
            batch = make_batch(tiny_config, "image_text", 2, rng,
                               text_len=int(rng.integers(1, 6)))
            unified = model.unify_inputs(batch, pools)
            mask_add = np.where(unified.mask[:, None, None, :], 0.0, -1e30)
            layer = model.layers[0]
            h = ops.layernorm(unified.states, layer.ln1_g, layer.ln1_b)
            probs = layer.attention_probs(h, mask_add)
            np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_masked_token_cannot_influence_visible_outputs(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(10)
        batch = make_batch(tiny_config, "image_text", 2, rng, text_len=3)
        lay = sequence_layout("image_text", tiny_config)
        pad_col = lay.text.start + 4  # a padded text slot
        assert not batch.attention_mask[0, pad_col]

        unified = model.unify_inputs(batch, pools)
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
    """Without a tape the last layer computes only the rows a caller reads."""

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
                want = full.token_states.data[:, np.r_[rows]]
                assert kept.token_states.shape == want.shape, name
                # single-row products may take another BLAS kernel
                np.testing.assert_allclose(kept.token_states.data, want,
                                           rtol=0, atol=1e-12, err_msg=name)
                for attr in ("cls_visual", "cls_textual"):
                    got, ref = getattr(kept, attr), getattr(full, attr)
                    if got is not None:
                        np.testing.assert_allclose(got.data, ref.data,
                                                   rtol=0, atol=1e-12)

    def test_cls_rows_yield_every_summary_state(self, tiny_config):
        model, pools = build(tiny_config, seed=23)
        batch = make_batch(tiny_config, "image_text", 2,
                           np.random.default_rng(24))
        rows = sequence_layout("image_text", tiny_config).cls_rows()
        with no_grad():
            encoded, _ = model.forward(batch, pools, rows=rows)
        assert encoded.token_states.shape == (2, 2, tiny_config.d_hidden)
        assert encoded.cls_visual is not None
        assert encoded.cls_textual is not None

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
        assert shapes == [(2, lay.total_len, d_ff)] * 2


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
        override = {
            "visual": np.array([s.indices for s in probe.selections_v]),
            "textual": np.array([s.indices for s in probe.selections_t]),
        }
        wsum = np.random.default_rng(14).normal(
            size=(2, tiny_config.d_hidden))

        def f():
            encoded, _ = model.forward(batch, pools, select_override=override)
            v = ops.mul_const(encoded.cls_visual, wsum)
            t = ops.mul_const(encoded.cls_textual, wsum)
            return ops.add(ops.sum(v), ops.sum(t))

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
