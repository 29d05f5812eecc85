"""Task heads, retrieval ranking, causal caption decoding."""

import numpy as np
import pytest

from dynaprompt.adaptation import (
    CaptionBatch,
    CaptionDecoder,
    LabeledBatch,
    TaskHead,
    _image_prefix,
    caption_loss,
    classify,
    finetune_loss,
    finetune_step,
    generate_report,
    retrieval_rank,
)
from dynaprompt.config import BOS_ID, EOS_ID, ConfigError, ModelConfig
from dynaprompt.encoder import (KVCache, TransformerLayer, VisionLanguageModel,
                               sequence_layout)
from dynaprompt.ndtensor import Tensor, backward, no_grad, ops
from dynaprompt.ndtensor.tensor import active_tape
from dynaprompt.optim import AdamW
from dynaprompt.pools import PromptPools
from dynaprompt.corpus import CorpusSpec, gen_corpus
from dynaprompt.harness import _labeled_batch, batch_from_pairs
from tests.conftest import make_batch


def build(config, seed=0):
    rng = np.random.default_rng(seed)
    return VisionLanguageModel(config, rng), PromptPools(config, rng)


class TestClassify:
    def test_single_class_probability_one(self, tiny_config):
        model, pools = build(tiny_config)
        head = TaskHead("image_classify", tiny_config, label_space=1)
        batch = make_batch(tiny_config, "image_only", 2, np.random.default_rng(1))
        probs = classify(model, pools, batch, head)
        np.testing.assert_allclose(probs.data, 1.0, atol=1e-15)

    def test_zero_init_head_is_uniform(self, tiny_config):
        model, pools = build(tiny_config)
        head = TaskHead("vqa", tiny_config, label_space=5)
        batch = make_batch(tiny_config, "image_text", 2, np.random.default_rng(2))
        probs = classify(model, pools, batch, head)
        np.testing.assert_allclose(probs.data, 0.2, atol=1e-15)

    def test_argmax_matches_logit_oracle(self, tiny_config):
        model, pools = build(tiny_config)
        rng = np.random.default_rng(3)
        head = TaskHead("pair_classify", tiny_config, label_space=4)
        head.params["w"].data[:] = rng.normal(size=head.params["w"].shape)
        head.params["b"].data[:] = rng.normal(size=4)
        batch = make_batch(tiny_config, "image_text", 3, rng)
        probs = classify(model, pools, batch, head)

        encoded, _ = model.forward(batch, pools)
        feats = np.concatenate([encoded.cls_visual.data,
                                encoded.cls_textual.data], axis=1)
        logits = feats @ head.params["w"].data + head.params["b"].data
        for b in range(3):
            assert np.argmax(probs.data[b]) == max(
                range(4), key=lambda j: logits[b, j])

    def test_kind_mismatch_rejected(self, tiny_config):
        model, pools = build(tiny_config)
        head = TaskHead("text_classify", tiny_config, label_space=3)
        batch = make_batch(tiny_config, "image_only", 1, np.random.default_rng(4))
        with pytest.raises(ConfigError):
            classify(model, pools, batch, head)


class TestFinetuneStep:
    def _task_setup(self, config, task, label_space, seed=5):
        model, pools = build(config, seed)
        head = TaskHead(task, config, label_space=label_space)
        params = {**model.parameters(), **pools.parameters(),
                  **head.parameters()}
        return model, pools, head, params

    def test_lr_zero_changes_nothing(self, tiny_config):
        model, pools, head, params = self._task_setup(tiny_config,
                                                      "image_classify", 3)
        opt = AdamW(params, lr=0.0)
        rng = np.random.default_rng(6)
        batch = make_batch(tiny_config, "image_only", 2, rng)
        tb = LabeledBatch(batch, np.array([0, 2]))
        before = {k: p.data.copy() for k, p in params.items()}
        finetune_step(tb, model, pools, head, opt, tiny_config)
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_step_zero_loss_equals_frozen_eval(self, tiny_config):
        model, pools, head, params = self._task_setup(tiny_config, "vqa", 4)
        opt = AdamW(params, lr=1e-3)
        rng = np.random.default_rng(7)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        tb = LabeledBatch(batch, np.array([1, 3]))
        frozen = finetune_loss(model, pools, head, tb, tiny_config).item()
        stepped = finetune_step(tb, model, pools, head, opt, tiny_config)
        assert stepped == frozen

    def test_separable_items_reach_full_train_accuracy(self, desk_config):
        # eight pairs with eight distinct concepts are linearly separable
        cfg = desk_config
        corpus = gen_corpus(CorpusSpec(n_pairs=8, n_concepts=8), seed=11)
        model, pools = build(cfg, seed=8)
        head = TaskHead("image_classify", cfg, label_space=8)
        params = {**model.parameters(), **pools.parameters(),
                  **head.parameters()}
        opt = AdamW(params, lr=1e-3)
        tb = _labeled_batch(corpus.pairs, cfg, "image_classify")
        for _ in range(300):
            finetune_step(tb, model, pools, head, opt, cfg)
        with no_grad():
            probs = classify(model, pools, tb.batch, head)
        assert np.mean(np.argmax(probs.data, axis=1) == tb.labels) == 1.0

    def test_frozen_backbone_only_head_changes(self, tiny_config):
        model, pools = build(tiny_config, seed=9)
        head = TaskHead("text_classify", tiny_config, label_space=3)
        model.set_trainable(False)
        for p in pools.parameters().values():
            p.requires_grad = False
        backbone = {**model.parameters(), **pools.parameters()}
        opt = AdamW(head.parameters(), lr=1e-2)
        rng = np.random.default_rng(10)
        batch = make_batch(tiny_config, "text_only", 2, rng)
        tb = LabeledBatch(batch, np.array([0, 1]))
        before = {k: p.data.copy() for k, p in backbone.items()}
        head_before = {k: p.data.copy() for k, p in head.parameters().items()}
        for _ in range(3):
            finetune_step(tb, model, pools, head, opt, tiny_config)
        for k, p in backbone.items():
            np.testing.assert_array_equal(p.data, before[k])
            assert p.grad is None
        assert any(np.any(p.data != head_before[k])
                   for k, p in head.parameters().items())


class TestRetrievalRank:
    def test_identity_pairing_perfect(self):
        rng = np.random.default_rng(11)
        reps = rng.normal(size=(6, 8))
        result = retrieval_rank(reps, reps.copy(), ks=(1, 5))
        assert result.recall[("i2t", 1)] == 1.0
        assert result.recall[("t2i", 1)] == 1.0

    def test_orthonormal_with_permuted_pairing(self):
        eye = np.eye(5)
        perm = np.array([3, 0, 4, 1, 2])
        # image i matches text perm[i]: place image i's vector at text row perm[i]
        text = np.empty((5, 5))
        for i in range(5):
            text[perm[i]] = eye[i]
        result = retrieval_rank(eye, text, pairing=perm, ks=(1,))
        assert result.recall[("i2t", 1)] == 1.0
        assert result.recall[("t2i", 1)] == 1.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(12)
        img = rng.normal(size=(8, 10))
        txt = rng.normal(size=(8, 10))
        result = retrieval_rank(img, txt, ks=(1, 5))

        ui = img / np.linalg.norm(img, axis=1, keepdims=True)
        ut = txt / np.linalg.norm(txt, axis=1, keepdims=True)
        sims = ui @ ut.T
        for k in (1, 5):
            hits = 0
            for i in range(8):
                order = sorted(range(8), key=lambda j: (-sims[i, j], j))
                hits += i in order[:k]
            assert result.recall[("i2t", k)] == pytest.approx(hits / 8, abs=1e-12)

    def test_recall_non_decreasing_in_k(self):
        rng = np.random.default_rng(13)
        img = rng.normal(size=(10, 6))
        txt = rng.normal(size=(10, 6))
        result = retrieval_rank(img, txt, ks=(1, 2, 3, 5, 10))
        for direction in ("i2t", "t2i"):
            vals = [result.recall[(direction, k)] for k in (1, 2, 3, 5, 10)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_ties_rank_lower_index_first(self):
        img = np.array([[1.0, 0.0]])
        txt = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        result = retrieval_rank(img, txt, pairing=np.array([0]), ks=(1,))
        np.testing.assert_array_equal(result.i2t_ranking[0], [0, 1, 2])

    def test_k_exceeding_candidates_rejected(self):
        with pytest.raises(ConfigError):
            retrieval_rank(np.ones((2, 3)), np.ones((2, 3)), ks=(5,))


class TestCaptionDecoder:
    def _decoder(self, config, seed=14, from_encoder=None):
        return CaptionDecoder(config, np.random.default_rng(seed),
                              encoder_layers=from_encoder)

    def test_initialized_from_encoder_where_shapes_permit(self, tiny_config):
        model, _ = build(tiny_config, seed=15)
        dec = self._decoder(tiny_config, from_encoder=model.layers)
        np.testing.assert_array_equal(dec.layers[0].wq.data,
                                      model.layers[0].wq.data)

    def test_forced_end_token_gives_empty_generation(self, tiny_config,
                                                     monkeypatch):
        model, pools = build(tiny_config, seed=16)
        dec = self._decoder(tiny_config)
        dec.out_b.data[EOS_ID] = 30.0
        calls = []
        original = CaptionDecoder.forward_states
        monkeypatch.setattr(CaptionDecoder, "forward_states",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        batch = make_batch(tiny_config, "image_only", 2, np.random.default_rng(17))
        out = generate_report(model, pools, dec, batch, max_len=5)
        assert out == [[], []]
        assert len(calls) == 1  # decoding stops once every row has stopped

    def test_greedy_decode_is_deterministic(self, tiny_config):
        model, pools = build(tiny_config, seed=18)
        dec = self._decoder(tiny_config, from_encoder=model.layers)
        dec.out_w.data[:] = np.random.default_rng(19).normal(
            size=dec.out_w.shape) * 0.3
        batch = make_batch(tiny_config, "image_only", 2, np.random.default_rng(20))
        a = generate_report(model, pools, dec, batch, max_len=6)
        b = generate_report(model, pools, dec, batch, max_len=6)
        assert a == b

    def test_causality_future_positions_cannot_leak(self, tiny_config):
        dec = self._decoder(tiny_config, seed=21)
        dec.out_w.data[:] = np.random.default_rng(22).normal(
            size=dec.out_w.shape) * 0.3
        rng = np.random.default_rng(23)
        prefix = Tensor(rng.normal(size=(1, 3, tiny_config.d_hidden)))
        tokens = rng.integers(4, tiny_config.vocab_size, size=(1, 6))
        with no_grad():
            base = dec.forward_states(prefix, tokens).data.copy()
            for t in range(6):
                mangled = tokens.copy()
                mangled[0, t + 1:] = 4  # rewrite the future
                got = dec.forward_states(prefix, mangled).data
                np.testing.assert_allclose(got[0, :t + 1], base[0, :t + 1],
                                           atol=1e-12)

    def test_cached_steps_match_one_full_call(self, tiny_config):
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "dec_layers": 2})
        dec = self._decoder(config, seed=40)
        dec.out_w.data[:] = np.random.default_rng(41).normal(
            size=dec.out_w.shape) * 0.3
        rng = np.random.default_rng(42)
        prefix = Tensor(rng.normal(size=(2, 3, config.d_hidden)))
        tokens = rng.integers(4, config.vocab_size, size=(2, 7))
        with no_grad():
            full = dec.forward_states(prefix, tokens).data
            cache = [KVCache() for _ in dec.layers]
            steps = [dec.forward_states(prefix, tokens[:, :1], cache).data]
            empty = Tensor(np.empty((2, 0, config.d_hidden)))
            for i in range(1, 7):
                steps.append(dec.forward_states(empty, tokens[:, i:i + 1],
                                                cache).data)
        assert [len(c) for c in cache] == [3 + 7, 3 + 7]
        np.testing.assert_allclose(np.concatenate(steps, axis=1), full,
                                   rtol=0, atol=1e-12)

    @staticmethod
    def _varied_lengths_setup(tiny_config):
        """Four captions that stop after 4, 2, 6 (= max_len) and 1 tokens."""
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "dec_layers": 2})
        model, pools = (VisionLanguageModel(config, np.random.default_rng(2)),
                        PromptPools(config, np.random.default_rng(2)))
        dec = CaptionDecoder(config, np.random.default_rng(102),
                             encoder_layers=model.layers)
        dec.out_w.data[:] = np.random.default_rng(202).normal(
            size=dec.out_w.shape) * 2.0
        dec.out_b.data[EOS_ID] = 1.0
        batch = make_batch(config, "image_only", 4, np.random.default_rng(302))
        return model, pools, dec, batch

    def test_batched_decode_matches_per_row_full_recompute(self, tiny_config):
        model, pools, dec, batch = self._varied_lengths_setup(tiny_config)
        max_len = 6
        got = generate_report(model, pools, dec, batch, max_len=max_len)

        # oracle: one row at a time, the whole prefix and every token so far
        # recomputed for each new token
        want = []
        with no_grad():
            prefix = _image_prefix(model, pools, batch)
            for i in range(batch.size):
                row = ops.slice_axis(prefix, 0, i, i + 1)
                tokens = [BOS_ID]
                for _ in range(max_len):
                    logits = dec.forward_states(row, np.array([tokens])).data
                    nxt = int(np.argmax(logits[0, -1]))
                    if nxt == EOS_ID:
                        break
                    tokens.append(nxt)
                want.append(tokens[1:])
        assert [len(w) for w in want] == [4, 2, 6, 1]
        assert got == want

    def test_decoding_computes_each_position_once(self, tiny_config,
                                                  monkeypatch):
        model, pools, dec, batch = self._varied_lengths_setup(tiny_config)
        calls = []
        original = CaptionDecoder.forward_states

        def spy(self, prefix_states, token_ids, *args, **kwargs):
            calls.append((prefix_states.shape, np.shape(token_ids)))
            return original(self, prefix_states, token_ids, *args, **kwargs)

        monkeypatch.setattr(CaptionDecoder, "forward_states", spy)
        max_len = 5
        out = generate_report(model, pools, dec, batch, max_len=max_len)
        b = batch.size
        p = sequence_layout("image_only", tiny_config).total_len  # image + prompts
        # every row stops by EOS or max_len: the longest row sets the steps
        steps = min(max_len, max(len(o) for o in out) + 1)
        assert len(calls) == steps
        positions = sum(shape[0] * (shape[1] + ids[1]) for shape, ids in calls)
        assert positions == b * (p + 1) + b * (steps - 1)
        assert calls[0] == ((b, p, tiny_config.d_hidden), (b, 1))
        assert all(c == ((b, 0, tiny_config.d_hidden), (b, 1)) for c in calls[1:])

    def test_first_decode_call_runs_last_layers_at_kept_rows(self, tiny_config,
                                                            monkeypatch):
        model, pools, dec, batch = self._varied_lengths_setup(tiny_config)
        shapes = []
        original = ops.gelu
        monkeypatch.setattr(ops, "gelu",
                            lambda x: shapes.append(x.shape) or original(x))
        generate_report(model, pools, dec, batch, max_len=3)
        b, d_ff = batch.size, 4 * tiny_config.d_hidden
        lay = sequence_layout("image_only", tiny_config)
        # encoder: all positions, then the image rows of the prefix;
        # decoder's first call: prefix and [BOS], then [BOS] alone
        assert shapes[:4] == [(b, lay.total_len, d_ff),
                              (b, lay.patches.stop, d_ff),
                              (b, lay.total_len + 1, d_ff), (b, 1, d_ff)]
        assert all(s == (b, 1, d_ff) for s in shapes[4:])

    def test_generation_head_needs_a_decoder(self, tiny_config):
        with pytest.raises(ConfigError, match="CaptionDecoder"):
            TaskHead("generation", tiny_config)

    def test_context_overflow_rejected(self, tiny_config):
        model, pools = build(tiny_config, seed=24)
        dec = self._decoder(tiny_config)
        batch = make_batch(tiny_config, "image_only", 1, np.random.default_rng(25))
        with pytest.raises(ConfigError):
            generate_report(model, pools, dec, batch,
                            max_len=tiny_config.dec_context)

    def test_caption_loss_gradients_reach_decoder(self, tiny_config):
        model, pools = build(tiny_config, seed=26)
        dec = self._decoder(tiny_config)
        pairs = gen_corpus(CorpusSpec(
            n_pairs=2, n_concepts=2, patch_count=tiny_config.patch_count,
            patch_dim=tiny_config.patch_dim, text_len=tiny_config.max_text_len,
            vocab_size=tiny_config.vocab_size, concepts_per_pair=1), seed=27).pairs
        batch = batch_from_pairs(pairs, tiny_config, "image_only")
        cb = CaptionBatch(batch, [list(p.tokens[:4]) for p in pairs])
        # a zero output layer would block gradient into the embeddings
        dec.out_w.data[:] = np.random.default_rng(28).normal(
            size=dec.out_w.shape) * 0.2
        loss = caption_loss(model, pools, dec, cb)
        backward(loss)
        assert np.any(dec.out_w.grad != 0.0)
        assert np.any(dec.token_table.grad != 0.0)


class TestTapeIgnoresRows:
    """Under a recording tape every position runs: the rows a caller names
    change no loss, gradient or tape node."""

    TASKS = ("pair_classify", "image_classify", "text_classify", "retrieval",
             "generation")

    @staticmethod
    def _run(config, task):
        model, pools = build(config, seed=60)
        rng = np.random.default_rng(61)
        if task == "generation":
            dec = CaptionDecoder(config, np.random.default_rng(62),
                                 encoder_layers=model.layers)
            dec.out_w.data[:] = rng.normal(size=dec.out_w.shape) * 0.3
            head = TaskHead(task, config, decoder=dec)
            tbatch = CaptionBatch(make_batch(config, "image_only", 2, rng),
                                  [[5, 6, 7], [8]])
        elif task == "retrieval":
            head = TaskHead(task, config)
            tbatch = (make_batch(config, "image_only", 2, rng),
                      make_batch(config, "text_only", 2, rng))
        else:
            head = TaskHead(task, config, label_space=3)
            for p in head.params.values():
                p.data[:] = rng.normal(size=p.shape)
            kind = {"pair_classify": "image_text", "image_classify": "image_only",
                    "text_classify": "text_only"}[task]
            tbatch = LabeledBatch(make_batch(config, kind, 2, rng),
                                  np.array([0, 2]))
        params = {**model.parameters(), **pools.parameters(),
                  **head.parameters()}
        before = len(active_tape().nodes)  # another test's leftovers
        loss = finetune_loss(model, pools, head, tbatch, config)
        nodes = len(loss.tape_node.tape.nodes) - before
        backward(loss)
        grads = {k: None if p.grad is None else p.grad.tobytes()
                 for k, p in params.items()}
        return loss.data.tobytes(), nodes, grads

    @pytest.mark.parametrize("task", TASKS)
    def test_bitwise_equal_to_every_row(self, tiny_config, task, monkeypatch):
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "dec_layers": 2})
        named = self._run(config, task)

        # reference: the same pass with every caller's rows dropped
        forward, layer_forward = VisionLanguageModel.forward, TransformerLayer.forward
        monkeypatch.setattr(VisionLanguageModel, "forward",
                            lambda self, *a, rows=None, **k: forward(self, *a, **k))
        monkeypatch.setattr(TransformerLayer, "forward",
                            lambda self, *a, rows=None, **k:
                            layer_forward(self, *a, **k))
        every = self._run(config, task)
        assert named[0] == every[0]
        assert named[1] == every[1]
        assert named[2] == every[2]
        assert any(g is not None and np.frombuffer(g).any()
                   for k, g in named[2].items() if k.startswith("model.layers."))
