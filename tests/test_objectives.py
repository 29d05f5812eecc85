"""Pre-training losses: masking, the three heads, the weighted combination."""

import math

import numpy as np
import pytest

from dynaprompt import harness
from dynaprompt.config import MASK_ID, PAD_ID, ModelConfig
from dynaprompt.encoder import VisionLanguageModel, sequence_layout
from dynaprompt.ndtensor import Tensor, backward, fd_check, ops
from dynaprompt.ndtensor.tensor import active_tape
from dynaprompt.objectives import (
    FrozenStep,
    PretrainHeads,
    PretrainLossReport,
    SamplingError,
    apply_mlm_masking,
    combined_pretrain_loss,
    itc_loss,
    itm_loss,
    mlm_loss,
    pretrain_step,
)
from dynaprompt.optim import AdamW
from dynaprompt.pools import PromptPools
from tests.conftest import make_batch


def build(config, seed=0):
    rng = np.random.default_rng(seed)
    return (VisionLanguageModel(config, rng), PromptPools(config, rng),
            PretrainHeads(config, rng))


class TestMlmMasking:
    def test_rate_zero_sets_no_labels(self):
        ids = np.full((4, 10), 7)
        _, labels = apply_mlm_masking(ids, 0.0, np.random.default_rng(0), 32)
        assert np.all(labels == -1)

    def test_rate_one_labels_every_content_token(self):
        ids = np.array([[0, 1, 5, 6, 7]])  # PAD, MASK are special
        corrupted, labels = apply_mlm_masking(ids, 1.0, np.random.default_rng(0), 32)
        assert np.all(labels[0, :2] == -1)
        np.testing.assert_array_equal(labels[0, 2:], [5, 6, 7])
        np.testing.assert_array_equal(corrupted[0, :2], [0, 1])

    def test_observed_rate_within_binomial_bound(self):
        # >= 10000 content tokens at rate 0.15 -> fraction in [0.135, 0.165]
        ids = np.full((100, 120), 9)
        _, labels = apply_mlm_masking(ids, 0.15, np.random.default_rng(1), 32)
        frac = np.mean(labels >= 0)
        assert 0.135 <= frac <= 0.165

    def test_corruption_split_masks_majority(self):
        ids = np.full((200, 50), 9)
        corrupted, labels = apply_mlm_masking(ids, 1.0, np.random.default_rng(2), 256)
        picked = labels >= 0
        mask_frac = np.mean(corrupted[picked] == MASK_ID)
        keep_frac = np.mean(corrupted[picked] == 9)
        assert 0.78 < mask_frac < 0.82
        # "unchanged" 10% plus random draws that hit the original id
        assert 0.09 < keep_frac < 0.12


class TestMlmLoss:
    def _encoded(self, config, model, pools, rng):
        batch = make_batch(config, "image_text", 2, rng)
        encoded, unified = model.forward(batch, pools)
        return batch, encoded, unified

    def test_perfect_one_hot_logits(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(3)
        batch, encoded, unified = self._encoded(tiny_config, model, pools, rng)
        labels = np.full_like(batch.token_ids, -1)
        labels[0, 1] = 6

        # rig the head so the labeled position's logits are one-hot with gap 30
        state = encoded.token_states.data[0, unified.layout.text.start + 1]
        heads.mlm_w.data[:] = 0.0
        heads.mlm_b.data[:] = 0.0
        heads.mlm_w.data[:, 6] = 30.0 * state / float(state @ state)
        loss, count = mlm_loss(encoded, labels, heads, unified.layout.text.start)
        assert count == 1
        assert loss.item() < 1e-8

    def test_uniform_logits_give_log_vocab(self, tiny_config):
        model, pools, heads = build(tiny_config)  # zero-init head -> uniform
        rng = np.random.default_rng(4)
        batch, encoded, unified = self._encoded(tiny_config, model, pools, rng)
        labels = np.where(np.random.default_rng(5).random(batch.token_ids.shape) < 0.4,
                          batch.token_ids, -1)
        loss, count = mlm_loss(encoded, labels, heads, unified.layout.text.start)
        assert count == int(np.sum(labels >= 0))
        assert loss.item() == pytest.approx(math.log(tiny_config.vocab_size), abs=1e-12)

    def test_matches_softmax_cross_entropy_oracle(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(6)
        heads.mlm_w.data[:] = rng.normal(size=heads.mlm_w.shape) * 0.3
        heads.mlm_b.data[:] = rng.normal(size=heads.mlm_b.shape) * 0.1
        batch, encoded, unified = self._encoded(tiny_config, model, pools, rng)
        labels = np.where(rng.random(batch.token_ids.shape) < 0.5,
                          batch.token_ids, -1)
        loss, count = mlm_loss(encoded, labels, heads, unified.layout.text.start)

        # oracle: exp-normalize by hand over labeled positions
        lt = tiny_config.max_text_len
        states = encoded.token_states.data[:, unified.layout.text.start:
                                           unified.layout.text.start + lt]
        total, n = 0.0, 0
        for b in range(2):
            for j in range(lt):
                if labels[b, j] < 0:
                    continue
                z = states[b, j] @ heads.mlm_w.data + heads.mlm_b.data
                p = np.exp(z - z.max()); p /= p.sum()
                total += -np.log(p[labels[b, j]])
                n += 1
        assert count == n
        assert loss.item() == pytest.approx(total / n, abs=1e-10)

    def test_zero_labeled_positions_skip(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(7)
        batch, encoded, unified = self._encoded(tiny_config, model, pools, rng)
        loss, count = mlm_loss(encoded, np.full_like(batch.token_ids, -1),
                               heads, unified.layout.text.start)
        assert count == 0 and loss.item() == 0.0

    def test_depends_only_on_labeled_positions(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(8)
        heads.mlm_w.data[:] = rng.normal(size=heads.mlm_w.shape) * 0.3
        batch, encoded, unified = self._encoded(tiny_config, model, pools, rng)
        labels = np.full_like(batch.token_ids, -1)
        labels[0, 0] = 5
        base, _ = mlm_loss(encoded, labels, heads, unified.layout.text.start)

        # perturb the states at every unlabeled position
        perturbed = encoded.token_states.data.copy()
        perturbed[:, unified.layout.text.start + 1:, :] += 123.0
        perturbed[1, :, :] -= 55.0
        from dynaprompt.encoder import EncodedBatch
        enc2 = EncodedBatch(token_states=Tensor(perturbed))
        moved, _ = mlm_loss(enc2, labels, heads, unified.layout.text.start)
        assert moved.item() == base.item()


class TestItmLoss:
    def test_saturated_logits(self, tiny_config):
        _, _, heads = build(tiny_config)
        rng = np.random.default_rng(9)
        h = tiny_config.d_hidden
        cls_v = Tensor(rng.normal(size=(1, h)))
        cls_t = Tensor(rng.normal(size=(1, h)))
        pair = np.concatenate([cls_v.data, cls_t.data], axis=1)[0]
        heads.itm_w.data[:, 1] = 20.0 * pair / float(pair @ pair)
        heads.itm_w.data[:, 0] = -20.0 * pair / float(pair @ pair)
        assert itm_loss(cls_v, cls_t, np.array([1]), heads).item() < 1e-8

    def test_uniform_logits_give_ln2(self, tiny_config):
        _, _, heads = build(tiny_config)  # zero-init head
        rng = np.random.default_rng(10)
        h = tiny_config.d_hidden
        cls_v = Tensor(rng.normal(size=(3, h)))
        cls_t = Tensor(rng.normal(size=(3, h)))
        got = itm_loss(cls_v, cls_t, np.array([1, 0, 1]), heads).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_two_class_oracle(self, tiny_config):
        _, _, heads = build(tiny_config)
        rng = np.random.default_rng(11)
        h = tiny_config.d_hidden
        heads.itm_w.data[:] = rng.normal(size=(2 * h, 2)) * 0.4
        heads.itm_b.data[:] = rng.normal(size=2) * 0.1
        cls_v = Tensor(rng.normal(size=(4, h)))
        cls_t = Tensor(rng.normal(size=(4, h)))
        labels = np.array([1, 0, 0, 1])
        got = itm_loss(cls_v, cls_t, labels, heads).item()

        z = (np.concatenate([cls_v.data, cls_t.data], axis=1) @ heads.itm_w.data
             + heads.itm_b.data)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        oracle = -np.mean(np.log(p[np.arange(4), labels]))
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_bad_labels_rejected(self, tiny_config):
        _, _, heads = build(tiny_config)
        cls = Tensor(np.zeros((2, tiny_config.d_hidden)))
        with pytest.raises(ValueError):
            itm_loss(cls, cls, np.array([0, 2]), heads)


class TestItcLoss:
    def test_single_pair_is_zero(self):
        rng = np.random.default_rng(12)
        v = Tensor(rng.normal(size=(1, 8)))
        t = Tensor(rng.normal(size=(1, 8)))
        assert itc_loss(v, t, 0.07).item() == pytest.approx(0.0, abs=1e-12)

    def test_identical_embeddings_give_ln2(self):
        x = np.ones((2, 6))
        got = itc_loss(Tensor(x), Tensor(x.copy()), 0.5).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_double_softmax_oracle(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(4, 10))
        t = rng.normal(size=(4, 10))
        tau = 0.21
        vu = v / np.linalg.norm(v, axis=1, keepdims=True)
        tu = t / np.linalg.norm(t, axis=1, keepdims=True)
        sims = vu @ tu.T / tau

        def ce_rows(m):
            p = np.exp(m - m.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            return -np.mean(np.log(np.diag(p)))

        oracle = 0.5 * (ce_rows(sims) + ce_rows(sims.T))
        got = itc_loss(Tensor(v), Tensor(t), tau).item()
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(14)
        v = Tensor(rng.normal(size=(5, 7)))
        t = Tensor(rng.normal(size=(5, 7)))
        a = itc_loss(v, t, 0.07).item()
        b = itc_loss(t, v, 0.07).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_temperature_must_be_positive(self):
        v = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError):
            itc_loss(v, v, 0.0)

    def test_gradients_pass_fd(self):
        rng = np.random.default_rng(15)
        v = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        t = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        tau = Tensor(0.3, requires_grad=True)
        report = fd_check(lambda: itc_loss(v, t, tau),
                          {"v": v, "t": t, "tau": tau})
        assert report.passed, report.summary()


class TestCombinedLoss:
    def test_zero_weights_collapse_to_mlm(self, tiny_config):
        cfg = ModelConfig.from_dict({**tiny_config.to_dict(),
                                     "sigma": 0.0, "lambda": 0.0, "beta": 0.0})
        model, pools, heads = build(cfg)
        rng = np.random.default_rng(16)
        batch = make_batch(cfg, "image_text", 2, rng)
        total, report, _ = combined_pretrain_loss(
            batch, model, pools, heads, cfg, rng=np.random.default_rng(17))
        assert report.l_total == report.l_mlm

    def test_paper_weights_in_report_arithmetic(self, tiny_config):
        cfg = tiny_config
        assert (cfg.lambda_, cfg.beta, cfg.sigma) == (0.8, 0.9, 0.9)
        model, pools, heads = build(cfg)
        rng = np.random.default_rng(18)
        batch = make_batch(cfg, "image_text", 3, rng)
        _, report, _ = combined_pretrain_loss(
            batch, model, pools, heads, cfg, rng=np.random.default_rng(19))
        assert report.check_recomposition(0.9, 0.8, 0.9)

    def test_recomposition_of_reported_parts(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(20)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        _, report, _ = combined_pretrain_loss(
            batch, model, pools, heads, tiny_config, rng=np.random.default_rng(21))
        expect = (report.l_mlm + tiny_config.sigma * report.l_itm
                  + tiny_config.lambda_ * report.l_itc
                  + tiny_config.beta * report.l_p)
        assert abs(report.l_total - expect) <= 1e-12

    def test_batch_of_one_rejected_for_negatives(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(22)
        batch = make_batch(tiny_config, "image_text", 1, rng)
        with pytest.raises(SamplingError):
            combined_pretrain_loss(batch, model, pools, heads, tiny_config,
                                   rng=np.random.default_rng(23))

    def test_five_passes_mask_only_their_own_text_padding(self, tiny_config,
                                                          monkeypatch):
        cfg = ModelConfig.from_dict({**tiny_config.to_dict(), "mask_rate": 0.9})
        model, pools, heads = build(cfg)
        rng = np.random.default_rng(40)
        batch = make_batch(cfg, "image_text", 3, rng)
        batch.token_ids[1, 2:] = PAD_ID  # rows of 5, 2 and 4 content tokens
        batch.token_ids[2, 4:] = PAD_ID
        seen = []
        encode = VisionLanguageModel.encode

        def spy(self, states, mask, rows=None):
            seen.append(mask.copy())
            return encode(self, states, mask, rows)

        monkeypatch.setattr(VisionLanguageModel, "encode", spy)
        _, report, _ = combined_pretrain_loss(
            batch, model, pools, heads, cfg, rng=np.random.default_rng(41))
        assert report.masked_token_count > 0  # the MLM pass saw changed ids

        def oracle(kind, ids):
            lay = sequence_layout(kind, cfg)
            mask = np.ones((3, lay.total_len), dtype=bool)
            if ids is not None:
                mask[:, lay.text] = ids != PAD_ID
            return mask

        clean = oracle("image_text", batch.token_ids)
        rolled = oracle("image_text", batch.token_ids[[1, 2, 0]])
        expect = [clean, clean, rolled, oracle("image_only", None),
                  oracle("text_only", batch.token_ids)]
        assert len(seen) == 5
        for got, want in zip(seen, expect):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(clean, rolled)

    def test_desk_step_records_926_tape_nodes(self, desk_config):
        model, pools, heads = build(desk_config)
        corpus = harness.default_corpus(desk_config)
        batch = harness.batch_from_pairs(
            corpus.pairs[:desk_config.batch_size], desk_config, "image_text")
        before = len(active_tape().nodes)  # another test's leftovers
        total, _, _ = combined_pretrain_loss(
            batch, model, pools, heads, desk_config,
            rng=np.random.default_rng(0))
        nodes = len(total.tape_node.tape.nodes) - before
        backward(total)
        assert nodes == 926

    def test_gradient_flow_audit(self, tiny_config):
        model, pools, heads = build(tiny_config)
        rng = np.random.default_rng(24)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        total, _, frozen = combined_pretrain_loss(
            batch, model, pools, heads, tiny_config,
            rng=np.random.default_rng(25), capture=True)
        backward(total)

        selected_v = set(frozen.overrides["itm_pos"]["visual"].reshape(-1).tolist())
        kg = pools.visual.keys.grad
        for i in range(tiny_config.pool_size_v):
            if i in selected_v:
                assert np.any(kg[i] != 0.0)
            else:
                np.testing.assert_array_equal(kg[i], 0.0)

        # values selected by ANY of the five passes carry gradient;
        # untouched entries are exactly zero
        touched = set()
        for key in frozen.overrides:
            if "visual" in frozen.overrides[key]:
                touched |= set(frozen.overrides[key]["visual"].reshape(-1).tolist())
        vg = pools.visual.values.grad
        for i in range(tiny_config.pool_size_v):
            if i not in touched:
                np.testing.assert_array_equal(vg[i], 0.0)
        assert any(np.any(vg[i] != 0.0) for i in touched)

        assert np.any(model.layers[0].wq.grad != 0.0)
        assert np.any(heads.mlm_w.grad != 0.0)
        assert np.any(heads.itm_w.grad != 0.0)
        assert heads.temperature.grad is not None
        assert float(heads.temperature.grad) != 0.0

    def test_end_to_end_fd_on_two_layer_config(self, tiny_config):
        model, pools, heads = build(tiny_config)
        assert tiny_config.n_layers == 2
        rng = np.random.default_rng(26)
        batch = make_batch(tiny_config, "image_text", 2, rng, text_len=4)
        _, _, frozen = combined_pretrain_loss(
            batch, model, pools, heads, tiny_config,
            rng=np.random.default_rng(27), capture=True)

        def f():
            total, _, _ = combined_pretrain_loss(
                batch, model, pools, heads, tiny_config, frozen=frozen)
            return total

        params = {
            "text_table": model.text_table,
            "wv0": model.layers[0].wv,
            "ln2_g1": model.layers[1].ln2_g,
            "vis_keys": pools.visual.keys,
            "txt_values": pools.textual.values,
            "mlm_w": heads.mlm_w,
            "itm_w": heads.itm_w,
            "temperature": heads.temperature,
            "vis_to_txt": pools.vis_to_txt,
        }
        report = fd_check(f, params, coords_per_param=4,
                          rng=np.random.default_rng(28))
        assert report.passed, report.summary()


class TestPretrainStep:
    def _setup(self, config, lr, seed=29):
        model, pools, heads = build(config, seed)
        params = {**model.parameters(), **pools.parameters(), **heads.parameters()}
        opt = AdamW(params, lr=lr, weight_decay=config.weight_decay)
        return model, pools, heads, params, opt

    def test_lr_zero_keeps_parameters_bit_identical(self, tiny_config):
        model, pools, heads, params, opt = self._setup(tiny_config, lr=0.0)
        rng = np.random.default_rng(30)
        batch = make_batch(tiny_config, "image_text", 2, rng)
        before = {k: p.data.copy() for k, p in params.items()}
        pretrain_step(batch, model, pools, heads, opt, tiny_config,
                      np.random.default_rng(31))
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_identical_seeds_give_identical_trajectories(self, tiny_config):
        histories = []
        for _ in range(2):
            model, pools, heads, params, opt = self._setup(tiny_config, lr=1e-3,
                                                           seed=32)
            rng = np.random.default_rng(33)
            step_rng = np.random.default_rng(34)
            traj = []
            for _ in range(10):
                batch = make_batch(tiny_config, "image_text", 2,
                                   np.random.default_rng(35))
                rep = pretrain_step(batch, model, pools, heads, opt,
                                    tiny_config, step_rng)
                traj.append(rep.l_total)
            final = {k: p.data.copy() for k, p in params.items()}
            histories.append((traj, final))
        assert histories[0][0] == histories[1][0]
        for k in histories[0][1]:
            np.testing.assert_array_equal(histories[0][1][k], histories[1][1][k])

    def test_two_hundred_steps_halve_loss_on_frozen_fixture(self, desk_config):
        # seeded 8-pair fixture; recorded regression baseline below
        cfg = desk_config
        model, pools, heads, params, opt = self._setup(cfg, lr=1e-3, seed=36)
        rng = np.random.default_rng(37)
        batch = make_batch(cfg, "image_text", 8, rng, text_len=12)
        step_rng = np.random.default_rng(38)
        first = None
        for _ in range(200):
            rep = pretrain_step(batch, model, pools, heads, opt, cfg, step_rng)
            if first is None:
                first = rep.l_total
        assert rep.l_total <= 0.5 * first
