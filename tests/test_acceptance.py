"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines; any failure names its criterion.  The heavy desk-scale
pre-training run is shared by the criteria that need it and its wall time is
charged to the learnability budget.
"""

import math
import time

import numpy as np
import pytest

from dynaprompt.bleu import bleu
from dynaprompt.checkpoint import load_checkpoint
from dynaprompt.config import ModelConfig
from dynaprompt.corpus import CorpusSpec, gen_corpus
from dynaprompt.encoder import VisionLanguageModel
from dynaprompt.harness import (
    batch_from_pairs,
    build_model,
    default_corpus,
    parse_pretrain_metrics,
    restore_state,
    run_eval,
    run_finetune,
    run_pretrain,
)
from dynaprompt.ndtensor import Tensor, backward, no_grad, run_op_suite
from dynaprompt.objectives import (
    apply_mlm_masking,
    combined_pretrain_loss,
    end_to_end_fd_case,
)
from dynaprompt.pools import PromptPool, PromptPools, query_fn, select_prompts
from tests.conftest import make_batch


def report(criterion, detail):
    print(f"\n[acceptance] criterion {criterion}: PASS -- {detail}")


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """Shared 500-step pre-training run on the 32-pair corpus (2 layers,
    d_hidden 64); its duration counts toward the learnability budget."""
    config = ModelConfig()
    assert config.steps == 500 and config.n_layers == 2 and config.d_hidden == 64
    corpus = default_corpus(config)
    assert len(corpus) == 32
    out = tmp_path_factory.mktemp("desk_run")
    start = time.monotonic()
    ckpt, metrics = run_pretrain(config, corpus, out)
    elapsed = time.monotonic() - start
    return {"config": config, "corpus": corpus, "ckpt": ckpt,
            "metrics": metrics, "out": out, "pretrain_seconds": elapsed}


class TestCriterion1GradientCorrectness:
    def test_fd_check_all_ops_and_combined_loss(self):
        start = time.monotonic()
        ok, worst = run_op_suite(seeds=100, tol=1e-5, h=1e-5)
        assert ok, f"op fd sweep failed: {worst}"
        e2e = end_to_end_fd_case(seeds=100, tol=1e-5, h=1e-5)
        assert e2e < 1e-5, f"combined-loss fd error {e2e:.3e}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"gradient sweep took {elapsed:.0f}s"
        report(1, f"worst op {max(worst.values()):.2e}, combined {e2e:.2e}, "
                  f"{elapsed:.0f}s")


class TestCriterion2SelectionOracle:
    def test_thousand_cases_match_brute_force(self):
        rng = np.random.default_rng(2024)
        for case in range(1000):
            pool_size = int(rng.integers(2, 65))
            n_sel = int(rng.integers(1, min(8, pool_size) + 1))
            key_dim = int(rng.integers(2, 16))
            pool = PromptPool("visual", pool_size, key_dim, 2,
                              np.random.default_rng(case))
            if case % 4 == 0:  # deliberate exact ties
                src = int(rng.integers(0, pool_size))
                pool.keys.data[(src + 1) % pool_size] = pool.keys.data[src]
            query = rng.normal(size=key_dim)
            got = select_prompts(pool, Tensor(query), n_sel).indices
            sims = pool.keys.data @ query / (
                np.linalg.norm(pool.keys.data, axis=1) * np.linalg.norm(query))
            want = sorted(range(pool_size), key=lambda i: (-sims[i], i))[:n_sel]
            assert got == want, f"case {case}"
        report(2, "1000/1000 cases equal the full-sort oracle")


class TestCriterion3ScaleInvariance:
    def test_selection_invariant_to_input_scaling(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pool = PromptPool("textual", 64, 12, 4, rng)
            x = rng.normal(size=(int(rng.integers(1, 10)), 12))
            base = select_prompts(pool, query_fn(Tensor(x)), 5).indices
            for c in (1e-3, 1.0, 1e3):
                got = select_prompts(pool, query_fn(Tensor(c * x)), 5).indices
                assert got == base, f"seed {seed}, c={c}"
        report(3, "index sequences identical for c in {1e-3, 1, 1e3}")


class TestCriterion4Recomposition:
    def test_every_training_step_recomposes(self, desk_run):
        config, rows = desk_run["config"], parse_pretrain_metrics(desk_run["metrics"])
        assert (config.lambda_, config.beta, config.sigma) == (0.8, 0.9, 0.9)
        assert len(rows) == 500
        for step, rep, _ in rows:
            assert rep.check_recomposition(config.sigma, config.lambda_,
                                           config.beta, tol=1e-12), f"step {step}"
        report(4, "l_total recomposes to 1e-12 on all 500 steps "
                  "(weights 0.8/0.9/0.9)")

    def test_zero_weights_collapse_to_mlm_exactly(self, tiny_config):
        config = ModelConfig.from_dict({**tiny_config.to_dict(), "sigma": 0.0,
                                        "lambda": 0.0, "beta": 0.0})
        rng = np.random.default_rng(40)
        model = VisionLanguageModel(config, rng)
        pools = PromptPools(config, rng)
        from dynaprompt.objectives import PretrainHeads
        heads = PretrainHeads(config, rng)
        batch = make_batch(config, "image_text", 2, rng)
        _, rep, _ = combined_pretrain_loss(batch, model, pools, heads, config,
                                           rng=np.random.default_rng(41))
        assert rep.l_total == rep.l_mlm


class TestCriterion5MaskingRate:
    def test_observed_rate_at_fifteen_percent(self):
        ids = np.full((125, 100), 20)  # 12500 content tokens
        _, labels = apply_mlm_masking(ids, 0.15, np.random.default_rng(5), 256)
        frac = float(np.mean(labels >= 0))
        assert 0.135 <= frac <= 0.165
        report(5, f"observed fraction {frac:.4f} on {ids.size} tokens")


class TestCriterion6GradientIsolation:
    def test_unselected_pool_entries_get_exact_zero(self, desk_config):
        model, pools, heads = build_model(desk_config)
        rng = np.random.default_rng(60)
        batch = make_batch(desk_config, "image_text", 4, rng)
        total, _, frozen = combined_pretrain_loss(
            batch, model, pools, heads, desk_config,
            rng=np.random.default_rng(61), capture=True)
        backward(total)
        for modality, pool in (("visual", pools.visual),
                               ("textual", pools.textual)):
            touched = set()
            for key in frozen.overrides.values():
                if modality in key:
                    touched |= set(key[modality].reshape(-1).tolist())
            for i in range(pool.pool_size):
                if i not in touched:
                    np.testing.assert_array_equal(pool.keys.grad[i], 0.0)
                    np.testing.assert_array_equal(pool.values.grad[i], 0.0)
        report(6, "untouched pool rows carry exactly zero gradient")

    def test_frozen_backbone_changes_only_head(self, desk_run, tmp_path):
        config = ModelConfig.from_dict({**desk_run["config"].to_dict(),
                                        "freeze_backbone": True})
        corpus = desk_run["corpus"]
        fckpt, _ = run_finetune(config, corpus, desk_run["ckpt"],
                                "pair_classify", tmp_path, steps=5)
        _, before = load_checkpoint(desk_run["ckpt"])
        _, after = load_checkpoint(fckpt)
        # usage counters are selection bookkeeping, not trainable parameters
        changed = [k for k in after
                   if k in before and not k.endswith(".usage")
                   and not np.array_equal(after[k], before[k])]
        assert changed == [] or all(k.startswith("head.") for k in changed)
        head_keys = [k for k in after if k.startswith("head.")]
        assert head_keys


class TestCriterion7ToyLearnability:
    def test_pretrain_finetune_retrieve_generate(self, desk_run, tmp_path):
        config, corpus = desk_run["config"], desk_run["corpus"]
        elapsed = desk_run["pretrain_seconds"]
        start = time.monotonic()

        rows = parse_pretrain_metrics(desk_run["metrics"])
        first, last = rows[0][1].l_total, rows[-1][1].l_total
        assert last <= 0.5 * first, f"l_total {first:.3f} -> {last:.3f}"

        fckpt, _ = run_finetune(config, corpus, desk_run["ckpt"],
                                "pair_classify", tmp_path, steps=800)
        _, res_itm = run_eval(config, corpus, fckpt, "pair_classify", tmp_path)
        assert res_itm["accuracy"] >= 0.95, res_itm

        retrieval_corpus = gen_corpus(CorpusSpec(n_pairs=16, n_concepts=16),
                                      config.seed + 1)
        rckpt, _ = run_finetune(config, retrieval_corpus, desk_run["ckpt"],
                                "retrieval", tmp_path)
        _, res_ret = run_eval(config, retrieval_corpus, rckpt, "retrieval",
                              tmp_path)
        assert res_ret["recall@1_i2t"] == 1.0, res_ret
        assert res_ret["recall@1_t2i"] == 1.0, res_ret

        gen_fixture = gen_corpus(CorpusSpec(n_pairs=4, n_concepts=4),
                                 config.seed + 2)
        gckpt, _ = run_finetune(config, gen_fixture, desk_run["ckpt"],
                                "generation", tmp_path, steps=500)
        _, res_gen = run_eval(config, gen_fixture, gckpt, "generation",
                              tmp_path)
        assert res_gen["exact_match"] == 1.0, res_gen

        elapsed += time.monotonic() - start
        assert elapsed < 300.0, f"learnability pipeline took {elapsed:.0f}s"
        report(7, f"loss {first:.2f}->{last:.2f}, itm {res_itm['accuracy']:.3f}, "
                  f"R@1 1.0/1.0, captions exact, {elapsed:.0f}s")


class TestCriterion8DeterminismPersistence:
    def test_identical_config_seed_byte_identical_outputs(self, tmp_path):
        config = ModelConfig(steps=40, checkpoint_every=20)
        corpus = default_corpus(config)
        paths = []
        for name in ("a", "b"):
            paths.append(run_pretrain(config, corpus, tmp_path / name))
        (ck_a, me_a), (ck_b, me_b) = paths
        assert open(ck_a, "rb").read() == open(ck_b, "rb").read()
        assert open(me_a, "rb").read() == open(me_b, "rb").read()
        report(8, "checkpoints and metrics byte-identical across runs")

    def test_round_trip_forward_zero_ulps(self, desk_run):
        config, corpus = desk_run["config"], desk_run["corpus"]
        _, state = load_checkpoint(desk_run["ckpt"])
        batch = batch_from_pairs(corpus.pairs[:4], config, "image_text")
        outs = []
        for _ in range(2):
            model, pools, heads = build_model(config)
            restore_state(state, model, pools, heads)
            with no_grad():
                encoded, _ = model.forward(batch, pools)
            outs.append(encoded.token_states.data)
        assert outs[0].tobytes() == outs[1].tobytes()


class TestCriterion9BleuFixtures:
    def test_unit_fixtures(self):
        same = bleu([3, 1, 4, 1, 5], [3, 1, 4, 1, 5])
        assert all(s == 1.0 for s in same.cumulative)
        assert same.brevity_penalty == 1.0

        disjoint = bleu([1, 2, 3, 4], [20, 21, 22, 23])
        assert all(s < 1e-6 for s in disjoint.cumulative)

        # candidate 3 tokens vs reference 4: bp = e^(1 - 4/3)
        hand = bleu([101, 102, 103], [101, 102, 103, 104])
        assert hand.precisions[0] == 1.0
        assert abs(hand.brevity_penalty - math.exp(1.0 - 4.0 / 3.0)) < 1e-6
        assert abs(hand.cumulative[0] - 0.7165313105737893) < 1e-6
        report(9, "identical=1.0, disjoint~0, brevity hand case to 1e-6")
