"""Training loops, metrics files, checkpoint wiring, CLI contract."""

import csv
import json
import math
import os
import re

import numpy as np
import pytest

from dynaprompt import encoder, harness
from dynaprompt.checkpoint import load_checkpoint, save_checkpoint
from dynaprompt.cli import main as cli_main
from dynaprompt.config import ModelConfig
from dynaprompt.corpus import CorpusSpec, gen_corpus
from dynaprompt.harness import (
    METRICS_HEADER,
    _task_head,
    batch_from_pairs,
    build_model,
    default_corpus,
    gather_state,
    inspect_pool,
    parse_pretrain_metrics,
    restore_state,
    run_eval,
    run_finetune,
    run_pretrain,
)
from dynaprompt.ndtensor import no_grad
from tests.conftest import traced_peak_mib


@pytest.fixture
def small_config(tiny_config):
    cfg = ModelConfig.from_dict({**tiny_config.to_dict(), "steps": 6,
                                 "finetune_steps": 4, "batch_size": 4,
                                 "checkpoint_every": 3, "corpus_pairs": 8,
                                 "corpus_concepts": 4, "concepts_per_pair": 1})
    return cfg


class TestRunPretrain:
    def test_zero_steps_checkpoint_equals_initialization(self, small_config, tmp_path):
        cfg = ModelConfig.from_dict({**small_config.to_dict(), "steps": 0})
        corpus = default_corpus(cfg)
        ckpt, metrics = run_pretrain(cfg, corpus, tmp_path)
        _, state = load_checkpoint(ckpt)
        model, pools, heads = build_model(cfg)
        init = gather_state(model, pools, heads)
        assert set(state) == set(init)
        for name in init:
            np.testing.assert_array_equal(state[name], init[name])

    def test_metrics_row_count_equals_steps(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        _, metrics = run_pretrain(small_config, corpus, tmp_path)
        rows = parse_pretrain_metrics(metrics)
        assert len(rows) == small_config.steps
        assert [r[0] for r in rows] == list(range(1, small_config.steps + 1))

    def test_metrics_rows_satisfy_recomposition(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        _, metrics = run_pretrain(small_config, corpus, tmp_path)
        for _, report, lr in parse_pretrain_metrics(metrics):
            assert report.check_recomposition(small_config.sigma,
                                              small_config.lambda_,
                                              small_config.beta)
            assert lr == small_config.lr

    def test_metrics_header_is_stable(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        _, metrics = run_pretrain(small_config, corpus, tmp_path)
        with open(metrics, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == METRICS_HEADER
        assert header == ["step", "l_mlm", "l_itm", "l_itc", "l_p", "l_total",
                          "masked_tokens", "lr"]

    def test_identical_runs_byte_identical_outputs(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ckpt_a, met_a = run_pretrain(small_config, corpus, out_a)
        ckpt_b, met_b = run_pretrain(small_config, corpus, out_b)
        assert open(ckpt_a, "rb").read() == open(ckpt_b, "rb").read()
        assert open(met_a, "rb").read() == open(met_b, "rb").read()

    def test_checkpoint_round_trip_forward_zero_ulps(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        batch = batch_from_pairs(corpus.pairs[:2], small_config, "image_text")

        _, state = load_checkpoint(ckpt)
        outs = []
        for _ in range(2):
            model, pools, heads = build_model(small_config)
            restore_state(state, model, pools, heads)
            with no_grad():
                states, _ = model.forward(batch, pools)
            outs.append(states.data.copy())
        np.testing.assert_array_equal(outs[0], outs[1])
        assert outs[0].tobytes() == outs[1].tobytes()


class TestRunFinetuneEval:
    def test_pair_classify_eval_holds_one_slice_of_activations(self,
                                                               tmp_path):
        # the 64 rows are encoded batch_size items at a time; all 64 in one
        # call peaked at 48.6 MiB, 8 at a time at 8.4 MiB
        config = ModelConfig()
        corpus = default_corpus(config)
        model, pools, _ = build_model(config)
        head = _task_head(config, "pair_classify", model)
        ckpt = tmp_path / "pair.ckpt"
        save_checkpoint(ckpt, config, gather_state(model, pools, head=head))
        peak = traced_peak_mib(
            lambda: run_eval(config, corpus, ckpt, "pair_classify", tmp_path))
        assert 2 * len(corpus) == 64
        assert peak < 16, f"{peak:.1f} MiB"

    def test_pair_classify_eval_selects_once_per_pool_per_slice(
            self, tmp_path, monkeypatch):
        # 64 rows in slices of 8: eight image-text passes, each selecting
        # from both pools over its whole slice at once
        config = ModelConfig()
        corpus = default_corpus(config)
        model, pools, _ = build_model(config)
        head = _task_head(config, "pair_classify", model)
        ckpt = tmp_path / "pair.ckpt"
        save_checkpoint(ckpt, config, gather_state(model, pools, head=head))
        rows = []
        select = encoder.select_prompts

        def spy(pool, queries, n_sel):
            rows.append(queries.shape[0])
            return select(pool, queries, n_sel)

        monkeypatch.setattr(encoder, "select_prompts", spy)
        run_eval(config, corpus, ckpt, "pair_classify", tmp_path)
        assert rows == [config.batch_size] * 16

    @staticmethod
    def _usage(path):
        _, state = load_checkpoint(path)
        return [state[f"pools.{m}.usage"] for m in ("visual", "textual")]

    def test_eval_counts_no_usage(self, small_config, tmp_path, monkeypatch):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        fckpt, _ = run_finetune(small_config, corpus, ckpt, "pair_classify",
                                tmp_path, steps=1)
        restored = []
        restore = harness.restore_state

        def spy(state, model, pools, *args, **kwargs):
            restore(state, model, pools, *args, **kwargs)
            restored.append((pools, [pools.visual.usage.copy(),
                                     pools.textual.usage.copy()]))

        monkeypatch.setattr(harness, "restore_state", spy)
        selections = []
        select = encoder.select_prompts
        monkeypatch.setattr(encoder, "select_prompts",
                            lambda *a: selections.append(1) or select(*a))
        run_eval(small_config, corpus, fckpt, "pair_classify", tmp_path)
        (pools, loaded), = restored
        assert selections and loaded[0].sum() > 0
        np.testing.assert_array_equal(pools.visual.usage, loaded[0])
        np.testing.assert_array_equal(pools.textual.usage, loaded[1])

    def test_frozen_pool_finetune_saves_backbone_usage(self, small_config,
                                                       tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path / "pre")
        frozen = ModelConfig.from_dict({**small_config.to_dict(),
                                        "freeze_pools": True})
        fckpt, _ = run_finetune(frozen, corpus, ckpt, "pair_classify",
                                tmp_path / "ft", steps=3)
        for before, after in zip(self._usage(ckpt), self._usage(fckpt)):
            assert before.sum() > 0
            np.testing.assert_array_equal(after, before)

    def test_trainable_finetune_counts_usage(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path / "pre")
        steps = 3
        fckpt, _ = run_finetune(small_config, corpus, ckpt, "pair_classify",
                                tmp_path / "ft", steps=steps)
        # each step selects n_sel entries per pool for each of its rows:
        # batch_size positives and as many rolled negatives
        rows = 2 * small_config.batch_size
        for before, after in zip(self._usage(ckpt), self._usage(fckpt)):
            assert after.sum() - before.sum() == steps * rows * small_config.n_sel

    def test_eval_twice_identical_metrics(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        fckpt, _ = run_finetune(small_config, corpus, ckpt, "vqa", tmp_path)
        m1, r1 = run_eval(small_config, corpus, fckpt, "vqa", tmp_path / "e1")
        m2, r2 = run_eval(small_config, corpus, fckpt, "vqa", tmp_path / "e2")
        assert r1 == r2
        assert open(m1, "rb").read() == open(m2, "rb").read()

    def test_single_item_retrieval_is_perfect(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        one = gen_corpus(CorpusSpec(
            n_pairs=1, n_concepts=2,
            patch_count=small_config.patch_count,
            patch_dim=small_config.patch_dim,
            text_len=small_config.max_text_len,
            vocab_size=small_config.vocab_size,
            concepts_per_pair=1), seed=5)
        fckpt, _ = run_finetune(small_config, one, ckpt, "retrieval",
                                tmp_path, steps=0)
        _, results = run_eval(small_config, one, fckpt, "retrieval", tmp_path)
        assert results["recall@1_i2t"] == 1.0
        assert results["recall@1_t2i"] == 1.0

    def test_checkpoint_without_pretraining_heads_finetunes(self, small_config,
                                                            tmp_path):
        # fine-tuning reads only the backbone; the MLM/ITM heads stay behind
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path / "pre")
        config, state = load_checkpoint(ckpt)
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(bare, config, {k: v for k, v in state.items()
                                       if not k.startswith("heads.")})
        assert len(load_checkpoint(bare)[1]) < len(state)
        full, _ = run_finetune(small_config, corpus, ckpt, "vqa",
                               tmp_path / "full")
        stripped, _ = run_finetune(small_config, corpus, bare, "vqa",
                                   tmp_path / "bare")
        assert open(full, "rb").read() == open(stripped, "rb").read()

    def test_unknown_task_rejected(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError):
            run_finetune(small_config, corpus, ckpt, "segmentation", tmp_path)

    def test_negative_steps_rejected_before_any_write(self, small_config,
                                                      tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path / "pre")
        from dynaprompt.config import ConfigError
        out = tmp_path / "ft"
        with pytest.raises(ConfigError, match="steps"):
            run_finetune(small_config, corpus, ckpt, "vqa", out, steps=-4)
        assert not out.exists()

    def test_geometry_mismatch_rejected(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        wrong = ModelConfig.from_dict({**small_config.to_dict(), "d_hidden": 32})
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError, match="geometry|lacks"):
            run_finetune(wrong, corpus, ckpt, "vqa", tmp_path)

    def test_head_count_mismatch_rejected(self, small_config, tmp_path):
        # same tensor shapes, different attention split
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        wrong = ModelConfig.from_dict({**small_config.to_dict(), "n_heads": 4})
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError, match="geometry.*n_heads 2 != 4"):
            run_finetune(wrong, corpus, ckpt, "vqa", tmp_path)
        # fields outside the geometry may differ
        other_lr = ModelConfig.from_dict({**small_config.to_dict(), "lr": 0.5})
        run_finetune(other_lr, corpus, ckpt, "vqa", tmp_path, steps=0)

    def test_shorter_layer_stack_rejected(self, small_config, tmp_path):
        # a one-layer model finds all of its tensors in a two-layer checkpoint
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        fckpt, _ = run_finetune(small_config, corpus, ckpt, "vqa", tmp_path,
                                steps=0)
        wrong = ModelConfig.from_dict({**small_config.to_dict(), "n_layers": 1})
        from dynaprompt.config import ConfigError
        for run in (lambda: run_finetune(wrong, corpus, ckpt, "vqa", tmp_path),
                    lambda: run_eval(wrong, corpus, fckpt, "vqa", tmp_path)):
            with pytest.raises(ConfigError, match="geometry.*n_layers 2 != 1"):
                run()

    def test_decoder_geometry_checked_where_decoder_restored(self, small_config,
                                                             tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        other = ModelConfig.from_dict({**small_config.to_dict(), "dec_heads": 4})
        # fine-tuning builds a fresh decoder, so its geometry is free
        fckpt, _ = run_finetune(other, corpus, ckpt, "generation", tmp_path,
                                steps=0)
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError, match="geometry.*dec_heads 4 != 2"):
            run_eval(small_config, corpus, fckpt, "generation", tmp_path)


class TestInspectPool:
    def test_writes_expected_csvs(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        files = inspect_pool(ckpt, tmp_path / "pools")
        names = {os.path.basename(f) for f in files}
        assert names == {"visual_keys.csv", "visual_usage.csv",
                         "visual_key_cosine.csv", "textual_keys.csv",
                         "textual_usage.csv", "textual_key_cosine.csv"}
        with open(tmp_path / "pools" / "visual_usage.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["entry", "count"]
        assert len(rows) == 1 + small_config.pool_size_v
        counts = np.array([int(r[1]) for r in rows[1:]])
        assert counts.sum() > 0  # training selected entries

    def test_cosine_matrix_diagonal_is_one(self, small_config, tmp_path):
        corpus = default_corpus(small_config)
        ckpt, _ = run_pretrain(small_config, corpus, tmp_path)
        inspect_pool(ckpt, tmp_path / "pools")
        with open(tmp_path / "pools" / "textual_key_cosine.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for i, row in enumerate(rows):
            assert float(row[1 + i]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name,damage,match", [
        ("pools.visual.usage", None, "lacks tensor 'pools.visual.usage'"),
        ("pools.textual.keys", None, "lacks tensor 'pools.textual.keys'"),
        ("pools.visual.keys", lambda keys: keys[:, :3],
         r"geometry mismatch for 'pools.visual.keys': \[8, 3\] vs \[8, 8\]"),
        ("pools.visual.usage", lambda u: np.where(np.arange(8) == 2, np.nan, u),
         "'pools.visual.usage' holds nan"),
        ("pools.textual.usage", lambda u: np.where(np.arange(8) == 0, -5.0, u),
         "'pools.textual.usage' holds -5.0"),
        ("pools.visual.usage", lambda u: np.where(np.arange(8) == 7, 2.5, u),
         "'pools.visual.usage' holds 2.5"),
    ], ids=["no_visual_usage", "no_textual_keys", "narrow_visual_keys",
            "nan_usage", "negative_usage", "fractional_usage"])
    def test_damaged_pool_tensor_is_config_error(self, tiny_config, tmp_path,
                                                 capsys, name, damage, match):
        state = gather_state(*build_model(tiny_config))
        if damage is None:
            del state[name]
        else:
            state[name] = damage(state[name])
        ckpt = tmp_path / "damaged.ckpt"
        save_checkpoint(ckpt, tiny_config, state)
        assert cli_main(["inspect-pool", "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "pools")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert re.search(match, err), err


class TestConfigTypes:
    @pytest.mark.parametrize("key, value", [("steps", 2.5), ("seed", 1.0),
                                            ("batch_size", True),
                                            ("n_layers", "2"),
                                            ("lr", False),
                                            ("freeze_pools", 1)])
    def test_wrong_type_rejected(self, small_config, key, value):
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict({**small_config.to_dict(), key: value})

    def test_float_field_takes_json_int(self, small_config):
        cfg = ModelConfig.from_json(json.dumps({**small_config.to_dict(),
                                                "lr": 1, "sigma": 0}))
        assert cfg.lr == 1 and cfg.sigma == 0

    @pytest.mark.parametrize("key, value", [
        ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
        ("temperature_init", math.nan), ("temperature_init", math.inf),
        ("sigma", math.nan), ("beta", -math.inf), ("lambda", math.nan),
        pytest.param("mask_rate", 10 ** 400, id="mask_rate-int-beyond-float")])
    def test_non_finite_float_rejected(self, small_config, key, value):
        from dynaprompt.config import ConfigError
        field = "lambda_" if key == "lambda" else key
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            ModelConfig.from_dict({**small_config.to_dict(), key: value})

    @pytest.mark.parametrize("extra", [{"lambda_": 0.3},
                                       {"lambda": 0.5, "lambda_": 0.3}],
                             ids=["lambda_", "lambda-and-lambda_"])
    def test_lambda_has_one_json_key(self, extra):
        """Only ``lambda`` names the contrastive weight in JSON; a second
        name for it must not silently win over the first."""
        from dynaprompt.config import ConfigError
        with pytest.raises(ConfigError, match="unknown config key: 'lambda_'"):
            ModelConfig.from_dict(extra)
        assert ModelConfig.from_dict({"lambda": 0.5}).lambda_ == 0.5

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity",
                                         "1e999"])
    def test_non_finite_json_float_rejected(self, small_config, literal):
        from dynaprompt.config import ConfigError
        text = small_config.to_json().replace('"lr": 0.001',
                                              f'"lr": {literal}')
        assert literal in text
        with pytest.raises(ConfigError, match="lr must be finite"):
            ModelConfig.from_json(text)


class TestCli:
    def _write_config(self, path, cfg):
        with open(path, "w") as fh:
            fh.write(cfg.to_json())
        return str(path)

    def test_missing_config_exits_one_naming_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["pretrain"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_flag_exits_one_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["pretrain", "--bogus"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["pretrain", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path)])
        assert code == 1
        assert "--config" in capsys.readouterr().err

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d_hiden": 32}))
        code = cli_main(["pretrain", "--config", str(path),
                         "--out", str(tmp_path)])
        assert code == 1

    def test_negative_seed_flag_is_config_error(self, small_config, tmp_path,
                                                capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        code = cli_main(["pretrain", "--config", cfg_path, "--seed", "-1",
                         "--out", str(tmp_path / "run")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_in_config_is_config_error(self, small_config,
                                                     tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**small_config.to_dict(), "seed": -3}))
        code = cli_main(["pretrain", "--config", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nan_lr_in_config_exits_one_before_any_write(self, small_config,
                                                         tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(small_config.to_json().replace('"lr": 0.001',
                                                       '"lr": NaN'))
        code = cli_main(["pretrain", "--config", str(path),
                         "--out", str(tmp_path / "run")])
        assert code == 1
        assert "lr must be finite" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("usage", ["missing", "length 3", "nan",
                                       "negative", "fractional"])
    def test_bad_usage_vector_in_checkpoint_exits_one(self, small_config,
                                                      tmp_path, usage, capsys):
        model, pools, _ = build_model(small_config)
        state = gather_state(model, pools)
        if usage == "missing":
            del state["pools.visual.usage"]
        elif usage == "length 3":
            state["pools.visual.usage"] = np.zeros(3)
        else:
            bad = {"nan": np.nan, "negative": -5.0, "fractional": 2.5}[usage]
            state["pools.visual.usage"][1] = bad
        ckpt = tmp_path / "bad.ckpt"
        save_checkpoint(ckpt, small_config, state)
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        out = tmp_path / "run"
        code = cli_main(["finetune", "--config", cfg_path, "--out", str(out),
                         "--checkpoint", str(ckpt), "--task", "vqa"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "pools.visual.usage" in err
        assert not (out / "finetune_vqa.ckpt").exists()

    def test_negative_finetune_steps_exits_one(self, small_config, tmp_path,
                                               capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        out = tmp_path / "run"
        assert cli_main(["pretrain", "--config", cfg_path,
                         "--out", str(out)]) == 0
        code = cli_main(["finetune", "--config", cfg_path, "--out", str(out),
                         "--checkpoint", str(out / "pretrain.ckpt"),
                         "--task", "vqa", "--steps", "-4"])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not (out / "finetune_vqa.ckpt").exists()
        assert not (out / "finetune_vqa_metrics.csv").exists()

    def test_pretrain_seed_override_repeats_byte_identical(self, small_config,
                                                           tmp_path, capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["pretrain", "--config", cfg_path, "--seed", "7",
                             "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert ((outs[0] / "pretrain.ckpt").read_bytes()
                == (outs[1] / "pretrain.ckpt").read_bytes())
        assert ((outs[0] / "pretrain_metrics.csv").read_bytes()
                == (outs[1] / "pretrain_metrics.csv").read_bytes())
        ckpt_cfg, _ = load_checkpoint(outs[0] / "pretrain.ckpt")
        assert ckpt_cfg.seed == 7

    def test_full_cli_pipeline(self, small_config, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        out = str(tmp_path / "run")
        assert cli_main(["pretrain", "--config", cfg_path, "--out", out]) == 0
        ckpt = os.path.join(out, "pretrain.ckpt")
        assert cli_main(["finetune", "--config", cfg_path, "--out", out,
                         "--checkpoint", ckpt, "--task", "pair_classify",
                         "--steps", "2"]) == 0
        fckpt = os.path.join(out, "finetune_pair_classify.ckpt")
        assert cli_main(["eval", "--config", cfg_path, "--out", out,
                         "--checkpoint", fckpt, "--task", "pair_classify"]) == 0
        assert cli_main(["inspect-pool", "--checkpoint", ckpt,
                         "--out", out]) == 0
        assert cli_main(["gen-corpus", "--config", cfg_path,
                         "--out", out, "--pairs", "3"]) == 0
        corpus_path = os.path.join(out, "corpus.json")
        assert os.path.exists(corpus_path)
        doc = json.loads(open(corpus_path).read())
        assert len(doc["pairs"]) == 3

    def test_gradcheck_reduced_sweep_exits_zero(self, capsys):
        assert cli_main(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "combined_loss" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_gradcheck_without_seeds_is_config_error(self, seeds, capsys):
        assert cli_main(["gradcheck", "--seeds", seeds]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
    def test_gradcheck_tolerance_not_finite_positive_is_config_error(
            self, tol, capsys):
        assert cli_main(["gradcheck", "--seeds", "1", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err and "--tol" in captured.err
        assert captured.out == ""

    def test_gen_corpus_without_pairs_is_config_error(self, small_config,
                                                      tmp_path, capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        out = tmp_path / "corpus"
        code = cli_main(["gen-corpus", "--config", cfg_path,
                         "--out", str(out), "--pairs", "-3"])
        assert code == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_checkpoint_is_io_error(self, small_config, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path / "c.json", small_config)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"UDCPCKPTgarbage")
        code = cli_main(["eval", "--config", cfg_path, "--out", str(tmp_path),
                         "--checkpoint", str(bad), "--task", "vqa"])
        assert code == 3
