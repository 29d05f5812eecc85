"""Training/evaluation loops, batching, metrics files, state (re)assembly.

Everything here is seeded and order-deterministic: identical (config, seed)
inputs produce byte-identical checkpoints and metrics files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .adaptation import (
    CLASSIFY_KIND,
    TASKS,
    CaptionBatch,
    CaptionDecoder,
    LabeledBatch,
    TaskHead,
    classify,
    encode_retrieval_reps,
    finetune_step,
    generate_report,
    retrieval_rank,
)
from .bleu import bleu
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, ModelConfig, PAD_ID
from .corpus import CorpusSpec, SyntheticCorpus, gen_corpus
from .encoder import UnifiedBatch, VisionLanguageModel
from .ndtensor import no_grad
from .objectives import PretrainHeads, PretrainLossReport, pretrain_step
from .optim import AdamW
from .pools import PromptPools

__all__ = [
    "build_model", "gather_state", "restore_state", "batch_from_pairs",
    "run_pretrain", "run_finetune", "run_eval", "inspect_pool",
    "MetricsWriter", "parse_pretrain_metrics", "METRICS_HEADER",
]

METRICS_HEADER = ["step", "l_mlm", "l_itm", "l_itc", "l_p", "l_total",
                  "masked_tokens", "lr"]

EVAL_HEADER = ["task", "metric", "value"]


# ---------------------------------------------------------------------------
# model construction and checkpoint state
# ---------------------------------------------------------------------------

def _backbone(config: ModelConfig):
    """Seed-deterministic model and pools, plus the generator the
    pre-training heads draw from."""
    ss = np.random.SeedSequence(config.seed)
    r_model, r_pools, r_heads = (np.random.default_rng(s) for s in ss.spawn(3))
    return VisionLanguageModel(config, r_model), PromptPools(config, r_pools), r_heads


def build_model(config: ModelConfig):
    """Seed-deterministic (model, pools, heads) triple."""
    model, pools, r_heads = _backbone(config)
    return model, pools, PretrainHeads(config, r_heads)


def gather_state(model, pools, heads=None, head: TaskHead | None = None
                 ) -> dict[str, np.ndarray]:
    """Snapshot every tensor (copied) plus pool usage counters."""
    params = {}
    params.update(model.parameters())
    params.update(pools.parameters())
    if heads is not None:
        params.update(heads.parameters())
    if head is not None:
        params.update(head.parameters())
    state = {name: p.data.copy() for name, p in params.items()}
    state["pools.visual.usage"] = pools.visual.usage.astype(np.float64)
    state["pools.textual.usage"] = pools.textual.usage.astype(np.float64)
    return state


def restore_state(state: dict[str, np.ndarray], model, pools, heads=None,
                  head: TaskHead | None = None):
    """Load a snapshot back into live objects; geometry must match."""
    params = {}
    params.update(model.parameters())
    params.update(pools.parameters())
    if heads is not None:
        params.update(heads.parameters())
    if head is not None:
        params.update(head.parameters())
    for name, p in params.items():
        if name not in state:
            raise ConfigError(f"checkpoint lacks tensor {name!r}")
        arr = state[name]
        if arr.shape != p.data.shape:
            raise ConfigError(f"checkpoint geometry mismatch for {name!r}: "
                              f"{list(arr.shape)} vs {list(p.data.shape)}")
        p.data[...] = arr
    pools.visual.usage[...] = state["pools.visual.usage"].astype(np.int64)
    pools.textual.usage[...] = state["pools.textual.usage"].astype(np.int64)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _pad_tokens(pairs, config) -> np.ndarray:
    ids = np.full((len(pairs), config.max_text_len), PAD_ID, dtype=np.int64)
    for i, pair in enumerate(pairs):
        n = min(len(pair.tokens), config.max_text_len)
        ids[i, :n] = pair.tokens[:n]
    return ids


def batch_from_pairs(pairs, config: ModelConfig, kind: str) -> UnifiedBatch:
    token_ids = _pad_tokens(pairs, config) if kind != "image_only" else None
    patches = (np.stack([p.patches for p in pairs])
               if kind != "text_only" else None)
    return UnifiedBatch(kind=kind, token_ids=token_ids, patch_features=patches)


def _itm_eval_batch(pairs, config):
    """Positives plus rolled negatives (image i, text i+1 mod N) with 1/0
    labels."""
    ids = _pad_tokens(pairs, config)
    token_ids = np.concatenate([ids, np.roll(ids, -1, axis=0)])
    patches = np.concatenate([np.stack([p.patches for p in pairs])] * 2)
    batch = UnifiedBatch(kind="image_text", token_ids=token_ids,
                         patch_features=patches)
    labels = np.concatenate([np.ones(len(pairs), dtype=np.int64),
                             np.zeros(len(pairs), dtype=np.int64)])
    return LabeledBatch(batch, labels)


def _labeled_batch(pairs, config, task):
    if task == "pair_classify":
        return _itm_eval_batch(pairs, config)
    labels = np.array([p.answer_label if task == "vqa" else p.class_label
                       for p in pairs], dtype=np.int64)
    return LabeledBatch(batch_from_pairs(pairs, config, CLASSIFY_KIND[task]),
                        labels)


def _caption_batch(pairs, config):
    captions = [[int(t) for t in p.tokens[:config.max_gen_len]] for p in pairs]
    return CaptionBatch(batch_from_pairs(pairs, config, "image_only"), captions)


def _task_batch(pairs, config, task):
    if task == "retrieval":
        return (batch_from_pairs(pairs, config, "image_only"),
                batch_from_pairs(pairs, config, "text_only"))
    if task == "generation":
        return _caption_batch(pairs, config)
    return _labeled_batch(pairs, config, task)


# ---------------------------------------------------------------------------
# metrics files
# ---------------------------------------------------------------------------

class MetricsWriter:
    """Stable-schema CSV; floats via repr so rows parse back bit-exactly."""

    def __init__(self, path, header):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(header)

    def write_row(self, row):
        self._writer.writerow(row)

    def write_pretrain_row(self, step: int, report: PretrainLossReport, lr: float):
        self.write_row([step, repr(report.l_mlm), repr(report.l_itm),
                        repr(report.l_itc), repr(report.l_p),
                        repr(report.l_total), report.masked_token_count,
                        repr(lr)])

    def write_eval_row(self, task: str, metric: str, value: float):
        self.write_row([task, metric, repr(float(value))])

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def parse_pretrain_metrics(path) -> list[tuple[int, PretrainLossReport, float]]:
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != METRICS_HEADER:
            raise ConfigError(f"unexpected metrics header {header}")
        for rec in reader:
            step = int(rec[0])
            report = PretrainLossReport(
                l_mlm=float(rec[1]), l_itm=float(rec[2]), l_itc=float(rec[3]),
                l_p=float(rec[4]), l_total=float(rec[5]),
                masked_token_count=int(rec[6]))
            rows.append((step, report, float(rec[7])))
    return rows


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------

def _batch_order(n_items: int, batch_size: int, steps: int,
                 rng: np.random.Generator):
    """Seeded shuffle, rebuilt each epoch, yielding index slices per step."""
    produced = 0
    while produced < steps:
        order = rng.permutation(n_items)
        for start in range(0, n_items - batch_size + 1, batch_size):
            if produced == steps:
                return
            yield order[start:start + batch_size]
            produced += 1


def run_pretrain(config: ModelConfig, corpus: SyntheticCorpus, out_dir):
    """Fixed-step pre-training; returns (checkpoint_path, metrics_path)."""
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, "pretrain.ckpt")
    metrics_path = os.path.join(out_dir, "pretrain_metrics.csv")

    model, pools, heads = build_model(config)
    params = {**model.parameters(), **pools.parameters(), **heads.parameters()}
    optimizer = AdamW(params, lr=config.lr, weight_decay=config.weight_decay)

    ss = np.random.SeedSequence([config.seed, 1])
    shuffle_rng, mlm_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    batch_size = min(config.batch_size, len(corpus))
    if batch_size < 2 and config.steps > 0:
        raise ConfigError("pre-training needs batches of at least 2 pairs")

    save_checkpoint(ckpt_path, config, gather_state(model, pools, heads))
    with MetricsWriter(metrics_path, METRICS_HEADER) as writer:
        step = 0
        for idx in _batch_order(len(corpus), batch_size, config.steps,
                                shuffle_rng):
            batch = batch_from_pairs([corpus.pairs[i] for i in idx], config,
                                     "image_text")
            # a NumericError propagates; the last-good checkpoint stays on disk
            report = pretrain_step(batch, model, pools, heads, optimizer,
                                   config, mlm_rng)
            step += 1
            writer.write_pretrain_row(step, report, config.lr)
            if config.checkpoint_every and step % config.checkpoint_every == 0:
                save_checkpoint(ckpt_path, config,
                                gather_state(model, pools, heads))
        save_checkpoint(ckpt_path, config, gather_state(model, pools, heads))
    return ckpt_path, metrics_path


# Config fields that fix the backbone's tensors and how it reads them; the
# dec_* fields fix a caption decoder's.
_GEOMETRY = ("d_text", "d_vision", "d_hidden", "n_layers", "n_heads",
             "vocab_size", "max_text_len", "patch_count", "patch_dim",
             "pool_size_v", "pool_size_t", "prompt_len_v", "prompt_len_t",
             "n_sel")
_DECODER_GEOMETRY = ("dec_layers", "dec_heads", "dec_context")


def _load_matching(config: ModelConfig, checkpoint_path, decoder: bool = False):
    """Read a checkpoint's tensors after checking that the geometry stored
    with them equals ``config``'s; shapes alone miss a changed head count or
    a shorter layer stack."""
    stored, state = load_checkpoint(checkpoint_path)
    keys = _GEOMETRY + (_DECODER_GEOMETRY if decoder else ())
    diff = [f"{k} {getattr(stored, k)} != {getattr(config, k)}"
            for k in keys if getattr(stored, k) != getattr(config, k)]
    if diff:
        raise ConfigError("checkpoint geometry mismatch (stored != given): "
                          + ", ".join(diff))
    return state


def _task_head(config: ModelConfig, task: str, model) -> TaskHead:
    """The seeded head for ``task``; a caption decoder starts from the
    encoder's layers."""
    decoder = None
    if task == "generation":
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
        decoder = CaptionDecoder(config, rng, encoder_layers=model.layers)
    label_space = 2 if task == "pair_classify" else config.corpus_concepts
    return TaskHead(task, config, label_space=label_space, decoder=decoder)


def run_finetune(config: ModelConfig, corpus: SyntheticCorpus, checkpoint_path,
                 task: str, out_dir, steps: int | None = None):
    """Adapt a pre-trained checkpoint to one task; returns (ckpt, metrics)."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(out_dir, f"finetune_{task}.ckpt")
    metrics_path = os.path.join(out_dir, f"finetune_{task}_metrics.csv")

    state = _load_matching(config, checkpoint_path)
    model, pools, _ = _backbone(config)
    restore_state(state, model, pools)
    head = _task_head(config, task, model)

    if config.freeze_backbone:
        # frozen backbone means only head parameters may change, pools included
        model.set_trainable(False)
    if config.freeze_pools or config.freeze_backbone:
        for p in pools.parameters().values():
            p.requires_grad = False

    trainable = {**head.parameters()}
    if not config.freeze_backbone:
        trainable.update(model.parameters())
    if not config.freeze_pools and not config.freeze_backbone:
        trainable.update(pools.parameters())
    optimizer = AdamW(trainable, lr=config.lr, weight_decay=config.weight_decay)

    steps = config.finetune_steps if steps is None else steps
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 3]))
    batch_size = min(config.batch_size, len(corpus))

    with MetricsWriter(metrics_path, ["step", "loss"]) as writer:
        step = 0
        for idx in _batch_order(len(corpus), batch_size, steps, shuffle_rng):
            tb = _task_batch([corpus.pairs[i] for i in idx], config, task)
            loss = finetune_step(tb, model, pools, head, optimizer, config)
            step += 1
            writer.write_row([step, repr(loss)])
    save_checkpoint(ckpt_path, config,
                    gather_state(model, pools, heads=None, head=head))
    return ckpt_path, metrics_path


def _eval_classification(model, pools, head, corpus, config, task):
    tb = _labeled_batch(corpus.pairs, config, task)
    with no_grad():
        probs = classify(model, pools, tb.batch, head)
    predicted = np.argmax(probs.data, axis=1)
    return float(np.mean(predicted == tb.labels))


def run_eval(config: ModelConfig, corpus: SyntheticCorpus, checkpoint_path,
             task: str, out_dir):
    """Evaluate a fine-tuned checkpoint; writes task metrics CSV."""
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, f"eval_{task}_metrics.csv")

    state = _load_matching(config, checkpoint_path,
                           decoder=task == "generation")
    model, pools, _ = _backbone(config)
    head = _task_head(config, task, model)
    restore_state(state, model, pools, heads=None, head=head)

    results: list[tuple[str, float]] = []
    if task in CLASSIFY_KIND:
        acc = _eval_classification(model, pools, head, corpus, config, task)
        results.append(("accuracy", acc))
    elif task == "retrieval":
        img = batch_from_pairs(corpus.pairs, config, "image_only")
        txt = batch_from_pairs(corpus.pairs, config, "text_only")
        with no_grad():
            v, t = encode_retrieval_reps(model, pools, img, txt, head)
        ks = tuple(k for k in (1, 5, 10) if k <= len(corpus))
        ranking = retrieval_rank(v.data, t.data, ks=ks)
        for (direction, k), value in sorted(ranking.recall.items()):
            results.append((f"recall@{k}_{direction}", value))
    elif task == "generation":
        cb = _caption_batch(corpus.pairs, config)
        outputs = generate_report(model, pools, head.decoder, cb.batch,
                                  max_len=config.max_gen_len)
        exact = np.mean([out == cap for out, cap in zip(outputs, cb.captions)])
        scores = [bleu(out, cap).cumulative if out else (0.0, 0.0, 0.0, 0.0)
                  for out, cap in zip(outputs, cb.captions)]
        bleu1 = np.mean([s[0] for s in scores])
        bleu4 = np.mean([s[3] for s in scores])
        results += [("exact_match", float(exact)), ("bleu1", float(bleu1)),
                    ("bleu4", float(bleu4))]
        pred_path = os.path.join(out_dir, "eval_generation_predictions.jsonl")
        with open(pred_path, "w", encoding="utf-8") as fh:
            for i, (out, cap) in enumerate(zip(outputs, cb.captions)):
                fh.write(json.dumps({"index": i,
                                     "prediction": [int(t) for t in out],
                                     "reference": [int(t) for t in cap]}) + "\n")
    else:
        raise ConfigError(f"unknown task {task!r}")

    with MetricsWriter(metrics_path, EVAL_HEADER) as writer:
        for metric, value in results:
            writer.write_eval_row(task, metric, value)
    return metrics_path, dict(results)


# ---------------------------------------------------------------------------
# pool inspection
# ---------------------------------------------------------------------------

def inspect_pool(checkpoint_path, out_dir) -> list[str]:
    """Dump keys, usage histogram and pairwise key cosines to CSV files."""
    os.makedirs(out_dir, exist_ok=True)
    config, state = load_checkpoint(checkpoint_path)
    written = []
    for modality in ("visual", "textual"):
        keys = state[f"pools.{modality}.keys"]
        usage = state[f"pools.{modality}.usage"].astype(np.int64)
        unit = keys / np.linalg.norm(keys, axis=1, keepdims=True)
        cosine = unit @ unit.T

        keys_path = os.path.join(out_dir, f"{modality}_keys.csv")
        with open(keys_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entry"] + [f"k{j}" for j in range(keys.shape[1])])
            for i, row in enumerate(keys):
                writer.writerow([i] + [repr(float(x)) for x in row])

        usage_path = os.path.join(out_dir, f"{modality}_usage.csv")
        with open(usage_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entry", "count"])
            for i, count in enumerate(usage):
                writer.writerow([i, int(count)])

        cos_path = os.path.join(out_dir, f"{modality}_key_cosine.csv")
        with open(cos_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entry"] + [str(j) for j in range(len(cosine))])
            for i, row in enumerate(cosine):
                writer.writerow([i] + [repr(float(x)) for x in row])
        written += [keys_path, usage_path, cos_path]
    return written


def default_corpus(config: ModelConfig, seed: int | None = None) -> SyntheticCorpus:
    return gen_corpus(CorpusSpec.from_model_config(config),
                      config.seed if seed is None else seed)
