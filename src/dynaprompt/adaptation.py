"""Task adaptation: classification heads, retrieval ranking, caption decoding.

Every task reuses the pre-trained backbone with dynamic prompt selection
exactly as in pre-training; uni-modal batches take the contrary-modality
prompt path.  Heads start with zero output layers so an untrained classifier
emits a uniform distribution.  The caption decoder is a causal self-attention
stack without cross-attention: encoder image states concatenated with the
selected textual prompt tokens form its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import BOS_ID, EOS_ID, PAD_ID, ConfigError, ModelConfig
from .encoder import (KVCache, TransformerLayer, UnifiedBatch,
                      VisionLanguageModel, sequence_layout)
from .ndtensor import ShapeError, Tensor, backward, no_grad, ops
from .objectives import itc_loss
from .optim import AdamW
from .pools import PromptPools

__all__ = [
    "TASKS", "CLASSIFY_KIND", "TaskHead", "CaptionDecoder", "LabeledBatch",
    "CaptionBatch", "RetrievalResult", "classify", "finetune_loss",
    "finetune_step", "retrieval_rank", "generate_report", "caption_loss",
    "encode_retrieval_reps",
]

# Each classification task and the batch kind its head reads: image_text
# heads see both [CLS] states, the others the one their modality provides.
CLASSIFY_KIND = {
    "vqa": "image_text",
    "pair_classify": "image_text",
    "image_classify": "image_only",
    "text_classify": "text_only",
}

TASKS = (*CLASSIFY_KIND, "retrieval", "generation")


@dataclass
class LabeledBatch:
    batch: UnifiedBatch
    labels: np.ndarray  # int [B]


@dataclass
class CaptionBatch:
    batch: UnifiedBatch          # image_only
    captions: list[list[int]]    # target token ids, no BOS/EOS


class CaptionDecoder:
    """Causal prefix LM over the shared hidden width; it has no
    cross-attention, the image reaches it only through the prefix.

    ``dec_layers``, ``dec_heads`` and ``dec_context`` of the model config fix
    its geometry.  Self-attention layers are initialized from the unified
    encoder's layers where shapes permit (same hidden width / head count);
    token and position tables are decoder-owned because the encoder's text
    embedding lives in a different width.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator,
                 encoder_layers: list[TransformerLayer] | None = None):
        self.context_len = config.dec_context
        self.d_hidden = config.d_hidden
        self.vocab_size = config.vocab_size
        self.token_table = Tensor(
            rng.normal(0.0, 0.02, size=(self.vocab_size, self.d_hidden)),
            requires_grad=True)
        self.pos_table = Tensor(
            rng.normal(0.0, 0.02, size=(self.context_len, self.d_hidden)),
            requires_grad=True)
        self.layers = [TransformerLayer(self.d_hidden, config.dec_heads, rng)
                       for _ in range(config.dec_layers)]
        self.out_w = Tensor(np.zeros((self.d_hidden, self.vocab_size)),
                            requires_grad=True)
        self.out_b = Tensor(np.zeros(self.vocab_size), requires_grad=True)
        if encoder_layers:
            for mine, theirs in zip(self.layers, encoder_layers):
                for name, src in theirs.parameters("").items():
                    dst = getattr(mine, name)
                    if dst.shape == src.shape:
                        dst.data[...] = src.data

    def parameters(self, prefix: str = "decoder.") -> dict[str, Tensor]:
        out = {f"{prefix}token_table": self.token_table,
               f"{prefix}pos_table": self.pos_table,
               f"{prefix}out_w": self.out_w,
               f"{prefix}out_b": self.out_b}
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}layers.{i}."))
        return out

    def forward_states(self, prefix_states: Tensor, token_ids: np.ndarray,
                       cache: list[KVCache] | None = None) -> Tensor:
        """Logits [B, T, vocab] for each token position (strictly causal).

        With ``cache`` (one ``KVCache`` per layer) the prefix and tokens
        continue the sequence the cache holds: they take the next positions,
        attend over the cached ones too, and their keys and values are
        appended.  An incremental step passes a [B, 0, d_hidden] prefix.
        """
        b, p, h = prefix_states.shape
        token_ids = np.asarray(token_ids)
        t = token_ids.shape[1]
        start = len(cache[0]) if cache else 0
        total = start + p + t
        if total > self.context_len:
            raise ConfigError(f"sequence {total} overflows decoder context "
                              f"{self.context_len}")
        tok = ops.embedding_lookup(self.token_table, token_ids)
        pos = ops.gather_rows(self.pos_table, np.arange(start, total))
        x = ops.add(ops.concat([prefix_states, tok], axis=1), pos)
        causal = np.where(np.tril(np.ones((p + t, total), dtype=bool), k=start),
                          0.0, -1e30)[None, None]
        caches = cache or [None] * len(self.layers)
        last = len(self.layers) - 1
        for i, (layer, layer_cache) in enumerate(zip(self.layers, caches)):
            x = layer.forward(x, causal, layer_cache,
                              rows=(slice(p, p + t),) if i == last else None)
        # the last layer may have kept only the token rows
        token_states = ops.slice_axis(x, 1, x.shape[1] - t, x.shape[1])
        return ops.linear(token_states, self.out_w, self.out_b)


class TaskHead:
    """Trainable task-specific parameters over the shared encoder output."""

    def __init__(self, task: str, config: ModelConfig,
                 label_space: int | None = None,
                 decoder: CaptionDecoder | None = None):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}")
        self.task = task
        self.label_space = label_space
        self.decoder = decoder
        self.params: dict[str, Tensor] = {}
        h = config.d_hidden
        if task in CLASSIFY_KIND:
            if not label_space or label_space < 1:
                raise ConfigError(f"{task} needs a positive label_space")
            d_in = 2 * h if CLASSIFY_KIND[task] == "image_text" else h
            self.params["w"] = Tensor(np.zeros((d_in, label_space)),
                                      requires_grad=True)
            self.params["b"] = Tensor(np.zeros(label_space), requires_grad=True)
        elif task == "retrieval":
            self.params["proj_v"] = Tensor(np.eye(h), requires_grad=True)
            self.params["proj_t"] = Tensor(np.eye(h), requires_grad=True)
        elif task == "generation" and decoder is None:
            raise ConfigError("generation needs a CaptionDecoder")

    def parameters(self, prefix: str = "head.") -> dict[str, Tensor]:
        out = {f"{prefix}{k}": v for k, v in self.params.items()}
        if self.decoder is not None:
            out.update(self.decoder.parameters(f"{prefix}decoder."))
        return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _classify_logits(model, pools, batch: UnifiedBatch, head: TaskHead) -> Tensor:
    """Head logits [B, label_space] from the [CLS] state(s) of the task's kind."""
    kind = CLASSIFY_KIND.get(head.task)
    if kind is None:
        raise ConfigError(f"task {head.task!r} is not a classification task")
    if batch.kind != kind:
        raise ConfigError(f"task {head.task!r} needs {kind!r} batches, "
                          f"got {batch.kind!r}")
    rows = sequence_layout(kind, model.config).cls_rows()
    encoded, _ = model.forward(batch, pools, rows=rows)
    if kind == "image_text":
        feats = ops.concat([encoded.cls_visual, encoded.cls_textual], axis=1)
    elif kind == "image_only":
        feats = encoded.cls_visual
    else:
        feats = encoded.cls_textual
    return ops.linear(feats, head.params["w"], head.params["b"])


def classify(model: VisionLanguageModel, pools: PromptPools,
             batch: UnifiedBatch, head: TaskHead) -> Tensor:
    """Label distribution [B, label_space] from the appropriate [CLS] state(s)."""
    return ops.softmax(_classify_logits(model, pools, batch, head), axis=-1)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

@dataclass
class RetrievalResult:
    i2t_ranking: np.ndarray          # [N_i, N_t] text indices, best first
    t2i_ranking: np.ndarray          # [N_t, N_i]
    recall: dict = field(default_factory=dict)  # ("i2t"|"t2i", k) -> float


def retrieval_rank(image_reps: np.ndarray, text_reps: np.ndarray,
                   pairing: np.ndarray | None = None,
                   ks: tuple[int, ...] = (1, 5, 10)) -> RetrievalResult:
    """Cosine ranking in both directions with recall at each k.

    ``pairing[i]`` is the index of the text matching image ``i`` (identity by
    default, in which case both counts must agree).  Ties rank the lower
    index first.
    """
    image_reps = np.asarray(image_reps, dtype=np.float64)
    text_reps = np.asarray(text_reps, dtype=np.float64)
    ni, nt = image_reps.shape[0], text_reps.shape[0]
    if ni < 1 or nt < 1:
        raise ShapeError("retrieval needs at least one candidate per side")
    if max(ks) > max(ni, nt):
        raise ConfigError(f"recall k {max(ks)} exceeds candidate count")
    pairing = np.arange(ni) if pairing is None else np.asarray(pairing)
    if pairing.shape != (ni,):
        raise ShapeError(f"pairing must have shape [{ni}]")

    def unit(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        n[n == 0.0] = 1.0
        return x / n

    sims = unit(image_reps) @ unit(text_reps).T
    i2t = np.argsort(-sims, axis=1, kind="stable")
    t2i = np.argsort(-sims.T, axis=1, kind="stable")

    recall = {}
    inverse = np.empty(nt, dtype=np.int64)
    inverse[pairing] = np.arange(ni)
    for k in ks:
        if k <= nt:
            hits = np.count_nonzero(np.any(i2t[:, :k] == pairing[:, None], axis=1))
            recall[("i2t", k)] = int(hits) / ni
        if k <= ni:
            hits = np.count_nonzero(np.any(t2i[:, :k] == inverse[:, None], axis=1))
            recall[("t2i", k)] = int(hits) / nt
    return RetrievalResult(i2t_ranking=i2t, t2i_ranking=t2i, recall=recall)


def encode_retrieval_reps(model, pools, image_batch: UnifiedBatch,
                          text_batch: UnifiedBatch, head: TaskHead
                          ) -> tuple[Tensor, Tensor]:
    def cls_rows(batch):
        return sequence_layout(batch.kind, model.config).cls_rows()

    enc_v, _ = model.forward(image_batch, pools, rows=cls_rows(image_batch))
    enc_t, _ = model.forward(text_batch, pools, rows=cls_rows(text_batch))
    return (ops.matmul(enc_v.cls_visual, head.params["proj_v"]),
            ops.matmul(enc_t.cls_textual, head.params["proj_t"]))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _image_prefix(model, pools, batch: UnifiedBatch):
    """Encoder image states ([CLS_v] + patches) plus raw prompt tokens."""
    image_stop = sequence_layout(batch.kind, model.config).patches.stop
    encoded, unified = model.forward(batch, pools,
                                     rows=(slice(0, image_stop),))
    image_states = ops.slice_axis(encoded.token_states, 1, 0, image_stop)
    return ops.concat([image_states, unified.prompt_tokens], axis=1)


def caption_loss(model, pools, decoder: CaptionDecoder,
                 cbatch: CaptionBatch) -> Tensor:
    """Teacher-forced next-token cross-entropy over caption positions."""
    prefix = _image_prefix(model, pools, cbatch.batch)
    b = len(cbatch.captions)
    t = max(len(c) for c in cbatch.captions) + 1  # room for EOS target
    inputs = np.full((b, t), PAD_ID, dtype=np.int64)
    targets = np.full((b, t), -1, dtype=np.int64)
    for i, cap in enumerate(cbatch.captions):
        inputs[i, 0] = BOS_ID
        inputs[i, 1:len(cap) + 1] = cap
        targets[i, :len(cap)] = cap
        targets[i, len(cap)] = EOS_ID
    logits = decoder.forward_states(prefix, inputs)
    flat_targets = targets.reshape(-1)
    picked = np.nonzero(flat_targets >= 0)[0]
    flat = ops.reshape(logits, (b * t, decoder.vocab_size))
    return ops.cross_entropy(ops.gather_rows(flat, picked), flat_targets[picked])


def generate_report(model, pools, decoder: CaptionDecoder,
                    batch: UnifiedBatch, max_len: int) -> list[list[int]]:
    """Greedy causal decoding of all rows together; a row stops at the end
    token or after ``max_len`` tokens.

    The prefix and [BOS] go through the decoder once; each later step feeds
    only the B tokens just chosen, over the per-layer key/value cache.
    """
    with no_grad():
        prefix = _image_prefix(model, pools, batch)
        b, p, h = prefix.shape
        if p + 1 + max_len > decoder.context_len:
            raise ConfigError(f"prefix {p} + generation {max_len} overflows "
                              f"decoder context {decoder.context_len}")
        cache = [KVCache() for _ in decoder.layers]
        tokens = np.zeros((b, max_len), dtype=np.int64)
        lengths = np.zeros(b, dtype=np.int64)
        running = np.ones(b, dtype=bool)
        feed = np.full((b, 1), BOS_ID, dtype=np.int64)
        for step in range(max_len):
            logits = decoder.forward_states(prefix, feed, cache)
            nxt = np.argmax(logits.data[:, -1], axis=-1)
            running &= nxt != EOS_ID
            if not running.any():
                break
            tokens[running, step] = nxt[running]
            lengths += running
            prefix = Tensor(np.empty((b, 0, h)))
            feed = nxt[:, None]
    return [row[:n].tolist() for row, n in zip(tokens, lengths)]


# ---------------------------------------------------------------------------
# fine-tuning step
# ---------------------------------------------------------------------------

def finetune_loss(model, pools, head: TaskHead, tbatch, config: ModelConfig) -> Tensor:
    """Frozen-forward evaluation of a task batch (no parameter update)."""
    if head.task in CLASSIFY_KIND:
        logits = _classify_logits(model, pools, tbatch.batch, head)
        return ops.cross_entropy(logits, tbatch.labels)
    if head.task == "retrieval":
        image_batch, text_batch = tbatch
        v, t = encode_retrieval_reps(model, pools, image_batch, text_batch, head)
        return itc_loss(v, t, config.temperature_init)
    if head.task == "generation":
        return caption_loss(model, pools, head.decoder, tbatch)
    raise ConfigError(f"unknown task {head.task!r}")


def finetune_step(tbatch, model, pools, head: TaskHead, optimizer: AdamW,
                  config: ModelConfig) -> float:
    """One adaptation update; returns the pre-update loss value."""
    optimizer.zero_grad()
    loss = finetune_loss(model, pools, head, tbatch, config)
    backward(loss)
    optimizer.step()
    return loss.item()
