"""Modality embedding, prompt-based input unification, shared transformer stack.

Any input kind is assembled into one token sequence in the shared hidden
space:

    image_only : [CLS_v] | patches           | textual-pool prompts
    text_only  : visual-pool prompts          | [CLS_t] | text tokens
    image_text : [CLS_v] | patches | visual-pool prompts |
                 textual-pool prompts | [CLS_t] | text tokens

Single-modality inputs borrow prompts from the contrary pool (selected via a
cross-modal query projection) so the encoder always sees both kinds of
context; paired inputs take same-modality prompts.  Role embeddings tag each
prompt block with the context it serves.  The encoder itself is a pre-norm
multi-head self-attention stack; masked positions receive a large negative
attention logit whose probability underflows to exactly zero, so they cannot
influence any visible output.

Callers name the positions whose final states they read (``rows``).  When no
tape is recording, the last layer computes its queries, attention output and
feed-forward block only at those rows; its keys and values still cover every
position, so each kept row equals the full pass's row up to float rounding.
A recording tape runs every position as before: pruning there would reorder
the weight-gradient sums of training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ModelConfig, PAD_ID
from .ndtensor import NumericError, ShapeError, Tensor, grad_enabled, ops
from .pools import (
    IntegrityError,
    PromptPools,
    RoleTag,
    SelectionResult,
    assemble_prompt_tokens,
    cross_query,
    query_fn,
    select_prompts,
)

__all__ = ["UnifiedBatch", "EncodedBatch", "SequenceLayout", "KVCache",
           "VisionLanguageModel", "sequence_layout", "assembled_attention_mask"]

KINDS = ("image_only", "text_only", "image_text")

# Finite stand-in for -inf: exp(x - rowmax) underflows to exactly 0.0 for
# masked keys while fully-padded query rows still produce finite softmax rows.
MASK_LOGIT = -1e30


@dataclass
class UnifiedBatch:
    """One batch of inputs tagged by modality combination.  The attention
    mask of its assembled sequence follows from these fields (see
    ``assembled_attention_mask``)."""

    kind: str
    token_ids: np.ndarray | None = None          # int [B, L_t]
    patch_features: np.ndarray | None = None     # f64 [B, L_v, patch_dim]

    def validate(self, config: ModelConfig):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown batch kind {self.kind!r}")
        needs_text = self.kind in ("text_only", "image_text")
        needs_image = self.kind in ("image_only", "image_text")
        if needs_text != (self.token_ids is not None):
            raise ConfigError(f"kind {self.kind!r} and token_ids presence disagree")
        if needs_image != (self.patch_features is not None):
            raise ConfigError(f"kind {self.kind!r} and patch_features presence disagree")
        if self.token_ids is not None:
            if self.token_ids.ndim != 2 or self.token_ids.shape[1] != config.max_text_len:
                raise ShapeError(f"token_ids must be [B, {config.max_text_len}], "
                                 f"got {list(self.token_ids.shape)}")
            if self.token_ids.min() < 0 or self.token_ids.max() >= config.vocab_size:
                raise IndexError(f"token id out of range [0, {config.vocab_size})")
        if self.patch_features is not None:
            expect = (config.patch_count, config.patch_dim)
            if self.patch_features.ndim != 3 or self.patch_features.shape[1:] != expect:
                raise ShapeError(f"patch_features must be [B, {expect[0]}, {expect[1]}], "
                                 f"got {list(self.patch_features.shape)}")

    @property
    def size(self) -> int:
        ref = self.token_ids if self.token_ids is not None else self.patch_features
        return ref.shape[0]


@dataclass
class EncodedBatch:
    """Encoder output: token states plus the per-modality summary states.

    ``token_states`` holds every position, or, after a no-tape pass that was
    given ``rows``, only those rows in the order given; a [CLS] state outside
    the rows kept is None.
    """

    token_states: Tensor                 # [B, L or rows kept, d_hidden]
    cls_visual: Tensor | None = None     # [B, d_hidden]
    cls_textual: Tensor | None = None    # [B, d_hidden]


@dataclass
class SequenceLayout:
    """Index map of one assembled sequence (identical across a batch)."""

    kind: str
    total_len: int
    cls_v: int | None = None
    patches: slice | None = None
    prompts_v: slice | None = None
    prompts_t: slice | None = None
    cls_t: int | None = None
    text: slice | None = None

    def cls_rows(self) -> tuple[slice, ...]:
        """The rows of the [CLS] state(s) this layout has, in order."""
        return tuple(slice(p, p + 1) for p in (self.cls_v, self.cls_t)
                     if p is not None)


def sequence_layout(kind: str, config: ModelConfig) -> SequenceLayout:
    n_pv = config.n_sel * config.prompt_len_v
    n_pt = config.n_sel * config.prompt_len_t
    lv, lt = config.patch_count, config.max_text_len
    if kind == "image_only":
        return SequenceLayout(kind, 1 + lv + n_pt, cls_v=0,
                              patches=slice(1, 1 + lv),
                              prompts_t=slice(1 + lv, 1 + lv + n_pt))
    if kind == "text_only":
        return SequenceLayout(kind, n_pv + 1 + lt,
                              prompts_v=slice(0, n_pv), cls_t=n_pv,
                              text=slice(n_pv + 1, n_pv + 1 + lt))
    if kind == "image_text":
        base = 1 + lv
        return SequenceLayout(kind, base + n_pv + n_pt + 1 + lt, cls_v=0,
                              patches=slice(1, base),
                              prompts_v=slice(base, base + n_pv),
                              prompts_t=slice(base + n_pv, base + n_pv + n_pt),
                              cls_t=base + n_pv + n_pt,
                              text=slice(base + n_pv + n_pt + 1,
                                         base + n_pv + n_pt + 1 + lt))
    raise ConfigError(f"unknown batch kind {kind!r}")


def assembled_attention_mask(layout: SequenceLayout, batch_size: int,
                             token_ids: np.ndarray | None) -> np.ndarray:
    """True where a position is attendable; only text padding is masked."""
    mask = np.ones((batch_size, layout.total_len), dtype=bool)
    if layout.text is not None:
        mask[:, layout.text] = token_ids != PAD_ID
    return mask


def _take_rows(x: Tensor, rows: tuple[slice, ...]) -> Tensor:
    """The positions ``rows`` (ascending, disjoint slices) of ``x`` [B, L, d]."""
    parts = [ops.slice_axis(x, 1, r.start, r.stop) for r in rows]
    return parts[0] if len(parts) == 1 else ops.concat(parts, axis=1)


def _computed_rows(rows: tuple[slice, ...] | None, length: int):
    """The rows a last layer computes: ``rows`` when no tape records and they
    leave some position out, else None for all ``length`` positions."""
    if rows is None or grad_enabled():
        return None
    if sum(r.stop - r.start for r in rows) == length:
        return None
    return rows


class KVCache:
    """Keys and values [B, L, d_hidden] of the L positions one layer has
    already seen; each cached ``TransformerLayer.forward`` appends its new
    positions' keys and values."""

    def __init__(self):
        self.k: Tensor | None = None
        self.v: Tensor | None = None

    def __len__(self) -> int:
        return 0 if self.k is None else self.k.shape[1]

    def append(self, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
        """Cache ``k`` and ``v`` after the held ones; returns all of them."""
        if self.k is not None:
            k = ops.concat([self.k, k], axis=1)
            v = ops.concat([self.v, v], axis=1)
        self.k, self.v = k, v
        return k, v


class TransformerLayer:
    """Pre-norm self-attention block: x + Attn(LN(x)), then x + FFN(LN(x))."""

    def __init__(self, d_hidden: int, n_heads: int, rng: np.random.Generator):
        self.n_heads = n_heads
        d_ff = 4 * d_hidden

        def lin(n_in, n_out):
            s = 1.0 / np.sqrt(n_in)
            return Tensor(rng.uniform(-s, s, size=(n_in, n_out)), requires_grad=True)

        self.ln1_g = Tensor(np.ones(d_hidden), requires_grad=True)
        self.ln1_b = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.wq, self.wk, self.wv, self.wo = (lin(d_hidden, d_hidden) for _ in range(4))
        self.bq, self.bk, self.bv, self.bo = (
            Tensor(np.zeros(d_hidden), requires_grad=True) for _ in range(4))
        self.ln2_g = Tensor(np.ones(d_hidden), requires_grad=True)
        self.ln2_b = Tensor(np.zeros(d_hidden), requires_grad=True)
        self.w1 = lin(d_hidden, d_ff)
        self.b1 = Tensor(np.zeros(d_ff), requires_grad=True)
        self.w2 = lin(d_ff, d_hidden)
        self.b2 = Tensor(np.zeros(d_hidden), requires_grad=True)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        names = ["ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv",
                 "wo", "bo", "ln2_g", "ln2_b", "w1", "b1", "w2", "b2"]
        return {f"{prefix}{n}": getattr(self, n) for n in names}

    def forward(self, x: Tensor, mask_add: np.ndarray,
                cache: KVCache | None = None,
                rows: tuple[slice, ...] | None = None) -> Tensor:
        """``cache`` is None in training and in the encoder; incremental
        decoding passes one per layer, and ``x`` then continues the sequence
        it holds: its positions attend over the cached ones too.

        ``rows`` (ascending, disjoint slices of ``x``'s positions) names the
        outputs a last layer's caller reads.  With no tape recording the
        result holds only those rows: queries, attention output and
        feed-forward block run there, keys and values at every position.
        Under a tape it holds every position.
        """
        rows = _computed_rows(rows, x.shape[1])
        h = ops.layernorm(x, self.ln1_g, self.ln1_b)
        hq = h if rows is None else _take_rows(h, rows)
        q = ops.linear(hq, self.wq, self.bq)
        k = ops.linear(h, self.wk, self.bk)
        v = ops.linear(h, self.wv, self.bv)
        if cache is not None:
            k, v = cache.append(k, v)
        if rows is not None:
            x = _take_rows(x, rows)
            if mask_add.shape[-2] > 1:
                mask_add = mask_add[..., np.r_[rows], :]
        ctx = ops.attention(q, k, v, mask_add, self.n_heads)
        x = ops.add(x, ops.linear(ctx, self.wo, self.bo))

        h2 = ops.layernorm(x, self.ln2_g, self.ln2_b)
        ff = ops.linear(ops.gelu(ops.linear(h2, self.w1, self.b1)),
                        self.w2, self.b2)
        return ops.add(x, ff)


@dataclass
class UnifyResult:
    states: Tensor                         # [B, L, d_hidden]
    mask: np.ndarray                       # bool [B, L]
    layout: SequenceLayout
    selections_v: list[SelectionResult]    # per item, visual pool
    selections_t: list[SelectionResult]    # per item, textual pool
    prompt_tokens: Tensor | None = None    # projected prompt block(s)


class VisionLanguageModel:
    """Embedding layers + shared encoder over prompt-unified sequences."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        c = config

        def table(rows, cols, std=0.02):
            return Tensor(rng.normal(0.0, std, size=(rows, cols)), requires_grad=True)

        def lin(n_in, n_out):
            s = 1.0 / np.sqrt(n_in)
            return Tensor(rng.uniform(-s, s, size=(n_in, n_out)), requires_grad=True)

        self.text_table = table(c.vocab_size, c.d_text)
        self.text_pos = table(c.max_text_len, c.d_text)
        self.patch_proj_w = lin(c.patch_dim, c.d_vision)
        self.patch_proj_b = Tensor(np.zeros(c.d_vision), requires_grad=True)
        self.patch_pos = table(c.patch_count, c.d_vision)
        self.text_to_hidden_w = lin(c.d_text, c.d_hidden)
        self.text_to_hidden_b = Tensor(np.zeros(c.d_hidden), requires_grad=True)
        self.vis_to_hidden_w = lin(c.d_vision, c.d_hidden)
        self.vis_to_hidden_b = Tensor(np.zeros(c.d_hidden), requires_grad=True)
        self.cls_v = Tensor(rng.normal(0.0, 0.02, size=(c.d_hidden,)),
                            requires_grad=True)
        self.cls_t = Tensor(rng.normal(0.0, 0.02, size=(c.d_hidden,)),
                            requires_grad=True)
        self.layers = [TransformerLayer(c.d_hidden, c.n_heads, rng)
                       for _ in range(c.n_layers)]

    def parameters(self, prefix: str = "model.") -> dict[str, Tensor]:
        out = {
            f"{prefix}text_table": self.text_table,
            f"{prefix}text_pos": self.text_pos,
            f"{prefix}patch_proj_w": self.patch_proj_w,
            f"{prefix}patch_proj_b": self.patch_proj_b,
            f"{prefix}patch_pos": self.patch_pos,
            f"{prefix}text_to_hidden_w": self.text_to_hidden_w,
            f"{prefix}text_to_hidden_b": self.text_to_hidden_b,
            f"{prefix}vis_to_hidden_w": self.vis_to_hidden_w,
            f"{prefix}vis_to_hidden_b": self.vis_to_hidden_b,
            f"{prefix}cls_v": self.cls_v,
            f"{prefix}cls_t": self.cls_t,
        }
        for i, layer in enumerate(self.layers):
            out.update(layer.parameters(f"{prefix}layers.{i}."))
        return out

    def set_trainable(self, trainable: bool):
        for p in self.parameters().values():
            p.requires_grad = trainable

    # -- modality embeddings -------------------------------------------------

    def embed_text(self, token_ids: np.ndarray,
                   position_ids: np.ndarray | None = None) -> Tensor:
        """Token lookup plus learned positional term: [B, L_t, d_text]."""
        token_ids = np.asarray(token_ids)
        if token_ids.min() < 0 or token_ids.max() >= self.config.vocab_size:
            raise IndexError(f"token id out of range [0, {self.config.vocab_size})")
        if position_ids is None:
            position_ids = np.arange(token_ids.shape[1])
        emb = ops.embedding_lookup(self.text_table, token_ids)
        pos = ops.gather_rows(self.text_pos, position_ids)
        return ops.add(emb, pos)

    def embed_patches(self, patch_features: np.ndarray,
                      position_ids: np.ndarray | None = None) -> Tensor:
        """Linear patch projection plus learned positional term: [B, L_v, d_vision]."""
        feats = np.asarray(patch_features, dtype=np.float64)
        if feats.ndim != 3 or feats.shape[2] != self.config.patch_dim:
            raise ShapeError(f"patch features must be [B, L, {self.config.patch_dim}], "
                             f"got {list(feats.shape)}")
        if position_ids is None:
            position_ids = np.arange(feats.shape[1])
        proj = ops.linear(Tensor(feats), self.patch_proj_w, self.patch_proj_b)
        pos = ops.gather_rows(self.patch_pos, position_ids)
        return ops.add(proj, pos)

    # -- unification ----------------------------------------------------------

    def _cls_segment(self, cls_vec: Tensor, b: int) -> Tensor:
        base = Tensor(np.zeros((b, 1, self.config.d_hidden)))
        return ops.add(base, cls_vec)

    def _select_batch(self, pool, queries: list[Tensor], n_sel: int,
                      override: np.ndarray | None):
        if override is None:
            return [select_prompts(pool, q, n_sel) for q in queries]
        return [SelectionResult(indices=[int(j) for j in idx],
                                similarities=[0.0] * len(idx), query=q,
                                pool=pool)
                for q, idx in zip(queries, override)]

    def _prompt_segment(self, selections, role,
                        proj_w: Tensor, proj_b: Tensor) -> Tensor:
        blocks = []
        for sel in selections:
            tok = assemble_prompt_tokens(sel, role)
            blocks.append(ops.reshape(tok, (1,) + tok.shape))
        block = blocks[0] if len(blocks) == 1 else ops.concat(blocks, axis=0)
        return ops.linear(block, proj_w, proj_b)

    @staticmethod
    def _per_item(queries: Tensor) -> list[Tensor]:
        """Split [B, D] queries into B vectors of shape [D]."""
        b, d = queries.shape
        return [ops.reshape(ops.slice_axis(queries, 0, i, i + 1), (d,))
                for i in range(b)]

    def unify_inputs(self, batch: UnifiedBatch, pools: PromptPools,
                     select_override: dict[str, np.ndarray] | None = None
                     ) -> UnifyResult:
        """Assemble the prompt-unified sequence for a batch (see module doc)
        and its attention mask, which masks only text padding.

        ``select_override`` pins pool selections (keys "visual"/"textual" to
        [B, n_sel] index arrays), used to hold the non-differentiable
        selection fixed during finite-difference checks.
        """
        batch.validate(self.config)
        c = self.config
        layout = sequence_layout(batch.kind, c)
        b = batch.size
        ov = select_override or {}
        selections_v: list[SelectionResult] = []
        selections_t: list[SelectionResult] = []
        segments: list[Tensor] = []

        text_emb = None
        patch_emb = None
        if batch.token_ids is not None:
            text_emb = self.embed_text(batch.token_ids)
            text_valid = batch.token_ids != PAD_ID
        if batch.patch_features is not None:
            patch_emb = self.embed_patches(batch.patch_features)

        prompt_tokens = None
        if batch.kind == "image_only":
            # contrary-pool prompts serve the visual context
            queries = self._per_item(query_fn(patch_emb))
            tq = [cross_query(q, pools.vis_to_txt) for q in queries]
            selections_t = self._select_batch(pools.textual, tq, c.n_sel,
                                              ov.get("textual"))
            prompt_tokens = self._prompt_segment(
                selections_t, RoleTag.VISUAL_CONTEXT,
                self.text_to_hidden_w, self.text_to_hidden_b)
            segments.append(self._cls_segment(self.cls_v, b))
            segments.append(ops.linear(patch_emb, self.vis_to_hidden_w,
                                       self.vis_to_hidden_b))
            segments.append(prompt_tokens)
        elif batch.kind == "text_only":
            queries = self._per_item(query_fn(text_emb, text_valid))
            vq = [cross_query(q, pools.txt_to_vis) for q in queries]
            selections_v = self._select_batch(pools.visual, vq, c.n_sel,
                                              ov.get("visual"))
            segments.append(self._prompt_segment(
                selections_v, RoleTag.TEXTUAL_CONTEXT,
                self.vis_to_hidden_w, self.vis_to_hidden_b))
            segments.append(self._cls_segment(self.cls_t, b))
            segments.append(ops.linear(text_emb, self.text_to_hidden_w,
                                       self.text_to_hidden_b))
        else:  # image_text: same-modality prompts on both sides
            vqueries = self._per_item(query_fn(patch_emb))
            tqueries = self._per_item(query_fn(text_emb, text_valid))
            selections_v = self._select_batch(pools.visual, vqueries, c.n_sel,
                                              ov.get("visual"))
            selections_t = self._select_batch(pools.textual, tqueries, c.n_sel,
                                              ov.get("textual"))
            segments.append(self._cls_segment(self.cls_v, b))
            segments.append(ops.linear(patch_emb, self.vis_to_hidden_w,
                                       self.vis_to_hidden_b))
            segments.append(self._prompt_segment(
                selections_v, RoleTag.VISUAL_CONTEXT,
                self.vis_to_hidden_w, self.vis_to_hidden_b))
            segments.append(self._prompt_segment(
                selections_t, RoleTag.TEXTUAL_CONTEXT,
                self.text_to_hidden_w, self.text_to_hidden_b))
            segments.append(self._cls_segment(self.cls_t, b))
            segments.append(ops.linear(text_emb, self.text_to_hidden_w,
                                       self.text_to_hidden_b))

        states = ops.concat(segments, axis=1)
        if states.shape[1] != layout.total_len:
            raise IntegrityError(f"assembled length {states.shape[1]} != "
                                 f"layout length {layout.total_len}")
        mask = assembled_attention_mask(layout, b, batch.token_ids)
        return UnifyResult(states=states, mask=mask, layout=layout,
                           selections_v=selections_v,
                           selections_t=selections_t,
                           prompt_tokens=prompt_tokens)

    # -- encoder --------------------------------------------------------------

    def encode(self, states: Tensor, mask: np.ndarray,
               rows: tuple[slice, ...] | None = None) -> Tensor:
        """Run the layer stack; returns token states [B, L, d_hidden], or
        only those at ``rows`` when no tape records (see the module doc)."""
        b, length, _ = states.shape
        if mask.shape != (b, length):
            raise ShapeError(f"mask shape {list(mask.shape)} does not match "
                             f"sequence [{b}, {length}]")
        mask_add = np.where(mask[:, None, None, :], 0.0, MASK_LOGIT)
        x = states
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer.forward(x, mask_add, rows=rows if i == last else None)
            if not np.all(np.isfinite(x.data)):
                raise NumericError(f"non-finite activations after layer {i}")
        if not self.layers and _computed_rows(rows, length) is not None:
            x = _take_rows(x, rows)
        return x

    def forward(self, batch: UnifiedBatch, pools: PromptPools,
                select_override=None, rows: tuple[slice, ...] | None = None
                ) -> tuple[EncodedBatch, UnifyResult]:
        """Unify and encode ``batch``.  ``rows`` names the assembled
        positions whose final states the caller reads (None: all)."""
        unified = self.unify_inputs(batch, pools, select_override)
        token_states = self.encode(unified.states, unified.mask, rows)
        layout = unified.layout
        kept = (range(layout.total_len)
                if token_states.shape[1] == layout.total_len
                else np.r_[rows].tolist())

        def pick(pos):
            if pos not in kept:
                return None
            i = kept.index(pos)
            sl = ops.slice_axis(token_states, 1, i, i + 1)
            return ops.reshape(sl, (batch.size, self.config.d_hidden))

        encoded = EncodedBatch(token_states=token_states,
                               cls_visual=pick(layout.cls_v),
                               cls_textual=pick(layout.cls_t))
        return encoded, unified

