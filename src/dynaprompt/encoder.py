"""Modality embedding, prompt-based input unification, shared transformer stack.

Any input kind is assembled into one token sequence in the shared hidden
space.  ``SEGMENTS`` lists each kind's segments in sequence order, and the
layout, batch validation and assembly all read it.  ``prompts_v`` and
``prompts_t`` hold the visual and the textual pool's selected prompts.  One
rule covers every prompt segment: its pool is queried by its own modality's
tokens when the batch has them, else by the other modality's, carried into
the pool's key space by a cross-modal query projection; the block carries
the role tag of the modality that queried and is projected into the hidden
space by its pool's modality.  So single-modality inputs borrow prompts from
the contrary pool, and the encoder always sees both kinds of context;
paired inputs take same-modality prompts.  A pass makes one
``select_prompts`` call per pool over a [B, D] query block, and its one
record holds every item's [B, n_sel] selection.  Selection ranks the
queries' values off the tape, so the queries and their projections are
recorded only when the caller asks for them (``pull``), as pre-training's
paired pass does for the pool pull loss.  The encoder itself is a pre-norm
multi-head self-attention stack; masked positions receive a large negative
attention logit whose probability underflows to exactly zero, so they cannot
influence any visible output.

Callers name the positions whose final states they read (``rows``), the
last layer computes only those, and ``forward`` returns them in the order
named, side by side: a classification head reads its [CLS] rows through one
reshape, the masked-token head its text rows as they come.  When no tape is
recording, the last layer computes its queries, attention output and
feed-forward block at those rows; its keys and values still cover every
position, so each kept row equals the full pass's row up to float
rounding.  Under a recording tape, attention still runs at every position,
because score products over fewer query rows round differently; the output
projection, residuals, second layer norm and feed-forward block run at the
kept rows.  Their backward (``ops.linear_rows``) sums the weight gradients
over every position, with zeros at the rows left out, so training's
gradients equal a full pass's bit for bit.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ConfigError, ModelConfig, PAD_ID
from .ndtensor import (NumericError, ShapeError, Tensor, grad_enabled,
                       no_grad, ops)
from .pools import (
    PromptPools,
    RoleTag,
    SelectionResult,
    assemble_prompt_tokens,
    cross_query,
    query_fn,
    select_prompts,
)

__all__ = ["SEGMENTS", "UnifiedBatch", "SequenceLayout", "KVCache",
           "VisionLanguageModel", "sequence_layout", "assembled_attention_mask"]

# Each input kind's segments, in sequence order (see the module doc).
SEGMENTS = {
    "image_only": ("cls_v", "patches", "prompts_t"),
    "text_only": ("prompts_v", "cls_t", "text"),
    "image_text": ("cls_v", "patches", "prompts_v", "prompts_t", "cls_t",
                   "text"),
}
# The modality of each segment; a prompt segment's is its pool's.
_MODALITY = {"cls_v": "visual", "patches": "visual", "prompts_v": "visual",
             "prompts_t": "textual", "cls_t": "textual", "text": "textual"}
_OTHER = {"visual": "textual", "textual": "visual"}
# The role tag of a prompt block, by the modality whose tokens queried it.
_ROLE = {"visual": RoleTag.VISUAL_CONTEXT, "textual": RoleTag.TEXTUAL_CONTEXT}

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
        if self.kind not in SEGMENTS:
            raise ConfigError(f"unknown batch kind {self.kind!r}")
        for name, segment in (("token_ids", "text"),
                              ("patch_features", "patches")):
            if ((segment in SEGMENTS[self.kind])
                    != (getattr(self, name) is not None)):
                raise ConfigError(f"kind {self.kind!r} and {name} presence "
                                  "disagree")
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
    """The layout of ``kind``'s segments, placed end to end in table order."""
    if kind not in SEGMENTS:
        raise ConfigError(f"unknown batch kind {kind!r}")
    c = config
    lengths = {"cls_v": 1, "patches": c.patch_count,
               "prompts_v": c.n_sel * c.prompt_len_v,
               "prompts_t": c.n_sel * c.prompt_len_t,
               "cls_t": 1, "text": c.max_text_len}
    spans, start = {}, 0
    for name in SEGMENTS[kind]:
        stop = start + lengths[name]
        spans[name] = start if name in ("cls_v", "cls_t") else slice(start, stop)
        start = stop
    return SequenceLayout(kind, start, **spans)


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
    """The rows a last layer computes: ``rows`` when they leave some
    position out, else None for all ``length`` positions."""
    if rows is None:
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
        outputs a last layer's caller reads, and the result holds only those
        rows.  With no tape recording, queries, attention output and
        feed-forward block run there, keys and values at every position.
        Under a tape, attention runs at every position and the rest at the
        kept rows, through ``ops.linear_rows``, so that values and gradients
        equal a full pass's bit for bit.
        """
        length = x.shape[1]
        rows = _computed_rows(rows, length)
        # a tape keeps every query row: per-head score products over fewer
        # rows round differently
        taped = rows is not None and grad_enabled()
        h = ops.layernorm(x, self.ln1_g, self.ln1_b)
        hq = h if rows is None or taped else _take_rows(h, rows)
        q = ops.linear(hq, self.wq, self.bq)
        k = ops.linear(h, self.wk, self.bk)
        v = ops.linear(h, self.wv, self.bv)
        if cache is not None:
            k, v = cache.append(k, v)
        if rows is not None:
            x = _take_rows(x, rows)
            if not taped and mask_add.shape[-2] > 1:
                mask_add = mask_add[..., np.r_[rows], :]
        ctx = ops.attention(q, k, v, mask_add, self.n_heads)
        affine = ops.linear
        if taped:
            affine = partial(ops.linear_rows, rows=np.r_[rows], length=length)
        x = ops.add(x, affine(ctx, self.wo, self.bo))

        h2 = ops.layernorm(x, self.ln2_g, self.ln2_b)
        ff = affine(ops.gelu(affine(h2, self.w1, self.b1)), self.w2, self.b2)
        return ops.add(x, ff)


@dataclass
class UnifyResult:
    states: Tensor                         # [B, L, d_hidden]
    mask: np.ndarray                       # bool [B, L]
    layout: SequenceLayout
    # pool name -> its [B, n_sel] record, in sequence order
    selections: dict[str, SelectionResult]
    prompt_tokens: Tensor | None = None    # projected prompts of a textless batch


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

    def _prompt_segment(self, selection: SelectionResult, role,
                        proj_w: Tensor, proj_b: Tensor) -> Tensor:
        return ops.linear(assemble_prompt_tokens(selection.pool,
                                                 selection.indices, role),
                          proj_w, proj_b)

    def unify_inputs(self, batch: UnifiedBatch, pools: PromptPools,
                     select_override: dict[str, np.ndarray] | None = None,
                     pull: bool = False) -> UnifyResult:
        """Assemble the prompt-unified sequence for a batch (see module doc)
        and its attention mask, which masks only text padding.

        ``select_override`` pins pool selections (keys "visual"/"textual" to
        [B, n_sel] index arrays), used to hold the non-differentiable
        selection fixed during finite-difference checks; a pinned array
        becomes the pool's record, with zero similarities and no usage
        counted.  The selection queries are recorded on the tape only with
        ``pull``, for a caller that builds the pool pull loss from them.
        """
        batch.validate(self.config)
        c = self.config
        layout = sequence_layout(batch.kind, c)
        segments = SEGMENTS[batch.kind]
        b = batch.size
        ov = select_override or {}

        def select(pool, queries):
            pinned = ov.get(pool.modality)
            if pinned is None:
                return select_prompts(pool, queries, c.n_sel)
            pinned = np.asarray(pinned)
            if pinned.shape != (b, c.n_sel):
                raise ShapeError(f"pinned {pool.modality} selection must be "
                                 f"[{b}, {c.n_sel}], got {list(pinned.shape)}")
            return SelectionResult(pinned, np.zeros(pinned.shape), queries,
                                   pool)

        emb, valid = {}, {}  # by modality
        if batch.token_ids is not None:
            emb["textual"] = self.embed_text(batch.token_ids)
            valid["textual"] = batch.token_ids != PAD_ID
        if batch.patch_features is not None:
            emb["visual"] = self.embed_patches(batch.patch_features)
        to_hidden = {"visual": (self.vis_to_hidden_w, self.vis_to_hidden_b),
                     "textual": (self.text_to_hidden_w, self.text_to_hidden_b)}

        # the module doc's prompt rule; selection ranks the queries' values,
        # and only the pull loss reads them on the tape
        prompt_segments = [s for s in segments if s.startswith("prompts")]
        queried_by, queries = {}, {}
        with contextlib.nullcontext() if pull else no_grad():
            for pool in (_MODALITY[s] for s in prompt_segments):
                by = pool if pool in emb else _OTHER[pool]
                q = query_fn(emb[by], valid.get(by))
                if by != pool:
                    q = cross_query(q, pools.vis_to_txt if pool == "textual"
                                    else pools.txt_to_vis)
                queried_by[pool], queries[pool] = by, q

        selections: dict[str, SelectionResult] = {}
        parts: list[Tensor] = []
        prompt_tokens = None
        for name in segments:
            modality = _MODALITY[name]
            if name in ("cls_v", "cls_t"):
                parts.append(self._cls_segment(getattr(self, name), b))
            elif name in prompt_segments:
                sel = select(getattr(pools, modality), queries[modality])
                selections[modality] = sel
                parts.append(self._prompt_segment(
                    sel, _ROLE[queried_by[modality]], *to_hidden[modality]))
                if "text" not in segments:  # the caption prefix reads it
                    prompt_tokens = parts[-1]
            else:
                parts.append(ops.linear(emb[modality], *to_hidden[modality]))

        states = ops.concat(parts, axis=1)
        mask = assembled_attention_mask(layout, b, batch.token_ids)
        return UnifyResult(states=states, mask=mask, layout=layout,
                           selections=selections, prompt_tokens=prompt_tokens)

    # -- encoder --------------------------------------------------------------

    def encode(self, states: Tensor, mask: np.ndarray,
               rows: tuple[slice, ...] | None = None) -> Tensor:
        """Run the layer stack; returns token states [B, L, d_hidden], or
        only those at ``rows`` (see the module doc)."""
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
                select_override=None, rows: tuple[slice, ...] | None = None,
                pull: bool = False) -> tuple[Tensor, UnifyResult]:
        """Unify and encode ``batch``.  Returns the final states at the
        assembled positions ``rows`` names, in order, as [B, R, d_hidden]
        (every position when ``rows`` is None), and the unified input;
        ``pull`` keeps the selection queries on the tape (see
        ``unify_inputs``)."""
        unified = self.unify_inputs(batch, pools, select_override, pull)
        return self.encode(unified.states, unified.mask, rows), unified
