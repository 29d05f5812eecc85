"""Trainable key-value prompt pools with top-N cosine selection.

Each modality owns a pool of (key, value) pairs: keys are query targets,
values are blocks of prompt tokens.  A query vector picks the N keys with the
highest cosine similarity (exact top-N: the summed-similarity objective over
index subsets is separable, so sorting is the exact optimizer, not a
heuristic).  Selection itself is non-differentiable; gradients reach the pool
only through the concatenated value tokens and through the surrogate pull
loss that draws selected keys toward their queries.

``select_prompts`` ranks a [B, D] query block in one call, and its one
``SelectionResult`` holds [B, n_sel] indices and similarities.  Each row
equals a one-row call's bit for bit.  The taped consumers each record one
node for the whole block: ``assemble_prompt_tokens`` through
``ops.gather_blocks`` and ``surrogate_loss`` through ``ops.cosine_pull``.
Both hand the pool values, role embeddings and keys their gradients row by
row, in the order a chain of per-row ops would, so the sums are the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .ndtensor import Tensor, flags, grad_enabled, no_grad, ops

__all__ = [
    "PromptPool", "PromptPools", "SelectionResult", "RoleTag",
    "IntegrityError", "query_fn", "cross_query", "select_prompts",
    "surrogate_loss", "assemble_prompt_tokens",
]


class IntegrityError(RuntimeError):
    """Internal state no longer matches (bad selection, bad checksum...)."""


class RoleTag:
    """Which context a selected prompt block serves inside the sequence."""

    VISUAL_CONTEXT = "as_visual_context"
    TEXTUAL_CONTEXT = "as_textual_context"
    ALL = (VISUAL_CONTEXT, TEXTUAL_CONTEXT)


@dataclass
class SelectionResult:
    """Outcome of one top-N pool query per row of a ``[B, D]`` query block."""

    indices: np.ndarray        # int [B, n_sel], similarity order per row
    similarities: np.ndarray   # [B, n_sel]
    query: Tensor              # [B, D]
    pool: "PromptPool" = field(repr=False)

    def __post_init__(self):
        idx, sims = self.indices, self.similarities
        ranked = np.sort(idx, axis=1)
        if np.any(ranked[:, 1:] == ranked[:, :-1]):
            raise IntegrityError("selection indices must be distinct")
        if np.any((idx < 0) | (idx >= self.pool.pool_size)):
            raise IntegrityError("selection index outside the pool")
        if np.any(sims[:, 1:] > sims[:, :-1] + 1e-12):
            raise IntegrityError("selection similarities must be non-increasing")


class PromptPool:
    """One modality's prompt store: keys [M, D], values [M, L, D], usage [M].

    Keys start uniform(-0.5, 0.5) and row-normalized, so every key has unit
    (hence nonzero) norm; values start N(0, 0.02).  Exactly two role
    embeddings exist per pool, added to every emitted prompt token.
    """

    def __init__(self, modality: str, pool_size: int, key_dim: int,
                 prompt_len: int, rng: np.random.Generator):
        if modality not in ("visual", "textual"):
            raise ConfigError(f"unknown modality {modality!r}")
        self.modality = modality
        self.pool_size = pool_size
        self.key_dim = key_dim
        self.prompt_len = prompt_len

        keys = rng.uniform(-0.5, 0.5, size=(pool_size, key_dim))
        norms = np.linalg.norm(keys, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0  # cannot occur in practice; belt and braces
        self.keys = Tensor(keys / norms, requires_grad=True)
        self.values = Tensor(rng.normal(0.0, 0.02,
                                        size=(pool_size, prompt_len, key_dim)),
                             requires_grad=True)
        self.role_embeddings = {
            role: Tensor(rng.normal(0.0, 0.02, size=(key_dim,)),
                         requires_grad=True)
            for role in RoleTag.ALL
        }
        self.usage = np.zeros(pool_size, dtype=np.int64)

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        out = {f"{prefix}keys": self.keys, f"{prefix}values": self.values}
        for role, emb in self.role_embeddings.items():
            out[f"{prefix}role.{role}"] = emb
        return out


def query_fn(embedding: Tensor, valid: np.ndarray | None = None) -> Tensor:
    """Reduce token embeddings [..., L, key_dim] to key-space queries [..., key_dim].

    Parameter-free mean pooling over the token axis; a single token passes
    through unchanged and opposing tokens cancel to the zero vector (which is
    flagged downstream as a degenerate query).  ``valid`` ([..., L] bool)
    restricts each mean to its valid tokens, e.g. the non-pad text tokens.
    """
    if embedding.ndim < 2 or embedding.shape[-2] < 1:
        raise ops.ShapeError(f"query_fn needs [..., seq_len, key_dim], got "
                             f"{list(embedding.shape)}")
    token_axis = embedding.ndim - 2
    if valid is None:
        return ops.mean(embedding, axis=token_axis)
    counts = valid.sum(axis=-1)
    if np.any(counts == 0):
        raise ConfigError("query over a row with no valid tokens")
    weighted = ops.mul_const(embedding, valid[..., None].astype(np.float64))
    return ops.mul_const(ops.sum(weighted, axis=token_axis),
                         (1.0 / counts)[..., None])


def cross_query(queries: Tensor, projection: Tensor | None) -> Tensor:
    """Carry pooled queries [B, D] into the *other* modality's key space.

    ``projection`` is the linear dimension bridge; it may be omitted only
    when the two key dimensions already agree.  The product is stacked,
    ``[B, 1, D] @ P``, whose rows equal one-row products bit for bit; a
    single ``[B, D] @ P`` rounds differently.
    """
    if projection is None:
        return queries
    if (queries.ndim != 2 or projection.ndim != 2
            or projection.shape[0] != queries.shape[1]):
        raise ops.ShapeError(f"projection {list(projection.shape)} does not "
                             f"accept queries of shape {list(queries.shape)}")
    b, d = queries.shape
    return ops.reshape(ops.matmul(ops.reshape(queries, (b, 1, d)), projection),
                       (b, projection.shape[1]))


def select_prompts(pool: PromptPool, queries: Tensor,
                   n_sel: int) -> SelectionResult:
    """Pick, per row of ``queries`` [B, D], the ``n_sel`` pool entries whose
    keys best match it by cosine.

    Ties break toward the lowest index.  The similarity computation runs off
    the tape: gradients flow through :func:`surrogate_loss` and the gathered
    values, never through the ranking itself.  Usage counters count training
    selections only: they are updated when gradients are enabled and the
    pool's keys train, so evaluation under ``no_grad`` and a frozen pool
    leave them as they are.  Each zero-norm row raises the degenerate-cosine
    flag once.
    """
    if n_sel > pool.pool_size:
        raise ConfigError(f"n_sel {n_sel} exceeds pool size {pool.pool_size}")
    if queries.ndim != 2 or queries.shape[1] != pool.key_dim:
        raise ops.ShapeError(f"queries of shape {list(queries.shape)} do not "
                             f"match [B, {pool.key_dim}]")
    with no_grad():
        q = queries.data
        keys = pool.keys.data
        # stacked one-row products, whose rows round like a lone query's;
        # norm(axis=1), einsum or a [B, D] @ keys.T product do not
        qn = np.sqrt(q[:, None, :] @ q[:, :, None])[:, 0]
        dots = (keys[None] @ q[:, :, None])[..., 0]
        live = qn != 0.0
        sims = np.zeros_like(dots)
        np.divide(dots, np.linalg.norm(keys, axis=1) * qn, out=sims,
                  where=live)
        for _ in range(int(np.count_nonzero(~live))):
            flags.flag_degenerate_cosine()
        order = np.argsort(-sims, axis=1, kind="stable")[:, :n_sel]
    if grad_enabled() and pool.keys.requires_grad:
        np.add.at(pool.usage, order, 1)
    return SelectionResult(indices=order,
                           similarities=np.take_along_axis(sims, order, axis=1),
                           query=queries, pool=pool)


def surrogate_loss(selections: list[SelectionResult],
                   batch_size: int | None = None) -> Tensor:
    """Pull selected keys toward their queries: sum of (1 - cos), batch-averaged.

    Minimizing this drives each chosen key's direction onto its query.  The
    terms add up row by row over each record in turn, in one
    ``ops.cosine_pull`` node.  The divisor defaults to the number of rows;
    pass the batch size when a batch contributes several records.
    Degenerate (zero-norm) queries contribute the constant worst-case value
    with zero gradient.
    """
    if not selections:
        raise ValueError("surrogate_loss on an empty selection list")
    if batch_size is None:
        batch_size = sum(len(sel.indices) for sel in selections)
    return ops.cosine_pull([(sel.pool.keys, sel.query, sel.indices)
                            for sel in selections], 1.0 / batch_size)


def assemble_prompt_tokens(pool: PromptPool, indices: np.ndarray,
                           role: str) -> Tensor:
    """Each row's selected value blocks (``indices`` [B, n_sel], in order)
    plus a role tag.

    Output is [B, n_sel * prompt_len, key_dim]; the role embedding is added
    to every token so the encoder can tell visual-context prompts from
    textual-context ones.
    """
    if role not in pool.role_embeddings:
        raise ConfigError(f"unknown role {role!r}")
    return ops.gather_blocks(pool.values, indices, pool.role_embeddings[role])


class PromptPools:
    """The visual/textual pool pair plus cross-modal query projections.

    Projections exist only when the two key dimensions differ (a same-size
    pool pair can be queried across modalities without a bridge).  They are
    fixed random maps: a projected query only ranks keys off the tape, and
    the pull loss reads same-modality queries alone, so no loss reaches them.
    They stay in ``parameters()`` so that checkpoints hold them.
    """

    def __init__(self, config, rng: np.random.Generator):
        self.visual = PromptPool("visual", config.pool_size_v, config.d_vision,
                                 config.prompt_len_v, rng)
        self.textual = PromptPool("textual", config.pool_size_t, config.d_text,
                                  config.prompt_len_t, rng)
        if config.d_vision != config.d_text:
            s_vt = 1.0 / np.sqrt(config.d_vision)
            s_tv = 1.0 / np.sqrt(config.d_text)
            self.vis_to_txt = Tensor(rng.uniform(-s_vt, s_vt,
                                                 size=(config.d_vision, config.d_text)))
            self.txt_to_vis = Tensor(rng.uniform(-s_tv, s_tv,
                                                 size=(config.d_text, config.d_vision)))
        else:
            self.vis_to_txt = None
            self.txt_to_vis = None

    def parameters(self, prefix: str = "pools.") -> dict[str, Tensor]:
        out = {}
        out.update(self.visual.parameters(f"{prefix}visual."))
        out.update(self.textual.parameters(f"{prefix}textual."))
        if self.vis_to_txt is not None:
            out[f"{prefix}vis_to_txt"] = self.vis_to_txt
            out[f"{prefix}txt_to_vis"] = self.txt_to_vis
        return out
