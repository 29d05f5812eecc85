"""Trainable key-value prompt pools with top-N cosine selection.

Each modality owns a pool of (key, value) pairs: keys are query targets,
values are blocks of prompt tokens.  A query vector picks the N keys with the
highest cosine similarity (exact top-N: the summed-similarity objective over
index subsets is separable, so sorting is the exact optimizer, not a
heuristic).  Selection itself is non-differentiable; gradients reach the pool
only through the concatenated value tokens and through the surrogate pull
loss that draws selected keys toward their queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError
from .ndtensor import Tensor, flags, no_grad, ops

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
    """Outcome of one top-N pool query for a single input."""

    indices: list[int]
    similarities: list[float]
    query: Tensor
    pool: "PromptPool" = field(repr=False)

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise IntegrityError("selection indices must be distinct")
        if any(i < 0 or i >= self.pool.pool_size for i in self.indices):
            raise IntegrityError("selection index outside the pool")
        if any(s2 > s1 + 1e-12 for s1, s2 in zip(self.similarities,
                                                 self.similarities[1:])):
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


def cross_query(query: Tensor, projection: Tensor | None) -> Tensor:
    """Carry a pooled query into the *other* modality's key space.

    ``projection`` is the linear dimension bridge; it may be omitted only
    when the two key dimensions already agree.
    """
    if projection is None:
        return query
    if (query.ndim != 1 or projection.ndim != 2
            or projection.shape[0] != query.shape[0]):
        raise ops.ShapeError(f"projection {list(projection.shape)} does not "
                             f"accept query of shape {list(query.shape)}")
    d = query.shape[0]
    return ops.reshape(ops.matmul(ops.reshape(query, (1, d)), projection),
                       (projection.shape[1],))


def select_prompts(pool: PromptPool, query: Tensor, n_sel: int) -> SelectionResult:
    """Pick the ``n_sel`` pool entries whose keys best match ``query`` by cosine.

    Ties break toward the lowest index.  The similarity computation runs off
    the tape: gradients flow through :func:`surrogate_loss` and the gathered
    values, never through the ranking itself.  Usage counters are updated.
    """
    if n_sel > pool.pool_size:
        raise ConfigError(f"n_sel {n_sel} exceeds pool size {pool.pool_size}")
    if query.ndim != 1 or query.shape[0] != pool.key_dim:
        raise ops.ShapeError(f"query of shape {list(query.shape)} does not "
                             f"match key_dim {pool.key_dim}")
    with no_grad():
        q = query.data
        qn = float(np.linalg.norm(q))
        if qn == 0.0:
            flags.flag_degenerate_cosine()
            sims = np.zeros(pool.pool_size)
        else:
            kn = np.linalg.norm(pool.keys.data, axis=1)
            sims = (pool.keys.data @ q) / (kn * qn)
        order = np.argsort(-sims, kind="stable")[:n_sel]
    pool.usage[order] += 1
    return SelectionResult(indices=[int(i) for i in order],
                           similarities=[float(sims[i]) for i in order],
                           query=query, pool=pool)


def surrogate_loss(selections: list[SelectionResult],
                   batch_size: int | None = None) -> Tensor:
    """Pull selected keys toward their queries: sum of (1 - cos), batch-averaged.

    Minimizing this drives each chosen key's direction onto its query.  The
    divisor defaults to the number of selections; pass the batch size when a
    batch contributes several selections per item.  Degenerate (zero-norm)
    queries contribute the constant worst-case value with zero gradient.
    """
    if not selections:
        raise ValueError("surrogate_loss on an empty selection list")
    if batch_size is None:
        batch_size = len(selections)
    total = None
    for sel in selections:
        pool, q = sel.pool, sel.query
        n = len(sel.indices)
        if float(np.linalg.norm(q.data)) == 0.0:
            term = Tensor(float(n))
        else:
            keys_sel = ops.gather_rows(pool.keys, np.asarray(sel.indices))
            dots = ops.reshape(ops.matmul(keys_sel,
                                          ops.reshape(q, (pool.key_dim, 1))), (n,))
            kn = ops.sqrt(ops.sum(ops.mul(keys_sel, keys_sel), axis=1))
            qn = ops.sqrt(ops.sum(ops.mul(q, q)))
            cos = ops.div(dots, ops.mul(kn, qn))
            term = ops.sub(Tensor(float(n)), ops.sum(cos))
        total = term if total is None else ops.add(total, term)
    return ops.scale(total, 1.0 / batch_size)


def assemble_prompt_tokens(selection: SelectionResult, role: str) -> Tensor:
    """Concatenate selected value blocks (similarity order) plus a role tag.

    Output is [n_sel * prompt_len, key_dim]; the role embedding is added to
    every token so the encoder can tell visual-context prompts from
    textual-context ones.
    """
    pool = selection.pool
    if role not in pool.role_embeddings:
        raise ConfigError(f"unknown role {role!r}")
    gathered = ops.gather_rows(pool.values, np.asarray(selection.indices))
    flat = ops.reshape(gathered,
                       (len(selection.indices) * pool.prompt_len, pool.key_dim))
    return ops.add(flat, pool.role_embeddings[role])


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
