"""Joint pre-training objectives and the training step that combines them.

One step optimizes four terms on image-text batches:

  * masked-token prediction over the text side (15% corruption by default,
    with the usual 80/10/10 mask/random/keep split),
  * 2-way matching of [CLS] pairs against in-batch deranged negatives,
  * symmetric contrastive alignment of single-modality encodings,
  * the pool pull loss from the prompt selections of the paired pass.

The weighted total is  l_mlm + sigma*l_itm + lambda*l_itc + beta*l_p  and the
per-step report must recompose to that sum exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FIRST_CONTENT_ID, MASK_ID, ModelConfig
from .encoder import EncodedBatch, UnifiedBatch, VisionLanguageModel
from .ndtensor import NumericError, ShapeError, Tensor, backward, ops
from .optim import AdamW
from .pools import PromptPools, surrogate_loss

__all__ = [
    "PretrainLossReport", "PretrainHeads", "SamplingError",
    "apply_mlm_masking", "mlm_loss", "itm_loss", "itc_loss",
    "combined_pretrain_loss", "pretrain_step", "FrozenStep",
    "TEMPERATURE_BOUNDS",
]

TEMPERATURE_BOUNDS = (1e-3, 1.0)


class SamplingError(ValueError):
    """A batch cannot supply what an objective needs (e.g. no negatives)."""


@dataclass
class PretrainLossReport:
    """Scalar loss parts of one step plus bookkeeping counts."""

    l_mlm: float
    l_itm: float
    l_itc: float
    l_p: float
    l_total: float
    masked_token_count: int
    itm_pair_count: int = 0

    def check_recomposition(self, sigma: float, lambda_: float, beta: float,
                            tol: float = 1e-12) -> bool:
        expect = self.l_mlm + sigma * self.l_itm + lambda_ * self.l_itc + beta * self.l_p
        return abs(self.l_total - expect) <= tol


class PretrainHeads:
    """Prediction heads: masked-token, pair-matching, and the contrastive
    temperature.  Output layers start at zero so untrained heads emit exactly
    uniform distributions."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        h, v = config.d_hidden, config.vocab_size
        self.mlm_w = Tensor(np.zeros((h, v)), requires_grad=True)
        self.mlm_b = Tensor(np.zeros(v), requires_grad=True)
        self.itm_w = Tensor(np.zeros((2 * h, 2)), requires_grad=True)
        self.itm_b = Tensor(np.zeros(2), requires_grad=True)
        self.temperature = Tensor(float(config.temperature_init), requires_grad=True)

    def parameters(self, prefix: str = "heads.") -> dict[str, Tensor]:
        return {
            f"{prefix}mlm_w": self.mlm_w,
            f"{prefix}mlm_b": self.mlm_b,
            f"{prefix}itm_w": self.itm_w,
            f"{prefix}itm_b": self.itm_b,
            f"{prefix}temperature": self.temperature,
        }

    def clamp_temperature(self):
        lo, hi = TEMPERATURE_BOUNDS
        self.temperature.data[...] = np.clip(self.temperature.data, lo, hi)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def apply_mlm_masking(token_ids: np.ndarray, mask_rate: float,
                      rng: np.random.Generator, vocab_size: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Corrupt tokens for masked-token prediction.

    Each non-special token is picked independently with ``mask_rate``; picked
    tokens become [MASK] 80% of the time, a random content token 10%, and stay
    unchanged 10%.  Labels hold the original ids at picked positions, -1
    elsewhere.
    """
    if not (0.0 <= mask_rate <= 1.0):
        raise ValueError(f"mask_rate {mask_rate} outside [0, 1]")
    token_ids = np.asarray(token_ids)
    corrupted = token_ids.copy()
    labels = np.full_like(token_ids, -1)
    eligible = token_ids >= FIRST_CONTENT_ID
    picked = eligible & (rng.random(token_ids.shape) < mask_rate)
    labels[picked] = token_ids[picked]
    action = rng.random(token_ids.shape)
    to_mask = picked & (action < 0.8)
    to_random = picked & (action >= 0.8) & (action < 0.9)
    corrupted[to_mask] = MASK_ID
    replacements = rng.integers(FIRST_CONTENT_ID, vocab_size, size=token_ids.shape)
    corrupted[to_random] = replacements[to_random]
    return corrupted, labels


# ---------------------------------------------------------------------------
# individual losses
# ---------------------------------------------------------------------------

def mlm_loss(encoded: EncodedBatch, mlm_labels: np.ndarray, heads: PretrainHeads,
             text_start: int) -> tuple[Tensor, int]:
    """Mean cross-entropy of the masked-token head over labeled positions.

    Returns (loss, labeled_count); a batch with nothing masked contributes a
    constant zero with count zero (skip semantics).
    """
    labels = np.asarray(mlm_labels)
    b, lt = labels.shape
    flat_labels = labels.reshape(-1)
    picked = np.nonzero(flat_labels >= 0)[0]
    if picked.size == 0:
        return Tensor(0.0), 0
    states = encoded.token_states
    h = states.shape[-1]
    text_states = ops.slice_axis(states, 1, text_start, text_start + lt)
    flat = ops.reshape(text_states, (b * lt, h))
    selected = ops.gather_rows(flat, picked)
    logits = ops.linear(selected, heads.mlm_w, heads.mlm_b)
    return ops.cross_entropy(logits, flat_labels[picked]), int(picked.size)


def itm_loss(cls_visual: Tensor, cls_textual: Tensor, labels: np.ndarray,
             heads: PretrainHeads) -> Tensor:
    """2-way softmax match head on concatenated [CLS] pairs."""
    labels = np.asarray(labels)
    if np.any((labels != 0) & (labels != 1)):
        raise ValueError("itm labels must be 0/1")
    pair = ops.concat([cls_visual, cls_textual], axis=1)
    logits = ops.linear(pair, heads.itm_w, heads.itm_b)
    return ops.cross_entropy(logits, labels)


def itc_loss(visual_reps: Tensor, textual_reps: Tensor, temperature) -> Tensor:
    """Symmetric contrastive loss over the temperature-scaled cosine matrix.

    Both directions cross-entropy against the diagonal pairing, averaged.
    """
    if isinstance(temperature, Tensor):
        if float(temperature.data) <= 0.0:
            raise ValueError("temperature must be positive")
        inv_t = ops.pow_const(temperature, -1.0)
    else:
        if temperature <= 0.0:
            raise ValueError("temperature must be positive")
        inv_t = Tensor(1.0 / float(temperature))
    if visual_reps.shape != textual_reps.shape:
        raise ShapeError(f"rep shapes disagree: {list(visual_reps.shape)} vs "
                         f"{list(textual_reps.shape)}")
    b = visual_reps.shape[0]

    def unit_rows(x):
        ssum = ops.sum(ops.mul(x, x), axis=1)
        return ops.rowwise_scale(x, ops.pow_const(ssum, -0.5))

    sims = ops.matmul(unit_rows(visual_reps),
                      ops.permute(unit_rows(textual_reps), (1, 0)))
    sims = ops.mul(sims, inv_t)
    targets = np.arange(b)
    i2t = ops.cross_entropy(sims, targets)
    t2i = ops.cross_entropy(ops.permute(sims, (1, 0)), targets)
    return ops.scale(ops.add(i2t, t2i), 0.5)


# ---------------------------------------------------------------------------
# combined loss and training step
# ---------------------------------------------------------------------------

@dataclass
class FrozenStep:
    """Pins every stochastic/non-differentiable choice of one combined-loss
    evaluation so repeated calls are a smooth function of the parameters
    (used by finite-difference checks)."""

    corrupted_ids: np.ndarray
    mlm_labels: np.ndarray
    overrides: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def _derange(batch: UnifiedBatch) -> UnifiedBatch:
    """Negative pairs: image i against text (i+1) mod B."""
    if batch.size < 2:
        raise SamplingError("need batch size >= 2 to build matching negatives")
    return UnifiedBatch(kind="image_text",
                        token_ids=np.roll(batch.token_ids, -1, axis=0),
                        patch_features=batch.patch_features)


def _capture(unified, key, captured):
    if captured is not None:
        captured.overrides[key] = {}
        if unified.selections_v:
            captured.overrides[key]["visual"] = np.array(
                [s.indices for s in unified.selections_v])
        if unified.selections_t:
            captured.overrides[key]["textual"] = np.array(
                [s.indices for s in unified.selections_t])


def combined_pretrain_loss(batch: UnifiedBatch, model: VisionLanguageModel,
                           pools: PromptPools, heads: PretrainHeads,
                           config: ModelConfig,
                           rng: np.random.Generator | None = None,
                           frozen: FrozenStep | None = None,
                           capture: bool = False):
    """All four objectives on an image-text batch.

    Returns (total loss Tensor, PretrainLossReport, FrozenStep | None).  Five
    encoder passes run per call: masked text (token prediction), paired and
    deranged (matching), image-only and text-only (contrastive).  The pool
    pull loss uses the same-modality selections of the paired pass.  Passing
    ``frozen`` replays a captured step's masking and selections.
    """
    if batch.kind != "image_text":
        raise ValueError(f"pre-training needs image_text batches, got {batch.kind!r}")
    batch.validate(config)
    b = batch.size
    captured = FrozenStep(np.empty(0), np.empty(0)) if capture else None

    if frozen is not None:
        corrupted, labels = frozen.corrupted_ids, frozen.mlm_labels
    else:
        if rng is None:
            raise ValueError("combined_pretrain_loss needs an rng when not frozen")
        corrupted, labels = apply_mlm_masking(batch.token_ids, config.mask_rate,
                                              rng, config.vocab_size)
    if captured is not None:
        captured.corrupted_ids = corrupted
        captured.mlm_labels = labels

    def ov(key):
        return frozen.overrides.get(key) if frozen is not None else None

    # 1) masked-text pass -> token prediction
    masked_batch = UnifiedBatch(kind="image_text", token_ids=corrupted,
                                patch_features=batch.patch_features)
    enc_mlm, uni_mlm = model.forward(masked_batch, pools, select_override=ov("mlm"))
    _capture(uni_mlm, "mlm", captured)
    l_mlm, masked_count = mlm_loss(enc_mlm, labels, heads,
                                   uni_mlm.layout.text.start)

    # 2) paired pass -> positive matching + pool pull loss
    enc_pos, uni_pos = model.forward(batch, pools, select_override=ov("itm_pos"))
    _capture(uni_pos, "itm_pos", captured)

    # 3) deranged pass -> negative matching
    neg_batch = _derange(batch)
    enc_neg, uni_neg = model.forward(neg_batch, pools, select_override=ov("itm_neg"))
    _capture(uni_neg, "itm_neg", captured)

    cls_v = ops.concat([enc_pos.cls_visual, enc_neg.cls_visual], axis=0)
    cls_t = ops.concat([enc_pos.cls_textual, enc_neg.cls_textual], axis=0)
    itm_labels = np.concatenate([np.ones(b, dtype=np.int64),
                                 np.zeros(b, dtype=np.int64)])
    l_itm = itm_loss(cls_v, cls_t, itm_labels, heads)

    # 4) single-modality passes -> contrastive alignment
    img_batch = UnifiedBatch(kind="image_only",
                             patch_features=batch.patch_features)
    txt_batch = UnifiedBatch(kind="text_only", token_ids=batch.token_ids)
    enc_img, uni_img = model.forward(img_batch, pools, select_override=ov("itc_v"))
    _capture(uni_img, "itc_v", captured)
    enc_txt, uni_txt = model.forward(txt_batch, pools, select_override=ov("itc_t"))
    _capture(uni_txt, "itc_t", captured)
    l_itc = itc_loss(enc_img.cls_visual, enc_txt.cls_textual, heads.temperature)

    # 5) pool pull loss over the paired pass's same-modality selections
    l_p = surrogate_loss(uni_pos.selections_v + uni_pos.selections_t,
                         batch_size=b)

    total = ops.add(
        l_mlm,
        ops.add(ops.scale(l_itm, config.sigma),
                ops.add(ops.scale(l_itc, config.lambda_),
                        ops.scale(l_p, config.beta))))

    report = PretrainLossReport(
        l_mlm=l_mlm.item(), l_itm=l_itm.item(), l_itc=l_itc.item(),
        l_p=l_p.item(), l_total=total.item(),
        masked_token_count=masked_count, itm_pair_count=2 * b)
    return total, report, captured


def pretrain_step(batch: UnifiedBatch, model: VisionLanguageModel,
                  pools: PromptPools, heads: PretrainHeads,
                  optimizer: AdamW, config: ModelConfig,
                  rng: np.random.Generator) -> PretrainLossReport:
    """One forward/backward/update; deterministic given (seed, step)."""
    optimizer.zero_grad()
    total, report, _ = combined_pretrain_loss(batch, model, pools, heads,
                                              config, rng=rng)
    if not np.isfinite(report.l_total):
        raise NumericError(f"non-finite pre-training loss: {report}")
    backward(total)
    optimizer.step()
    heads.clamp_temperature()
    return report


def end_to_end_fd_case(seeds: int = 100, tol: float = 1e-5, h: float = 1e-5,
                       coords_per_param: int = 4) -> float:
    """fd-check the combined loss on a 2-layer config across seeds.

    Selections and masking are captured once per seed and replayed so the
    loss is a smooth function of the parameters (the selection path is
    non-differentiable by design).  Returns the worst relative error.
    """
    from .ndtensor import fd_check
    from .pools import PromptPools as _Pools

    config = ModelConfig(d_text=10, d_vision=8, d_hidden=16, n_layers=2,
                         n_heads=2, vocab_size=32, max_text_len=5,
                         patch_count=4, patch_dim=6, pool_size_v=8,
                         pool_size_t=8, prompt_len_v=2, prompt_len_t=2,
                         n_sel=2, batch_size=2)
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        model = VisionLanguageModel(config, rng)
        pools = _Pools(config, rng)
        heads = PretrainHeads(config, rng)
        token_ids = np.zeros((2, config.max_text_len), dtype=np.int64)
        token_ids[:, :4] = rng.integers(FIRST_CONTENT_ID, config.vocab_size,
                                        size=(2, 4))
        batch = UnifiedBatch(
            kind="image_text", token_ids=token_ids,
            patch_features=rng.normal(size=(2, config.patch_count,
                                            config.patch_dim)))
        _, _, frozen = combined_pretrain_loss(batch, model, pools, heads,
                                              config, rng=rng, capture=True)

        def f():
            total, _, _ = combined_pretrain_loss(batch, model, pools, heads,
                                                 config, frozen=frozen)
            return total

        params = {
            "text_table": model.text_table,
            "patch_proj_w": model.patch_proj_w,
            "cls_t": model.cls_t,
            "wq0": model.layers[0].wq,
            "w1_1": model.layers[1].w1,
            "ln1_g0": model.layers[0].ln1_g,
            "vis_keys": pools.visual.keys,
            "txt_values": pools.textual.values,
            "role_v": pools.visual.role_embeddings["as_visual_context"],
            "vis_to_txt": pools.vis_to_txt,
            "mlm_w": heads.mlm_w,
            "itm_w": heads.itm_w,
            "temperature": heads.temperature,
        }
        report = fd_check(f, params, h=h, tol=tol,
                          coords_per_param=coords_per_param,
                          rng=np.random.default_rng(seed + 1))
        worst = max(worst, report.max_rel_error)
    return worst
