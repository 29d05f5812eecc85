"""Deterministic synthetic image-text corpus driven by latent concepts.

Each latent concept injects a fixed patch motif (a large activation at a
concept-specific (patch, channel) slot) into the image and a fixed token
trigram into the text, so every pair's modalities share its concepts and all
cross-modal objectives are learnable.  The injection is invertible: concepts
can be re-extracted from a patch grid by thresholding the motif slots.

Pair ``i`` is generated from its own seed (``seed ^ i``), so generation is
order-independent and bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .config import FIRST_CONTENT_ID, ConfigError, ModelConfig

__all__ = ["CorpusSpec", "CorpusPair", "SyntheticCorpus", "gen_corpus",
           "concept_ngram", "concept_slot", "extract_concepts"]

MOTIF_GAIN = 4.0
NOISE_SCALE = 0.25
NGRAM_LEN = 3


@dataclass
class CorpusSpec:
    n_pairs: int
    n_concepts: int
    patch_count: int = 16
    patch_dim: int = 12
    text_len: int = 16
    vocab_size: int = 256
    concepts_per_pair: int = 2

    def __post_init__(self):
        if self.n_concepts > self.patch_count * self.patch_dim:
            raise ConfigError("more concepts than distinct motif slots")
        if self.text_len < self.concepts_per_pair * NGRAM_LEN:
            raise ConfigError("text_len too short for the concept trigrams")
        if self.concepts_per_pair not in (1, 2):
            raise ConfigError("concepts_per_pair must be 1 or 2")

    @classmethod
    def from_model_config(cls, config: ModelConfig,
                          n_pairs: int | None = None) -> "CorpusSpec":
        return cls(n_pairs=n_pairs if n_pairs is not None else config.corpus_pairs,
                   n_concepts=config.corpus_concepts,
                   patch_count=config.patch_count, patch_dim=config.patch_dim,
                   text_len=config.max_text_len, vocab_size=config.vocab_size,
                   concepts_per_pair=config.concepts_per_pair)


@dataclass
class CorpusPair:
    patches: np.ndarray        # [patch_count, patch_dim]
    tokens: np.ndarray         # int, variable length <= text_len, no padding
    answer_label: int          # concept queried by the synthetic question
    class_label: int           # primary concept
    concepts: tuple[int, ...]


@dataclass
class SyntheticCorpus:
    spec: CorpusSpec
    seed: int
    pairs: list[CorpusPair] = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


def concept_slot(concept: int, spec: CorpusSpec) -> tuple[int, int]:
    """The (patch, channel) cell carrying this concept's motif."""
    return concept % spec.patch_count, (concept // spec.patch_count) % spec.patch_dim


def concept_ngram(concept: int, spec: CorpusSpec) -> list[int]:
    """The token trigram expressing this concept in text."""
    span = spec.vocab_size - FIRST_CONTENT_ID
    return [FIRST_CONTENT_ID + (NGRAM_LEN * concept + j) % span
            for j in range(NGRAM_LEN)]


def _pair_concepts(index: int, spec: CorpusSpec) -> tuple[int, ...]:
    c = spec.n_concepts
    primary = index % c
    if spec.concepts_per_pair == 1 or c == 1:
        return (primary,)
    shift = 1 + (index // c) % (c - 1)
    return (primary, (primary + shift) % c)


def gen_corpus(spec: CorpusSpec, seed: int) -> SyntheticCorpus:
    """Generate ``spec.n_pairs`` image-text pairs, bit-identical per seed."""
    pairs = []
    for i in range(spec.n_pairs):
        rng = np.random.default_rng(seed ^ i)
        concepts = _pair_concepts(i, spec)

        patches = NOISE_SCALE * rng.standard_normal((spec.patch_count,
                                                     spec.patch_dim))
        for c in concepts:
            slot, chan = concept_slot(c, spec)
            patches[slot, chan] += MOTIF_GAIN

        tokens = []
        for c in concepts:
            tokens.extend(concept_ngram(c, spec))
        length = int(rng.integers(len(tokens), spec.text_len + 1))
        filler = rng.integers(FIRST_CONTENT_ID, spec.vocab_size,
                              size=length - len(tokens))
        tokens = np.array(tokens + list(filler), dtype=np.int64)

        pairs.append(CorpusPair(patches=patches, tokens=tokens,
                                answer_label=concepts[-1],
                                class_label=concepts[0], concepts=concepts))
    return SyntheticCorpus(spec=spec, seed=seed, pairs=pairs)


def extract_concepts(patches: np.ndarray, spec: CorpusSpec) -> set[int]:
    """Inverse of the motif injection: which concepts mark this patch grid."""
    found = set()
    for c in range(spec.n_concepts):
        slot, chan = concept_slot(c, spec)
        if patches[slot, chan] > MOTIF_GAIN / 2.0:
            found.add(c)
    return found


# ---------------------------------------------------------------------------
# serialization (gen-corpus CLI output)
# ---------------------------------------------------------------------------

def corpus_to_json(corpus: SyntheticCorpus) -> str:
    doc = {
        "spec": corpus.spec.__dict__,
        "seed": corpus.seed,
        "pairs": [{
            "patches": pair.patches.tolist(),
            "tokens": pair.tokens.tolist(),
            "answer_label": pair.answer_label,
            "class_label": pair.class_label,
            "concepts": list(pair.concepts),
        } for pair in corpus.pairs],
    }
    return json.dumps(doc, indent=1, sort_keys=True)

