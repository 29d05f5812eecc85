"""Synthetic corpus: determinism, shared concepts, invertible motifs."""

import json

import numpy as np
import pytest

from dynaprompt.corpus import (
    CorpusSpec,
    concept_ngram,
    concept_slot,
    corpus_to_json,
    extract_concepts,
    gen_corpus,
)


class TestGenCorpus:
    def test_same_seed_is_bit_identical(self):
        spec = CorpusSpec(n_pairs=12, n_concepts=6)
        a = gen_corpus(spec, seed=42)
        b = gen_corpus(spec, seed=42)
        for pa, pb in zip(a.pairs, b.pairs):
            np.testing.assert_array_equal(pa.patches, pb.patches)
            np.testing.assert_array_equal(pa.tokens, pb.tokens)
            assert pa.concepts == pb.concepts

    def test_different_seeds_differ(self):
        spec = CorpusSpec(n_pairs=4, n_concepts=4)
        a = gen_corpus(spec, seed=1)
        b = gen_corpus(spec, seed=2)
        assert any(not np.array_equal(pa.patches, pb.patches)
                   for pa, pb in zip(a.pairs, b.pairs))

    def test_single_concept_shared_by_all_pairs(self):
        spec = CorpusSpec(n_pairs=6, n_concepts=1, concepts_per_pair=1)
        corpus = gen_corpus(spec, seed=3)
        assert all(p.concepts == (0,) for p in corpus.pairs)
        # negatives by derangement remain constructible: just needs >= 2 pairs
        assert len(corpus) >= 2

    def test_image_and_text_share_every_pair_concept(self):
        spec = CorpusSpec(n_pairs=20, n_concepts=8)
        corpus = gen_corpus(spec, seed=4)
        for pair in corpus.pairs:
            assert extract_concepts(pair.patches, spec) == set(pair.concepts)
            for c in pair.concepts:
                ngram = concept_ngram(c, spec)
                text = pair.tokens.tolist()
                assert any(text[i:i + 3] == ngram for i in range(len(text) - 2))

    def test_motif_injection_inverts_on_100_samples(self):
        spec = CorpusSpec(n_pairs=100, n_concepts=16)
        corpus = gen_corpus(spec, seed=5)
        for pair in corpus.pairs:
            assert extract_concepts(pair.patches, spec) == set(pair.concepts)

    def test_concept_slots_are_distinct(self):
        spec = CorpusSpec(n_pairs=1, n_concepts=48, patch_count=16, patch_dim=12)
        slots = {concept_slot(c, spec) for c in range(48)}
        assert len(slots) == 48

    def test_labels_follow_concepts(self):
        spec = CorpusSpec(n_pairs=10, n_concepts=5)
        corpus = gen_corpus(spec, seed=6)
        for i, pair in enumerate(corpus.pairs):
            assert pair.class_label == pair.concepts[0] == i % 5
            assert pair.answer_label == pair.concepts[-1]

    def test_token_lengths_within_budget(self):
        spec = CorpusSpec(n_pairs=30, n_concepts=6, text_len=16)
        corpus = gen_corpus(spec, seed=7)
        for pair in corpus.pairs:
            assert 6 <= len(pair.tokens) <= 16
            assert pair.tokens.min() >= 4

    def test_too_many_concepts_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(n_pairs=1, n_concepts=16 * 12 + 1)

    def test_json_round_trip(self):
        spec = CorpusSpec(n_pairs=5, n_concepts=4)
        corpus = gen_corpus(spec, seed=8)
        doc = json.loads(corpus_to_json(corpus))
        assert doc["seed"] == 8
        assert CorpusSpec(**doc["spec"]) == spec
        assert len(doc["pairs"]) == len(corpus.pairs)
        for pair, rec in zip(corpus.pairs, doc["pairs"]):
            # floats go through repr, so the patches come back bit-exact
            np.testing.assert_array_equal(np.array(rec["patches"]), pair.patches)
            np.testing.assert_array_equal(np.array(rec["tokens"]), pair.tokens)
            assert rec["answer_label"] == pair.answer_label
            assert rec["class_label"] == pair.class_label
            assert tuple(rec["concepts"]) == pair.concepts
