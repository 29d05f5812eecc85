import os

# Thread-spawn overhead dominates BLAS at desk-scale shapes; must be set
# before numpy's first import to take effect.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from dynaprompt.config import ModelConfig
from dynaprompt.encoder import UnifiedBatch
from dynaprompt.pools import PromptPools


@pytest.fixture
def desk_config():
    return ModelConfig()


@pytest.fixture
def tiny_config():
    """Small geometry for gradient checks and fast structural tests."""
    return ModelConfig(d_text=10, d_vision=8, d_hidden=16, n_layers=2,
                       n_heads=2, vocab_size=32, max_text_len=5,
                       patch_count=4, patch_dim=6, pool_size_v=8,
                       pool_size_t=8, prompt_len_v=2, prompt_len_t=2,
                       n_sel=2, batch_size=2, dec_layers=1, dec_heads=2,
                       dec_context=32, corpus_pairs=8, corpus_concepts=4)


def make_batch(config, kind, batch_size, rng, text_len=None):
    """Random batch of the requested kind; text rows hold ``text_len``
    content tokens, then padding."""
    token_ids = None
    patches = None
    if kind in ("text_only", "image_text"):
        token_ids = np.zeros((batch_size, config.max_text_len), dtype=np.int64)
        n = text_len if text_len is not None else config.max_text_len
        token_ids[:, :n] = rng.integers(4, config.vocab_size, size=(batch_size, n))
    if kind in ("image_only", "image_text"):
        patches = rng.normal(size=(batch_size, config.patch_count, config.patch_dim))
    return UnifiedBatch(kind=kind, token_ids=token_ids, patch_features=patches)


@pytest.fixture
def batch_factory():
    return make_batch


@pytest.fixture
def pools_factory():
    return lambda config, seed=0: PromptPools(config, np.random.default_rng(seed))
