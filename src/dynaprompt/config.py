"""Model configuration: every dimension, pool size, loss weight and schedule knob.

The JSON config file maps 1:1 onto :class:`ModelConfig` fields (the loss
weight ``lambda`` maps to the attribute ``lambda_``, and only ``lambda``
names it in JSON).  Unknown keys are hard errors so a typo can never
silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

__all__ = ["ModelConfig", "ConfigError",
           "PAD_ID", "MASK_ID", "BOS_ID", "EOS_ID", "SPECIAL_IDS",
           "FIRST_CONTENT_ID"]

# Reserved token ids; content tokens start after them.
PAD_ID = 0
MASK_ID = 1
BOS_ID = 2
EOS_ID = 3
SPECIAL_IDS = (PAD_ID, MASK_ID, BOS_ID, EOS_ID)
FIRST_CONTENT_ID = 4


class ConfigError(ValueError):
    """Invalid, inconsistent or unknown configuration."""


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


@dataclass
class ModelConfig:
    # embedding geometry
    d_text: int = 32
    d_vision: int = 24
    d_hidden: int = 64
    n_layers: int = 2
    n_heads: int = 4
    vocab_size: int = 256
    max_text_len: int = 16
    patch_count: int = 16
    patch_dim: int = 12

    # prompt pools
    pool_size_v: int = 64
    pool_size_t: int = 64
    prompt_len_v: int = 4
    prompt_len_t: int = 4
    n_sel: int = 5

    # loss weights (matching-head / contrastive / pool-pull)
    sigma: float = 0.9
    lambda_: float = 0.8
    beta: float = 0.9

    # pre-training objectives
    mask_rate: float = 0.15
    temperature_init: float = 0.07

    # optimization / schedule
    lr: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 8
    steps: int = 500
    checkpoint_every: int = 100
    finetune_steps: int = 300
    seed: int = 0
    freeze_backbone: bool = False
    freeze_pools: bool = False

    # caption decoder
    dec_layers: int = 2
    dec_heads: int = 4
    dec_context: int = 64
    max_gen_len: int = 12

    # synthetic corpus
    corpus_pairs: int = 32
    corpus_concepts: int = 8
    concepts_per_pair: int = 2

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # a float field takes a JSON int; bool, an int subclass, is no number
            number = {"int": numbers.Integral, "float": numbers.Real}.get(f.type)
            ok = (isinstance(value, bool) if number is None else
                  isinstance(value, number) and not isinstance(value, bool))
            if not ok:
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            # JSON reads NaN and Infinity, and 1e999 as inf
            if f.type == "float" and not _finite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        positive = [
            "d_text", "d_vision", "d_hidden", "n_heads", "vocab_size",
            "max_text_len", "patch_count", "patch_dim", "pool_size_v",
            "pool_size_t", "prompt_len_v", "prompt_len_t", "n_sel",
            "batch_size", "dec_heads", "dec_context", "max_gen_len",
            "corpus_pairs", "corpus_concepts", "concepts_per_pair",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ["n_layers", "dec_layers", "steps", "finetune_steps",
                     "checkpoint_every", "seed"]:
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.d_hidden % self.n_heads != 0:
            raise ConfigError(f"d_hidden {self.d_hidden} not divisible by "
                              f"n_heads {self.n_heads}")
        if self.d_hidden % self.dec_heads != 0:
            raise ConfigError(f"d_hidden {self.d_hidden} not divisible by "
                              f"dec_heads {self.dec_heads}")
        if not (0.0 < self.mask_rate < 1.0):
            raise ConfigError(f"mask_rate must lie in (0, 1), got {self.mask_rate}")
        if self.n_sel > self.pool_size_v or self.n_sel > self.pool_size_t:
            raise ConfigError(f"n_sel {self.n_sel} exceeds a pool size "
                              f"({self.pool_size_v}/{self.pool_size_t})")
        if self.vocab_size <= FIRST_CONTENT_ID:
            raise ConfigError(f"vocab_size must exceed {FIRST_CONTENT_ID}")
        if self.temperature_init <= 0.0:
            raise ConfigError("temperature_init must be positive")
        if self.lr < 0.0 or self.weight_decay < 0.0:
            raise ConfigError("lr and weight_decay must be >= 0")

    # -- JSON round trip ----------------------------------------------------

    _JSON_ALIASES = {"lambda": "lambda_"}

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["lambda"] = d.pop("lambda_")
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        # JSON key -> field: a field with an alias has no other key
        names = {f.name: f.name for f in dataclasses.fields(cls)}
        for key, name in cls._JSON_ALIASES.items():
            names[key] = names.pop(name)
        kwargs = {}
        for key, value in raw.items():
            if key not in names:
                raise ConfigError(f"unknown config key: {key!r}")
            kwargs[names[key]] = value
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(raw)

    @classmethod
    def load(cls, path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
