"""Run configuration with the standard defaults (n=32, m=256, d_out=128)."""

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

from .errors import InvalidConfigError, ParseError

_LEAST = dict(  # the smallest value of each bounded integer field
    n=3, m=3, d_out=1, d=1, n_layers=1, bottleneck=1, vocab=1, seed=0, batch_size=1,
    pretrain_steps=0, finetune_steps=0, extend_steps=0, n_probe=1, candidate_k=1, final_k=1,
)


@dataclass
class RunConfig:
    # sequence / embedding geometry
    n: int = 32
    m: int = 256
    d_out: int = 128
    # toy encoder shape
    d: int = 32
    n_layers: int = 2
    bottleneck: int = 8
    vocab: int = 1024
    # training
    seed: int = 0
    batch_size: int = 8
    learning_rate: float = 0.1
    mask_rate: float = 0.15
    pretrain_steps: int = 200
    finetune_steps: int = 200
    extend_steps: int = 100
    # search
    n_probe: int = 8
    candidate_k: int = 1000
    final_k: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            number, kind = (Real, "a number") if f.type is float else (Integral, "an integer")
            if isinstance(value, bool) or not isinstance(value, number):  # a bool is an Integral too
                raise InvalidConfigError(f"{f.name} must be {kind}, got {value!r}")
            if value < _LEAST.get(f.name, value):
                raise InvalidConfigError(f"{f.name} must be >= {_LEAST[f.name]}, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise InvalidConfigError(f"learning_rate must be a finite number >= 0, got {self.learning_rate}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise InvalidConfigError(f"mask_rate must lie in [0, 1], got {self.mask_rate}")

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise ParseError(f"{path} is not UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ParseError(f"{path} holds a JSON {type(raw).__name__}, not an object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update(overrides)
        return cls(**raw)
