"""Run configuration with the standard defaults (n=32, m=256, d_out=128)."""

import json
from dataclasses import asdict, dataclass, fields

from .errors import InvalidConfigError

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
        for name in ("n", "m"):
            if getattr(self, name) < 3:
                raise InvalidConfigError(f"{name} must be >= 3, got {getattr(self, name)}")
        for name in (
            "d_out", "d", "n_layers", "bottleneck", "vocab", "batch_size",
            "n_probe", "candidate_k", "final_k",
        ):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("pretrain_steps", "finetune_steps", "extend_steps"):
            if getattr(self, name) < 0:
                raise InvalidConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise InvalidConfigError(f"mask_rate must lie in [0, 1], got {self.mask_rate}")

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")
        raw.update(overrides)
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)
