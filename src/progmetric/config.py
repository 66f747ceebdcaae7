"""Run configuration: JSON file -> validated dataclasses.

Unknown keys are rejected with the offending path so typos fail fast.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .losses import HyperParams
from .model import ModelConfig, OptimizerConfig
from .sampler import BatchSpec
from .synthetic import SynthSpec
from .trainer import PlaConfig


class ConfigError(ValueError):
    """Configuration file is malformed or violates a constraint."""


@dataclass(frozen=True)
class SplitConfig:
    query_per_identity: int = 4
    open_set: bool = False
    test_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction!r}")


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "runs/out"
    data: SynthSpec = field(default_factory=lambda: SynthSpec(
        n_identities=64, samples_per_identity=16, dim=32))
    split: SplitConfig = field(default_factory=SplitConfig)
    batch: BatchSpec = field(default_factory=lambda: BatchSpec(16, 8))
    model: ModelConfig = field(default_factory=ModelConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    pla: PlaConfig = field(default_factory=PlaConfig)
    fixed_w: HyperParams = field(default_factory=lambda: HyperParams(
        lam=1.0, margin=0.2, k=1, p=1))
    epochs: int | None = None  # budget for fixed modes; defaults to pla.max_epochs


_SECTION_TYPES = {
    "data": SynthSpec,
    "split": SplitConfig,
    "batch": BatchSpec,
    "model": ModelConfig,
    "optimizer": OptimizerConfig,
    "pla": PlaConfig,
    "fixed_w": HyperParams,
}


# section fields a run always sets from elsewhere, so a config value is rejected
_SET_ELSEWHERE = {PlaConfig: {"batch_spec": "the top-level batch section"},
                  SynthSpec: {"seed": "the top-level seed"},
                  ModelConfig: {"n_classes": "the training labels",
                                "d_in": "data.dim"}}


# the JSON types a value may have for each declared scalar field type; a
# bool is no number here, though Python counts it as an int
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,)}


def _check_type(field_type, value, path):
    allowed = _JSON_TYPES.get(field_type)
    if allowed is not None and type(value) not in allowed:
        raise ConfigError(f"{path}: expected {field_type}, got {value!r}")


def _build(cls, data, path):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    derived = _SET_ELSEWHERE.get(cls, {})
    field_types = {f.name: f.type for f in dataclasses.fields(cls)}
    allowed = field_types.keys() - derived.keys()
    unknown = sorted(set(data) - allowed)
    if unknown:
        notes = "".join(f"; {path}.{k} comes from {derived[k]}" for k in unknown if k in derived)
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(allowed)}{notes}")
    for key, value in data.items():
        _check_type(field_types[key], value, f"{path}.{key}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    field_types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(raw) - field_types.keys())
    if unknown:
        raise ConfigError(f"top level: unknown keys {unknown}; allowed: {sorted(field_types)}")
    epochs = raw.get("epochs")
    if epochs is not None and (type(epochs) is not int or epochs < 1):
        raise ConfigError(f"epochs: expected null or an integer >= 1, got {epochs!r}")
    kwargs = {}
    for key, value in raw.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build(_SECTION_TYPES[key], value, key)
        else:
            _check_type(field_types[key], value, key)
            kwargs[key] = value
    cfg = RunConfig(**kwargs)
    cfg.pla = dataclasses.replace(cfg.pla, batch_spec=cfg.batch)
    cfg.model = dataclasses.replace(cfg.model, d_in=cfg.data.dim)
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(raw)
