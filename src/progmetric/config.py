"""Run configuration: JSON file -> validated dataclasses.

Unknown keys are rejected with the offending path so typos fail fast.
"""

from __future__ import annotations

import dataclasses
import json
import typing
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
        if self.query_per_identity < 1:
            raise ValueError(
                f"query_per_identity must be >= 1, got {self.query_per_identity!r}")
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

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed: expected an integer >= 0, got {self.seed!r}")
        if self.epochs is not None and (type(self.epochs) is not int or self.epochs < 1):
            raise ValueError(f"epochs: expected null or an integer >= 1, got {self.epochs!r}")
        self.pla = dataclasses.replace(self.pla, batch_spec=self.batch)
        self.model = dataclasses.replace(self.model, d_in=self.data.dim)


# section fields a run always sets from elsewhere, so a config value is rejected
_SET_ELSEWHERE = {PlaConfig: {"batch_spec": "the top-level batch section"},
                  SynthSpec: {"seed": "the top-level seed"},
                  ModelConfig: {"n_classes": "the training labels",
                                "d_in": "data.dim"}}


# the JSON types a value may have for each declared scalar field type; a
# bool is no number here, though Python counts it as an int
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _build(cls, data, path=None):
    """cls from a JSON object: unknown keys and JSON types are checked per
    field, dataclass-typed fields are built recursively, then cls's own
    __post_init__ checks the values.  path is the key path of data, None at
    the top level."""
    where = path or "top level"
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    derived = _SET_ELSEWHERE.get(cls, {})
    hints = typing.get_type_hints(cls)
    field_types = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    allowed = field_types.keys() - derived.keys()
    unknown = sorted(set(data) - allowed)
    if unknown:
        notes = "".join(f"; {path}.{k} comes from {derived[k]}" for k in unknown if k in derived)
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}{notes}")
    kwargs = {}
    for key, value in data.items():
        field_type = field_types[key]
        key_path = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(field_type):
            value = _build(field_type, value, key_path)
        elif field_type in _JSON_TYPES and type(value) not in _JSON_TYPES[field_type]:
            raise ConfigError(f"{key_path}: expected {field_type.__name__}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def config_from_dict(raw) -> RunConfig:
    return _build(RunConfig, raw)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")
    return config_from_dict(raw)
