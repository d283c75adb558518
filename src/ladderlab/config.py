"""Experiment configuration: parsing, validation, canonical hashing.

Configs are human-edited YAML (JSON is a YAML subset, so plain JSON files
load too).  The canonical hash covers every field that can change computed
values - distribution and growth specs, functional parameters, sample counts,
seeds, caps - and deliberately excludes the parallelism degree, which
affects no byte of the results (simulation is keyed per stream); the output
directory is the `--out` option, not a config field.  Every artifact embeds
the hash, so stale mixes of config and samples are refused instead of
silently estimated.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "Report", "load_config", "jsonify"]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def jsonify(obj):
    """Recursively convert numpy scalars/arrays and tuples for json.dumps."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # inf / nan are not valid JSON scalars
    return obj


class Report:
    """Mixin for a dataclass record whose JSON keys are its field names."""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_NUMBERS = ("eps", "delta", "alpha", "c", "shift")
_FIELD_TYPES = (  # a value of another type is refused, not truncated, parsed or crashed on later
    (("growth", "increments"), dict, "a mapping"),
    (_NUMBERS, (int, float), "a number"),
    (("n_samples", "step_cap", "seed", "streams"), int, "an integer"),
)
_UNSET = ("growth", "increments", "eps", "delta", "alpha", "c")  # None when the config leaves them out


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    growth: dict | None = None
    increments: dict | None = None
    eps: float | None = None
    delta: float | None = None
    alpha: float | None = None
    c: float | None = None
    shift: float = 0.0
    n_samples: int = 10_000
    step_cap: int = 1_000_000
    seed: int = 0
    streams: int = 1

    def __post_init__(self):
        for names, types, what in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is None and name in _UNSET:
                    continue
                if not isinstance(value, types) or isinstance(value, bool):
                    raise ConfigError(f"{name} must be {what}, got {value!r}")
        for name in _NUMBERS:  # an int is finite; an inf or nan float would run or fail later
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        if self.delta is not None and not self.delta > 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if self.alpha is not None and not self.alpha > 0.0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.c is not None and not self.c > 0.0:
            raise ConfigError(f"c must be positive, got {self.c}")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be at least one")
        if self.step_cap < 1:
            raise ConfigError("step_cap must be at least one")
        if self.streams < 1:
            raise ConfigError("streams must be at least one")
        self.shift = float(self.shift)

    def semantic_dict(self) -> dict:
        """Fields that determine computed values, all but the parallelism degree; basis of the config hash."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "streams"}

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)}


def load_config(path, seed_override: int | None = None, streams_override: int | None = None) -> ExperimentConfig:
    """Load and validate a YAML/JSON config; overrides apply before hashing."""
    import yaml  # here, not at the top, so that `import ladderlab` does not load PyYAML

    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if seed_override is not None:
        raw["seed"] = seed_override
    if streams_override is not None:
        raw["streams"] = streams_override
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
