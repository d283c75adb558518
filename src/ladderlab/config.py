"""Experiment configuration: parsing, validation, canonical hashing.

Configs are human-edited YAML (JSON is a YAML subset, so plain JSON files
load too).  Every field can change computed values, so the canonical hash
covers them all; the output directory (`--out`) and the worker count
(`LADDERLAB_THREADS`) are not config fields.  Every artifact embeds the hash,
so stale mixes of config and samples are refused instead of silently
estimated.  The `growth` and `increments` family records are checked by
`build_record` against their factory's signature, under the type rule of the
top-level fields.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "Report", "build_record", "load_config", "jsonify"]


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


_PAIRS = "Sequence[Sequence[float]]"  # the annotation of a list of number pairs
_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"), "dict": (dict, "a mapping")}


def _check_value(kind: str, value, name: str) -> None:
    """Refuse a value of the wrong type for the field or parameter `name` annotated `kind`.

    A number is an int or a float with a finite double value and an integer
    an int, neither a bool nor a string: a value of another type is refused,
    not truncated, parsed or crashed on later.  An annotation ending in `| None` admits None.
    """
    if value is None and kind.endswith(" | None"):
        return
    if kind == _PAIRS:
        if not (isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value)):
            raise ConfigError(f"{name} must be a list of number pairs, got {value!r}")
        for number in (v for pair in value for v in pair):
            _check_value("float", number, name)
        return
    types, what = _KINDS[kind.removesuffix(" | None")]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if what == "a number" and (value != value or abs(value) > sys.float_info.max):  # nan, inf or no double
        raise ConfigError(f"{name} must be finite, got {value!r}")


def build_record(record, factories: dict, where: str, nested=None):
    """Call the factory that the `family` tag of the config record at `where` names in `factories`.

    Every other key of the record must name a parameter of that factory, and
    every parameter without a default must be given.  A parameter annotated
    `float` takes a number and one annotated `Sequence[Sequence[float]]` a list
    of number pairs, under the rule of the top-level fields; any other takes a
    nested record, built by `nested(value, "<where>.<key>")`.  Anything else,
    and a ValueError of the factory, is a ConfigError that names the record.
    """
    if not isinstance(record, dict):
        raise ConfigError(f"{where} must be a mapping, got {record!r}")
    family = record.get("family")
    if not (isinstance(family, str) and family in factories):
        raise ConfigError(f"{where}: family must be one of {sorted(factories)}, got {family!r}")
    factory = factories[family]
    params = inspect.signature(factory).parameters
    args = {key: value for key, value in record.items() if key != "family"}
    unknown = [key for key in args if key not in params]
    missing = [name for name, p in params.items() if p.default is p.empty and name not in args]
    if unknown or missing:
        raise ConfigError(f"{where}: {family} takes {list(params)}; unknown keys {unknown}, missing keys {missing}")
    for key, value in args.items():
        kind = params[key].annotation
        if kind in ("float", _PAIRS):
            _check_value(kind, value, f"{where}: {key}")
        else:
            args[key] = nested(value, f"{where}.{key}")
    try:
        return factory(**args)
    except ValueError as exc:  # a parameter out of its family's range
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ExperimentConfig(Report):
    """Validated experiment description; its canonical hash covers every field."""

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

    def __post_init__(self):
        for f in fields(self):
            _check_value(f.type, getattr(self, f.name), f.name)
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must lie in (0, 1), got {self.eps}")
        for name in ("delta", "alpha", "c"):
            if getattr(self, name) is not None and not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("n_samples", "step_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least one")
        if not 0 <= self.seed < 2**64:  # Philox's key is one 64-bit word
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        self.shift = float(self.shift)

    @property
    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)}


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """Load and validate a YAML/JSON config; the seed override applies before hashing."""
    import yaml  # here, not at the top, so that `import ladderlab` does not load PyYAML

    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = [key for key in raw if key not in _KNOWN_KEYS]  # also every key that is not a string
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if seed_override is not None:
        raw["seed"] = seed_override
    return ExperimentConfig(**raw)
