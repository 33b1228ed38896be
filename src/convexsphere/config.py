"""Experiment configuration shared by the command-line drivers.

One flat frozen dataclass covers every subcommand; unused fields stay
None.
Configs parse from key=value pairs or a JSON file, round-trip
losslessly through to_dict/from_dict, and reject unknown keys with
the list of valid ones, so a typo never silently runs defaults.
"""

import dataclasses
import json
from dataclasses import dataclass

from .errors import ConfigError

_TUPLE_KEYS = {"axes"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    n: int = 3
    ambient_n: int | None = None
    d: int = 8
    d_max: int | None = None
    eps: float | None = None
    seed: int = 0
    resolution: int | None = None
    samples: int = 500
    trials: int = 100
    count: int = 16
    tol: float | None = None
    axes: tuple | None = None
    group: str | None = None
    family: str | None = None
    body_a: str | None = None
    body_b: str | None = None
    body: str | None = None
    vertices: str | None = None
    chain: bool = False
    elementary: bool = False
    allow_even: bool = False
    out: str | None = None

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        valid = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; valid keys: {sorted(valid)}"
            )
        return cls(**{
            k: tuple(v) if k in _TUPLE_KEYS and v is not None else v for k, v in data.items()
        })

    @classmethod
    def from_pairs(cls, pairs) -> "ExperimentConfig":
        """Parse ["n=3", "eps=0.05", ...] with types taken from the
        field declarations."""
        return cls.from_dict(_parse_pairs(pairs))

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"no such config file: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {path} at line {exc.lineno}: {exc.msg}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)


def _parse_pairs(pairs) -> dict:
    """{key: value} of ["n=3", "eps=0.05", ...], each value coerced to
    its field's declared type."""
    valid = {f.name for f in dataclasses.fields(ExperimentConfig)}
    data = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in valid:
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {sorted(valid)}"
            )
        data[key] = _coerce(key, raw.strip())
    return data


def _coerce(key: str, raw: str):
    if key in _TUPLE_KEYS:
        return tuple(float(x) for x in raw.split(",") if x)
    if raw.lower() in ("none", "null"):
        return None
    hints = {f.name: str(f.type) for f in dataclasses.fields(ExperimentConfig)}
    hint = hints[key]
    try:
        if "bool" in hint:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw}")
        if "int" in hint:
            return int(raw)
        if "float" in hint:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    return raw
