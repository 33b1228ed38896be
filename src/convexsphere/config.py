"""Experiment configuration shared by the command-line drivers.

One flat frozen dataclass covers every command; unused fields stay
None.
Configs parse from key=value pairs or a JSON file, round-trip
losslessly through to_dict/from_dict, and reject unknown keys with
the list of valid ones, so a typo never silently runs defaults.
from_dict types every value through one function, so a JSON config is
typed like the command line and a wrong type is refused by key.
"""

import dataclasses
import json
import typing
from dataclasses import dataclass

from .errors import ConfigError


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
        unknown = sorted(set(data) - set(_HINTS))
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; valid keys: {sorted(_HINTS)}"
            )
        return cls(**{k: _typed(k, v) for k, v in data.items()})

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
    """{key: text} of ["n=3", "eps=0.05", ...]; from_dict types the text."""
    data = {}
    for pair in pairs:
        key, eq, raw = pair.partition("=")
        if not eq:
            raise ConfigError(f"expected key=value, got {pair!r}")
        data[key.strip()] = raw
    return data


def _typed(key: str, value):
    """`value` as the type that field `key` declares. A string parses as
    key=value text ("none" or "null" is None, a tuple is comma-separated
    floats); any other value must already have the declared type, where
    an int passes for a float and a list for a tuple."""
    hint = _HINTS[key]
    kind, *optional = typing.get_args(hint) or (hint,)
    try:
        if isinstance(value, str):
            value = _parse(kind, value.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    real = (int, float)  # matched by exact type, so a bool is not a number
    if value is None and optional:
        return None
    if kind is tuple and isinstance(value, (list, tuple)) and all(type(x) in real for x in value):
        return tuple(map(float, value))
    if kind is float and type(value) in real:
        return float(value)
    if kind in (int, str, bool) and type(value) is kind:
        return value
    expected = kind.__name__ + (" or null" if optional else "")
    raise ConfigError(f"bad value for {key}: expected {expected}, got {value!r}")


def _parse(kind: type, raw: str):
    if raw.lower() in ("none", "null"):
        return None
    if kind is tuple:
        return tuple(float(x) for x in raw.split(",") if x)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw}")
    return kind(raw)


_HINTS = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
