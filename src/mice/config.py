"""Key-value config files: one `key = value` per line, `#` starts a comment.

Keys are the fields of TrainConfig / SyntheticSpec, and each value is parsed by
its field's annotation: `true`/`false` for a bool, an integer, a number, or a
comma list of integers or numbers (an empty value is the empty list). Unknown
keys are rejected by name; missing keys take the documented defaults baked into
the dataclass; a spec key without a default must be given. A byte-order mark
(U+FEFF) at the start of the file is ignored.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .data import SyntheticSpec
from .errors import ConfigError, InvalidSpecError
from .trainer import TrainConfig


def parse_keyvalue(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")  # a leading BOM
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_bool(key: str, value: str) -> bool:
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"key {key!r}: expected true or false, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {value!r} is not a number") from exc


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {value!r} is not an integer") from exc


_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float}


def _parse(key: str, value: str, kind):
    """`value` as the annotated type `kind`; a tuple[T, ...] is a comma list of T."""
    if get_origin(kind) is tuple:
        element = get_args(kind)[0]
        return tuple(_parse(key, part.strip(), element) for part in value.split(",")) if value else ()
    return _PARSERS[kind](key, value)


def _load_fields(path, cls, what: str) -> dict:
    """Parsed values of the key-value file `path` for the fields of dataclass `cls`."""
    types = get_type_hints(cls)
    kwargs = {}
    for key, value in parse_keyvalue(path).items():
        if key not in types:
            raise ConfigError(f"unknown {what} key {key!r}")
        kwargs[key] = _parse(key, value, types[key])
    return kwargs


def load_config(path) -> TrainConfig:
    """Training config from a key-value file; unknown keys are an error."""
    return TrainConfig(**_load_fields(path, TrainConfig, "config"))


def load_synthetic_spec(path) -> SyntheticSpec:
    """Synthetic dataset spec from a key-value file; unknown keys are an error, and so
    are missing keys without a default, all named in one message."""
    kwargs = _load_fields(path, SyntheticSpec, "spec")
    required = [f.name for f in fields(SyntheticSpec) if f.default is MISSING]
    missing = [name for name in required if name not in kwargs]
    if missing:
        raise InvalidSpecError(
            f"missing spec key{'s' * (len(missing) > 1)} {', '.join(map(repr, missing))}"
        )
    return SyntheticSpec(**kwargs)
