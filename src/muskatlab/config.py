"""Run configuration: strict JSON schema for simulations and diagnostics.

Configs are plain JSON with an explicit schema version; unknown keys are
rejected everywhere so typos fail fast.  Interfaces and boundary data are
described by a constant plus a list of [mode, cos_amp, sin_amp] triples.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from .geometry import InterfacePair, PeriodicFn, PeriodicGrid, make_grid
from .operators import FluidParams

__all__ = ["ConfigError", "SimConfig", "WaveSpec"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The configuration file is malformed or violates the schema."""


@dataclass(frozen=True)
class WaveSpec:
    """A periodic profile: constant offset plus a few Fourier modes."""

    const: float = 0.0
    modes: tuple = ()  # entries (m, cos_amp, sin_amp)

    def __post_init__(self):
        # the JSON reader's rules; its messages prefix these names with the key
        if not (isinstance(self.modes, (list, tuple))
                and all(isinstance(e, (list, tuple)) and len(e) == 3 for e in self.modes)):
            raise ConfigError("modes entries must be [m, cos_amp, sin_amp]")
        modes = []
        for m, cos_amp, sin_amp in self.modes:
            m = _typed(m, int, "modes mode number")
            if m <= 0:
                raise ConfigError("modes: mode numbers must be positive")
            modes.append((m, _typed(cos_amp, float, "modes amplitude"),
                          _typed(sin_amp, float, "modes amplitude")))
        object.__setattr__(self, "modes", tuple(modes))
        object.__setattr__(self, "const", _typed(self.const, float, "const"))

    def build(self, grid: PeriodicGrid) -> PeriodicFn:
        vals = np.full(grid.n_x, self.const)
        for m, ca, sa in self.modes:
            vals += ca * np.cos(m * grid.nodes) + sa * np.sin(m * grid.nodes)
        return PeriodicFn(grid, vals)

    @staticmethod
    def from_dict(obj: dict, where: str) -> "WaveSpec":
        _reject_unknown(obj, {f.name for f in fields(WaveSpec)}, where)
        try:
            return WaveSpec(const=obj.get("const", 0.0), modes=obj.get("modes", []))
        except ConfigError as exc:
            raise ConfigError(f"{where}.{exc}") from None

    def to_dict(self) -> dict:
        return {"const": self.const, "modes": [list(m) for m in self.modes]}


_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}


def _typed(value, kind: type, where: str):
    """value as kind (int, float, bool or str), or a ConfigError naming where.

    Booleans are not numbers, and an integer must be integral: 16.0 reads
    as 16, while 16.7 is an error rather than 16, and so are NaN and Infinity.
    """
    if kind in (bool, str):
        ok = isinstance(value, kind)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    if ok:
        try:
            value = kind(value)
        except OverflowError:
            ok = False
    if ok and (kind is not float or np.isfinite(value)):
        return value
    raise ConfigError(f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _reject_unknown(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass(frozen=True)
class SimConfig:
    """Everything a simulation run needs, validated on construction."""

    n_x: int
    n_y: int
    params: FluidParams
    f0: WaveSpec = field(default_factory=WaveSpec)
    h0: WaveSpec = field(default_factory=lambda: WaveSpec(const=1.0))
    b: WaveSpec = field(default_factory=WaveSpec)
    t_end: float = 1.0
    rtol: float = 1e-6
    atol: float = 1e-9
    dt_init: float = 1e-3
    dt_max: float = 0.1
    surface_tension: bool = False
    stop_on_rt: bool = False
    out_dir: str | None = None
    snapshot_stride: int = 10

    def __post_init__(self):
        # each scalar as its kind, by the JSON reader's rule, and each record of
        # its class, before any range check
        for name, (kind, nullable) in _FIELDS.items():
            value = getattr(self, name)
            if nullable and value is None:
                continue
            if kind in _TYPE_NAMES:
                object.__setattr__(self, name, _typed(value, kind, name))
            elif not isinstance(value, kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
        for name in ("t_end", "rtol", "atol", "dt_init", "dt_max"):
            val = getattr(self, name)
            if val <= 0:
                raise ConfigError(f"{name} must be positive and finite, got {val}")
        if self.n_x < 8 or self.n_x % 2:
            raise ConfigError(f"n_x must be even and >= 8, got {self.n_x}")
        for where, spec in (("initial.f", self.f0), ("initial.h", self.h0), ("b", self.b)):
            for m, _, _ in spec.modes:
                if 2 * m >= self.n_x:  # sampled on n_x nodes, it would alias to a lower mode
                    raise ConfigError(f"{where}.modes: mode {m} must lie below the Nyquist "
                                      f"mode {self.n_x // 2} of n_x = {self.n_x}")
        if self.n_y < 8:
            raise ConfigError(f"n_y must be >= 8, got {self.n_y}")
        if self.snapshot_stride < 1:
            raise ConfigError("snapshot_stride must be >= 1")

    def initial_state(self) -> tuple[InterfacePair, PeriodicFn]:
        """The initial pair, with params.d as its bottom height, and the bottom pressure."""
        grid = make_grid(self.n_x)
        return (InterfacePair(self.f0.build(grid), self.h0.build(grid), self.params.d),
                self.b.build(grid))

    @staticmethod
    def from_dict(obj: dict) -> "SimConfig":
        _reject_unknown(obj, {"schema", "initial", *_FIELDS} - set(_INITIAL), "config")
        schema = obj.get("schema")
        if isinstance(schema, bool) or schema != SCHEMA_VERSION:
            raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        for key in _REQUIRED:
            if key not in obj:
                raise ConfigError(f"missing required config key {key!r}")
        initial = set(_INITIAL.values())
        _reject_unknown(obj["initial"], initial, "initial")
        if not initial <= set(obj["initial"]):
            raise ConfigError("initial must contain 'f' and 'h'")
        kwargs = {}
        for name, (kind, nullable) in _FIELDS.items():
            if name in _INITIAL:
                key = _INITIAL[name]
                kwargs[name] = WaveSpec.from_dict(obj["initial"][key], f"initial.{key}")
            elif kind is FluidParams:
                _reject_unknown(obj[name], {f.name for f in fields(kind)}, name)
                values = {k: _typed(v, float, f"{name}.{k}") for k, v in obj[name].items()}
                try:
                    kwargs[name] = kind(**values)
                except ValueError as exc:
                    raise ConfigError(f"bad params: {exc}") from exc
            elif kind is WaveSpec:
                kwargs[name] = WaveSpec.from_dict(obj.get(name, {}), name)
            elif name in obj and not (nullable and obj[name] is None):
                kwargs[name] = _typed(obj[name], kind, name)
        return SimConfig(**kwargs)

    @staticmethod
    def from_json(path) -> "SimConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                obj = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
        return SimConfig.from_dict(obj)

    def to_dict(self) -> dict:
        out = {"schema": SCHEMA_VERSION}
        for name, (kind, _) in _FIELDS.items():
            value = getattr(self, name)
            if name in _INITIAL:
                out.setdefault("initial", {})[_INITIAL[name]] = value.to_dict()
            elif kind is FluidParams:
                out[name] = asdict(value)
            elif kind is WaveSpec:
                out[name] = value.to_dict()
            else:
                out[name] = value
        return out


def _kind(hint) -> tuple[type, bool]:
    """(kind, nullable) of a field's type: X | None is X, and null is its default."""
    nullable = type(None) in get_args(hint)
    return (get_args(hint)[0] if nullable else hint), nullable


# The schema is SimConfig's fields, each key of the kind its type names.  The
# JSON-only names are the version and "initial", which holds f0 and h0 as
# its f and h; t_end is required in JSON but has a Python default.
_HINTS = get_type_hints(SimConfig)
_FIELDS = {f.name: _kind(_HINTS[f.name]) for f in fields(SimConfig)}
_INITIAL = {"f0": "f", "h0": "h"}
_REQUIRED = ("n_x", "n_y", "params", "initial", "t_end")
