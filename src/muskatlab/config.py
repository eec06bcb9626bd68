"""Run configuration: strict JSON schema for simulations and diagnostics.

Configs are plain JSON with an explicit schema version; unknown keys are
rejected everywhere so typos fail fast.  Interfaces and boundary data are
described by a constant plus a list of [mode, cos_amp, sin_amp] triples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import InterfacePair, PeriodicFn, PeriodicGrid, make_grid
from .operators import FluidParams

__all__ = ["ConfigError", "SimConfig", "WaveSpec"]

SCHEMA_VERSION = 1

_PARAM_KEYS = ("k", "mu_minus", "mu_plus", "rho_minus", "rho_plus", "g",
               "gamma_f", "gamma_h", "d")


class ConfigError(ValueError):
    """The configuration file is malformed or violates the schema."""


@dataclass(frozen=True)
class WaveSpec:
    """A periodic profile: constant offset plus a few Fourier modes."""

    const: float = 0.0
    modes: tuple = ()  # entries (m, cos_amp, sin_amp)

    def build(self, grid: PeriodicGrid) -> PeriodicFn:
        vals = np.full(grid.n_x, float(self.const))
        for m, ca, sa in self.modes:
            vals += ca * np.cos(m * grid.nodes) + sa * np.sin(m * grid.nodes)
        return PeriodicFn(grid, vals)

    @staticmethod
    def from_dict(obj: dict, where: str) -> "WaveSpec":
        _reject_unknown(obj, {"const", "modes"}, where)
        entries = obj.get("modes", [])
        if not (isinstance(entries, list)
                and all(isinstance(e, list) and len(e) == 3 for e in entries)):
            raise ConfigError(f"{where}.modes entries must be [m, cos_amp, sin_amp]")
        modes = []
        for m, cos_amp, sin_amp in entries:
            m = _typed(m, int, f"{where}.modes mode number")
            if m <= 0:
                raise ConfigError(f"{where}.modes: mode numbers must be positive")
            modes.append((m, _typed(cos_amp, float, f"{where}.modes amplitude"),
                          _typed(sin_amp, float, f"{where}.modes amplitude")))
        return WaveSpec(const=_typed(obj.get("const", 0.0), float, f"{where}.const"),
                        modes=tuple(modes))

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
        for name in ("t_end", "rtol", "atol", "dt_init", "dt_max"):
            val = getattr(self, name)
            if not np.isfinite(val) or val <= 0:
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
        top_keys = {"schema", "n_x", "n_y", "params", "initial", "b", "t_end",
                    "rtol", "atol", "dt_init", "dt_max", "surface_tension",
                    "stop_on_rt", "out_dir", "snapshot_stride"}
        _reject_unknown(obj, top_keys, "config")
        schema = obj.get("schema")
        if isinstance(schema, bool) or schema != SCHEMA_VERSION:
            raise ConfigError(f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
        for key in ("n_x", "n_y", "params", "initial", "t_end"):
            if key not in obj:
                raise ConfigError(f"missing required config key {key!r}")
        _reject_unknown(obj["params"], set(_PARAM_KEYS), "params")
        values = {k: _typed(v, float, f"params.{k}") for k, v in obj["params"].items()}
        try:
            params = FluidParams(**values)
        except ValueError as exc:
            raise ConfigError(f"bad params: {exc}") from exc
        _reject_unknown(obj["initial"], {"f", "h"}, "initial")
        if "f" not in obj["initial"] or "h" not in obj["initial"]:
            raise ConfigError("initial must contain 'f' and 'h'")
        kwargs = dict(
            n_x=_typed(obj["n_x"], int, "n_x"),
            n_y=_typed(obj["n_y"], int, "n_y"),
            params=params,
            f0=WaveSpec.from_dict(obj["initial"]["f"], "initial.f"),
            h0=WaveSpec.from_dict(obj["initial"]["h"], "initial.h"),
            b=WaveSpec.from_dict(obj.get("b", {}), "b"),
            t_end=_typed(obj["t_end"], float, "t_end"),
        )
        for key, kind in (("rtol", float), ("atol", float), ("dt_init", float),
                          ("dt_max", float), ("surface_tension", bool), ("stop_on_rt", bool),
                          ("snapshot_stride", int)):
            if key in obj:
                kwargs[key] = _typed(obj[key], kind, key)
        if obj.get("out_dir") is not None:
            kwargs["out_dir"] = _typed(obj["out_dir"], str, "out_dir")
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
        return {
            "schema": SCHEMA_VERSION,
            "n_x": self.n_x,
            "n_y": self.n_y,
            "params": {k: getattr(self.params, k) for k in _PARAM_KEYS},
            "initial": {"f": self.f0.to_dict(), "h": self.h0.to_dict()},
            "b": self.b.to_dict(),
            "t_end": self.t_end,
            "rtol": self.rtol,
            "atol": self.atol,
            "dt_init": self.dt_init,
            "dt_max": self.dt_max,
            "surface_tension": self.surface_tension,
            "stop_on_rt": self.stop_on_rt,
            "out_dir": self.out_dir,
            "snapshot_stride": self.snapshot_stride,
        }
