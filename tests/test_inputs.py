"""Where data enter: non-finite numbers are rejected at the entry points,
configs name the offending key, and a state whose coefficients overflow
ends in a recorded solver failure."""

import json
import warnings

import numpy as np
import pytest

from muskatlab.cli import main
from muskatlab.config import ConfigError, SimConfig, WaveSpec
from muskatlab.diffraction import (
    DiffractionData,
    TransmissionOperator,
    solve_general,
)
from muskatlab.evolution import SimState, linearized_matrix, phi, rayleigh_taylor, simulate, step
from muskatlab.geometry import InterfacePair, PeriodicFn, constant_fn, make_grid
from muskatlab.operators import FluidParams, StripField

PAR = FluidParams()


def flat_pair(grid):
    return InterfacePair(constant_fn(grid, 0.0), constant_fn(grid, 1.0), -1.0)


def general(grid, F_plus=None, phi2=None):
    """solve_general on the flat pair with zero data except the given F_plus
    (a value for the whole field) or phi2."""
    op = TransmissionOperator(flat_pair(grid), PAR, 8)
    strip_p, strip_m = op.strips
    zero = PeriodicFn(grid, np.zeros(grid.n_x))
    return solve_general(DiffractionData(
        operator=op,
        F_plus=StripField(strip_p, np.full(strip_p.shape, 0.0 if F_plus is None else F_plus)),
        F_minus=StripField(strip_m, np.zeros(strip_m.shape)),
        phi1=zero, phi2=zero if phi2 is None else constant_fn(grid, phi2), phi3=zero, phi4=zero))


def bottom(grid, value):
    """A bottom pressure: the constant value, or value itself when callable."""
    return value if callable(value) else constant_fn(grid, value)


# entry point -> a call that passes the value to it, the bad object built inside
ENTRIES = {
    "InterfacePair f": lambda g, v: InterfacePair(constant_fn(g, v), constant_fn(g, 1.0), -1.0),
    "InterfacePair h": lambda g, v: InterfacePair(constant_fn(g, 0.0), constant_fn(g, v), -1.0),
    "InterfacePair d": lambda g, v: InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), v),
    "phi b": lambda g, v: phi(flat_pair(g), bottom(g, v), PAR, n_y=8),
    "step b": lambda g, v: step(SimState(0.0, flat_pair(g)), 1e-3, bottom(g, v), PAR, n_y=8),
    "rayleigh_taylor b": lambda g, v: rayleigh_taylor(flat_pair(g), bottom(g, v), PAR, n_y=8),
    "linearized_matrix b": lambda g, v: linearized_matrix(flat_pair(g), bottom(g, v), PAR, [1],
                                                          n_y=8),
    "potentials b": lambda g, v: TransmissionOperator(flat_pair(g), PAR, 8).potentials(
        bottom(g, v)),
    "solve_general F_plus": lambda g, v: general(g, F_plus=v),
    "solve_general phi2": lambda g, v: general(g, phi2=v),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ENTRIES)
def test_non_finite_input_is_a_value_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            ENTRIES[entry](make_grid(16), value)


@pytest.mark.parametrize("entry", [
    lambda g: TransmissionOperator(flat_pair(g), PAR, 12.7),
    lambda g: phi(flat_pair(g), bottom(g, 1.0), PAR, n_y=12.7),
], ids=["TransmissionOperator", "phi"])
def test_non_integral_layer_count_is_a_value_error(entry):
    with pytest.raises(ValueError, match="n_y must be an integer >= 8, got 12.7"):
        entry(make_grid(16))


# phi and rayleigh_taylor are pinned in test_evolution
@pytest.mark.parametrize("entry", ["step b", "linearized_matrix b"])
def test_callable_bottom_pressure_is_a_type_error(entry):
    g = make_grid(16)
    with pytest.raises(TypeError, match="evaluate a time-dependent b"):
        ENTRIES[entry](g, lambda t: constant_fn(g, 0.2 + t))


# An upper gap below ~1e-154 is admissible, but the pulled-back coefficients
# overflow, without a warning, and the factorization refuses the matrix.
THIN_GAP = 1e-170
OVERFLOW = ("transmission matrix is not finite: the pulled-back coefficients overflow "
            "at the smallest layer gap 1.000e-170")


def test_overflowing_state_is_a_recorded_failure():
    config = SimConfig(n_x=16, n_y=8, params=FluidParams(), f0=WaveSpec(),
                       h0=WaveSpec(const=THIN_GAP))
    traj = simulate(config)
    assert traj.reason == "step_failure"
    assert traj.failure["kind"] == "solver_failure"
    assert traj.failure["message"] == OVERFLOW
    assert traj.failure["gap_plus"] == THIN_GAP
    assert traj.times == []


@pytest.mark.parametrize("key, value, message", [
    ("n_x", True, "n_x must be an integer, got True"),
    ("n_y", 8.5, "n_y must be an integer, got 8.5"),
    ("t_end", "1", "t_end must be a finite number, got '1'"),
    ("rtol", np.nan, "rtol must be a finite number, got nan"),
    ("surface_tension", "no", "surface_tension must be a boolean, got 'no'"),
    ("stop_on_rt", 1, "stop_on_rt must be a boolean, got 1"),
    ("out_dir", 5, "out_dir must be a string, got 5"),
    ("snapshot_stride", 2.5, "snapshot_stride must be an integer, got 2.5"),
])
def test_python_config_checks_scalar_types(key, value, message):
    # the JSON reader's rule, so simulate never sees a mistyped scalar
    with pytest.raises(ConfigError) as raised:
        SimConfig(**{"n_x": 16, "n_y": 8, "params": PAR, key: value})
    assert str(raised.value) == message


def test_python_config_reads_integral_floats_as_integers():
    config = SimConfig(n_x=16.0, n_y=8, params=PAR, t_end=1, snapshot_stride=np.float64(2.0))
    assert (config.n_x, config.t_end, config.snapshot_stride) == (16, 1.0, 2)
    assert [type(v) for v in (config.n_x, config.t_end, config.snapshot_stride)] == [
        int, float, int]


WAVE_FAULTS = [  # (const, modes), the message, the JSON reader's message at initial.f
    ((0.0, ((1.5, 0.1, 0.0),)), "modes mode number must be an integer, got 1.5"),
    ((0.0, ((-2, 0.1, 0.0),)), "modes: mode numbers must be positive"),
    ((0.0, ((1, np.nan, 0.0),)), "modes amplitude must be a finite number, got nan"),
    ((0.0, ((1, 0.1, "0"),)), "modes amplitude must be a finite number, got '0'"),
    ((0.0, ((1, 0.1),)), "modes entries must be [m, cos_amp, sin_amp]"),
    ((np.inf, ()), "const must be a finite number, got inf"),
]


@pytest.mark.parametrize("spec, message", WAVE_FAULTS)
def test_python_wave_spec_checks_its_entries(spec, message):
    # a non-integral mode would sample a non-periodic profile
    const, modes = spec
    with pytest.raises(ConfigError) as raised:
        WaveSpec(const=const, modes=modes)
    assert str(raised.value) == message


@pytest.mark.parametrize("spec, message", WAVE_FAULTS)
def test_json_wave_spec_messages_name_their_key(tmp_path, spec, message):
    const, modes = spec
    path = cli_config(tmp_path, **{"initial.f": {"const": const, "modes": [list(m) for m in modes]}})
    with pytest.raises(ConfigError) as raised:
        SimConfig.from_json(path)
    assert str(raised.value) == f"initial.f.{message}"


def test_python_wave_spec_reads_its_numbers():
    spec = WaveSpec(const=1, modes=[[2.0, 1, 0.5]])
    assert spec == WaveSpec(const=1.0, modes=((2, 1.0, 0.5),))
    assert [type(v) for v in (spec.const, *spec.modes[0])] == [float, int, float, float]


@pytest.mark.parametrize("key, value, message", [
    ("params", {"g": 1.0}, "params must be a FluidParams, got {'g': 1.0}"),
    ("f0", {"const": 0.0}, "f0 must be a WaveSpec, got {'const': 0.0}"),
    ("h0", 1.0, "h0 must be a WaveSpec, got 1.0"),
    ("b", None, "b must be a WaveSpec, got None"),
])
def test_python_config_checks_its_records(key, value, message):
    with pytest.raises(ConfigError) as raised:
        SimConfig(**{"n_x": 16, "n_y": 8, "params": PAR, key: value})
    assert str(raised.value) == message


def cli_config(tmp_path, **overrides):
    cfg = {"schema": 1, "n_x": 16, "n_y": 8,
           "params": {"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 2.0,
                      "rho_plus": 1.0, "g": 1.0, "gamma_f": 0.0, "gamma_h": 0.0, "d": -1.0},
           "initial": {"f": {"const": 0.0, "modes": []}, "h": {"const": 1.0, "modes": []}},
           "b": {"const": 1.0, "modes": []},
           "t_end": 0.1}
    for key, value in overrides.items():
        *path, last = key.split(".")
        target = cfg
        for part in path:
            target = target[part]
        target[last] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_overflowing_state_writes_run_json(tmp_path, capsys):
    path = cli_config(tmp_path, **{"initial.h.const": THIN_GAP, "b.const": 0.0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: simulation failed before the first step\n"
    meta = json.loads((out / "run.json").read_text())
    assert meta["reason"] == "step_failure"
    assert meta["failure"]["kind"] == "solver_failure"
    assert meta["failure"]["message"] == OVERFLOW
    assert meta["failure"]["gap_plus"] == THIN_GAP
    assert main(["rtcheck", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {OVERFLOW}\n"


@pytest.mark.parametrize("key, where", [
    ("initial.f.const", "initial.f.const"),
    ("b.modes", "b.modes amplitude"),
    ("params.g", "params.g"),
    ("t_end", "t_end"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_config_number_names_its_key(tmp_path, capsys, key, where, value):
    # JSON's NaN and Infinity parse as floats
    path = cli_config(tmp_path, **{key: [[1, value, 0.0]] if key == "b.modes" else value})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not (tmp_path / "out").exists()
