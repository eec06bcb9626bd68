import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskatlab.cli import main
from muskatlab.config import ConfigError, SimConfig
from muskatlab.evolution import simulate

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "n_x": 32,
        "n_y": 12,
        "params": {"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 2.0,
                   "rho_plus": 1.0, "g": 1.0, "gamma_f": 0.0, "gamma_h": 0.0,
                   "d": -1.0},
        "initial": {"f": {"const": 0.0, "modes": []},
                    "h": {"const": 1.0, "modes": []}},
        "b": {"const": 1.0},
        "t_end": 0.2,
        "dt_init": 0.02,
        "dt_max": 0.1,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [["rtcheck"], ["symbols", "--m-max", "2"],
                                     ["spectrum", "--modes", "1..2"], ["simulate"]])
def test_solver_failure_exit_2(tmp_path, capsys, command):
    # the interfaces almost touch, so the transmission system is too ill-conditioned
    path = write_config(tmp_path, n_x=16, n_y=8,
                        initial={"f": {"const": 0.0, "modes": []},
                                 "h": {"const": 1e-9, "modes": []}})
    extra = ["--out", str(tmp_path / "out")] if command == ["simulate"] else []
    assert main(command + ["--config", str(path)] + extra) == 2
    err = capsys.readouterr().err
    if command == ["simulate"]:
        assert err == "error: simulation failed before the first step\n"
    else:
        assert err.startswith("error: system too ill-conditioned")


def test_failure_at_the_first_state_writes_run_json(tmp_path, capsys):
    # the nearly touching config of test_solver_failure_exit_2 fails at t = 0
    path = write_config(tmp_path, n_x=16, n_y=8,
                        initial={"f": {"const": 0.0, "modes": []},
                                 "h": {"const": 1e-9, "modes": []}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: simulation failed before the first step\n")
    meta = json.loads((out / "run.json").read_text())
    assert meta["reason"] == "step_failure"
    assert meta["times"] == [] and meta["snapshots"] == []
    assert meta["failure"] == simulate(SimConfig.from_json(path)).failure
    assert meta["failure"]["kind"] == "solver_failure"
    assert meta["failure"]["t"] == 0.0
    assert meta["failure"]["condition_estimate"] > 1e12
    assert meta["solver"]["solves"] == 0


@pytest.mark.parametrize("command, out", [(["symbols", "--m-max", "2"], "missing/symbols.csv"),
                                          (["spectrum", "--modes", "1..2"], "missing/spectrum.csv"),
                                          (["simulate"], "config.json")])
def test_unwritable_output_exit_1(tmp_path, capsys, command, out):
    # symbols and spectrum write into a missing directory; simulate's output
    # directory is an existing file
    path = write_config(tmp_path, n_x=16, n_y=8)
    assert main(command + ["--config", str(path), "--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@st.composite
def small_configs(draw):
    """Schema-valid configs on 8 to 16 nodes whose modes, below the Nyquist
    mode, can make the initial state inadmissible or nearly touching."""
    n_x = draw(st.sampled_from((8, 12, 16)))

    def wave(const):
        amplitudes = st.floats(-0.6, 0.6)
        modes = draw(st.lists(st.tuples(st.integers(1, n_x // 2 - 1), amplitudes, amplitudes),
                              max_size=2))
        return {"const": const, "modes": [list(m) for m in modes]}

    densities = st.sampled_from((1.0, 2.0, 3.0))
    return {
        "schema": 1, "n_x": n_x, "n_y": 8,
        "params": {"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0,
                   "rho_minus": draw(densities), "rho_plus": draw(densities), "g": 1.0,
                   "gamma_f": 0.5, "gamma_h": 1.0, "d": -1.0},
        "initial": {"f": wave(0.0), "h": wave(draw(st.floats(0.05, 1.0)))},
        "b": {"const": draw(st.floats(0.0, 3.0))},
        "t_end": draw(st.floats(1e-3, 0.05)),
        "dt_init": draw(st.sampled_from((1e-3, 1e-2))),
        "surface_tension": draw(st.booleans()),
        "stop_on_rt": draw(st.booleans()),
    }


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_configs())
def test_fuzzed_configs_end_with_a_documented_exit(cfg):
    # whatever the state, a command returns 0, 1 or 2 and raises nothing, and
    # a simulation that ran writes run.json with a documented reason
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = {command: main([command, "--config", str(path)] + extra)
                     for command, extra in (("rtcheck", []), ("simulate", ["--out", str(out)]))}
        assert set(codes.values()) <= {0, 1, 2}
        if codes["simulate"] != 1:
            meta = json.loads((out / "run.json").read_text())
            assert meta["reason"] in ("t_end", "admissibility_lost", "rt_violated",
                                      "step_failure")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(small_configs())
def test_fuzzed_configs_end_diagnostics_with_a_documented_exit(cfg):
    # the diagnostics commands on configs drawn alike: 0, 1 or 2, and nothing raised
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [main([command, "--config", str(path)] + extra)
                     for command, extra in (("symbols", ["--m-max", "4", "--oracle"]),
                                            ("spectrum", ["--modes", "1..2"]))]
        assert set(codes) <= {0, 1, 2}


def _wave_specs():
    amplitudes = st.floats(-1.0, 1.0)
    return st.builds(lambda const, modes: {"const": const, "modes": [list(m) for m in modes]},
                     st.floats(-1.0, 1.0),
                     st.lists(st.tuples(st.integers(1, 7), amplitudes, amplitudes), max_size=3))


@st.composite
def full_configs(draw):
    """Schema-valid config dicts that draw every optional key, or leave it out."""
    positive = st.floats(1e-9, 10.0)
    optional = {"rtol": positive, "atol": positive, "dt_init": positive, "dt_max": positive,
                "surface_tension": st.booleans(), "stop_on_rt": st.booleans(),
                "snapshot_stride": st.integers(1, 100),
                "out_dir": st.one_of(st.none(), st.text(max_size=8)), "b": _wave_specs()}
    cfg = {"schema": 1, "n_x": draw(st.sampled_from((16, 32))), "n_y": draw(st.integers(8, 16)),
           "params": {"k": draw(positive), "gamma_f": draw(st.floats(0.0, 2.0)), "d": -1.0},
           "initial": {"f": draw(_wave_specs()), "h": draw(_wave_specs())},
           "t_end": draw(positive)}
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        cfg[key] = draw(optional[key])
    return cfg


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(full_configs())
def test_config_round_trips_through_json(obj):
    cfg = SimConfig.from_dict(obj)
    assert SimConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path)
        cfg = SimConfig.from_json(path)
        again = SimConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra_knob=3)
        with pytest.raises(ConfigError, match="extra_knob"):
            SimConfig.from_json(path)

    def test_removed_cfl_st_key_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, cfl_st=1.0)
        with pytest.raises(ConfigError, match="cfl_st"):
            SimConfig.from_dict(json.loads(path.read_text()))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "cfl_st" in capsys.readouterr().err

    def test_unknown_param_rejected(self, tmp_path):
        path = write_config(tmp_path, params={"k": 1.0, "viscosity": 2.0})
        with pytest.raises(ConfigError):
            SimConfig.from_json(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = write_config(tmp_path, schema=2)
        with pytest.raises(ConfigError, match="schema"):
            SimConfig.from_json(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            SimConfig.from_json(path)

    @pytest.mark.parametrize("overrides", [
        {"schema": True},
        {"n_x": None},
        {"n_x": 16.7},
        {"snapshot_stride": 2.5},
        {"rtol": True},
        {"t_end": "0.2"},
        {"dt_max": [0.1]},
        {"out_dir": 5},
        {"params": {"g": None}},
        {"b": {"const": None}},
        {"initial": {"f": {"modes": [5]}, "h": {"const": 1.0}}},
        {"initial": {"f": {"modes": 3}, "h": {"const": 1.0}}},
        {"initial": {"f": {"modes": [[1.5, 0.1, 0.0]]}, "h": {"const": 1.0}}},
    ], ids=["schema-bool", "n_x-null", "n_x-fraction", "stride-fraction", "rtol-bool",
            "t_end-string", "dt_max-list", "out_dir-number", "param-null", "b-const-null",
            "mode-not-a-list", "modes-not-a-list", "mode-number-fraction"])
    def test_wrong_type_is_a_config_error(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ConfigError):
            SimConfig.from_json(path)
        assert main(["rtcheck", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_integral_float_reads_as_integer(self, tmp_path):
        cfg = SimConfig.from_json(write_config(tmp_path, n_x=32.0, snapshot_stride=2.0))
        assert (cfg.n_x, cfg.snapshot_stride) == (32, 2)
        assert isinstance(cfg.n_x, int)

    def test_builds_modes(self, tmp_path):
        path = write_config(tmp_path, initial={
            "f": {"const": 0.0, "modes": [[2, 0.0, 0.5]]},
            "h": {"const": 1.0, "modes": []}})
        cfg = SimConfig.from_json(path)
        from muskatlab.geometry import make_grid
        grid = make_grid(cfg.n_x)
        f = cfg.f0.build(grid)
        assert np.max(np.abs(f.values - 0.5 * np.sin(2 * grid.nodes))) < 1e-14

    @pytest.mark.parametrize("where, m", [("initial.f", 8), ("initial.h", 13), ("b", 9)])
    def test_mode_at_or_above_nyquist_rejected(self, tmp_path, capsys, where, m):
        # on 16 nodes mode 8 samples to zero and mode 13 to minus mode 3
        overrides = {"initial": {"f": {"const": 0.0}, "h": {"const": 1.0}}, "b": {"const": 1.0}}
        spec = overrides["b"] if where == "b" else overrides["initial"][where[-1]]
        spec["modes"] = [[m, 0.0, 0.1]]
        path = write_config(tmp_path, n_x=16, n_y=8, **overrides)
        with pytest.raises(ConfigError, match=rf"{where}\.modes: mode {m} must lie below"):
            SimConfig.from_json(path)
        assert main(["rtcheck", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {where}.modes")
        SimConfig.from_json(write_config(tmp_path, n_x=2 * m + 2, n_y=8, **overrides))


class TestSimulateCommand:
    def test_flat_equilibrium_run(self, tmp_path, capsys):
        path = write_config(tmp_path, b={"const": 1.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["reason"] == "t_end"
        assert meta["failure"] is None
        assert meta["schema"] == 1
        first = (out / meta["snapshots"][0]["file"]).read_text().splitlines()
        assert first[0] == "x,f,h"
        row = first[1].split(",")
        assert float(row[1]) == 0.0 and float(row[2]) == 1.0

    def test_rt_violated_with_stop(self, tmp_path):
        path = write_config(
            tmp_path, stop_on_rt=True,
            params={"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 1.0,
                    "rho_plus": 2.0, "g": 1.0, "gamma_f": 0.0, "gamma_h": 0.0,
                    "d": -1.0},
            b={"const": 2.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["reason"] == "rt_violated"
        assert meta["times"] == [0.0]

    def test_malformed_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path, initial={
            "f": {"const": 0.0, "modes": [[1, 0.0, 1e-3]]},
            "h": {"const": 1.0, "modes": []}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("run.json", "snap_000000.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_rejected_steps_recorded(self, tmp_path):
        # a first step far too long for the tolerance is rejected on its error
        path = write_config(tmp_path, n_x=16, n_y=8, t_end=0.6, dt_init=0.5, dt_max=0.5,
                            rtol=1e-8, atol=1e-10, initial={
                                "f": {"const": 0.0, "modes": [[1, 0.05, 0.0]]},
                                "h": {"const": 1.0, "modes": []}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["reason"] == "t_end"
        assert meta["steps_rejected"]["error"] > 0
        assert meta["steps_rejected"] == simulate(SimConfig.from_json(path)).steps_rejected

    def test_failure_recorded(self, tmp_path):
        # viscous fingering runs into the condition guard at t = 0.3536
        path = write_config(tmp_path, n_x=16, n_y=8, t_end=0.6, dt_init=1e-3, dt_max=0.5,
                            params={"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0,
                                    "rho_minus": 1.0, "rho_plus": 3.0, "g": 5.0,
                                    "gamma_f": 0.0, "gamma_h": 0.0, "d": -1.0},
                            b={"const": 15.0}, initial={
                                "f": {"const": 0.0, "modes": [[2, 0.0, 0.05]]},
                                "h": {"const": 1.0, "modes": []}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "run.json").read_bytes() == (out2 / "run.json").read_bytes()
        meta = json.loads((out1 / "run.json").read_text())
        assert meta["reason"] == "step_failure"
        assert meta["failure"] == simulate(SimConfig.from_json(path)).failure
        assert meta["failure"]["kind"] == "solver_failure"
        assert meta["failure"]["condition_estimate"] > 1e12

    def test_solver_counts_recorded(self, tmp_path):
        path = write_config(tmp_path, n_x=16, n_y=8, surface_tension=True, t_end=0.01,
                            dt_init=1e-3, params={
                                "k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 2.0,
                                "rho_plus": 1.0, "g": 1.0, "gamma_f": 0.5, "gamma_h": 1.0,
                                "d": -1.0})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        solver = json.loads((out / "run.json").read_text())["solver"]
        assert solver == simulate(SimConfig.from_json(path)).solver
        assert solver["factorizations"] == 1
        assert solver["solves"] == solver["refined"] + 2  # the initial state's two
        assert set(solver["fallbacks"]) == {"contraction", "non_finite", "iterations",
                                            "condition"}

    def test_runs_leave_nothing_behind(self, tmp_path):
        # a surface-tension run repeated, and after a run on another grid,
        # gives bit-identical trajectories and files: no prediction or base
        # outlives its run
        capillary = {"n_x": 32, "n_y": 16, "surface_tension": True, "t_end": 0.01,
                     "dt_init": 1e-3, "snapshot_stride": 1,
                     "params": {"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 2.0,
                                "rho_plus": 1.0, "g": 1.0, "gamma_f": 0.5, "gamma_h": 1.0,
                                "d": -1.0},
                     "initial": {"f": {"const": 0.0, "modes": [[1, 0.03, 0.0], [3, 0.0, 0.01]]},
                                 "h": {"const": 1.0, "modes": [[2, 0.01, 0.0]]}}}
        (tmp_path / "st").mkdir()
        path = write_config(tmp_path / "st", **capillary)
        other = write_config(tmp_path, n_x=16, n_y=8, initial={
            "f": {"const": 0.0, "modes": [[1, 0.05, 0.0]]}, "h": {"const": 1.0, "modes": []}})
        config = SimConfig.from_json(path)
        runs, outs = [], []
        for i, between in enumerate((None, None, other)):
            if between is not None:
                assert main(["simulate", "--config", str(between),
                             "--out", str(tmp_path / "other")]) == 0
            runs.append(simulate(config))
            outs.append(tmp_path / f"run{i}")
            assert main(["simulate", "--config", str(path), "--out", str(outs[-1])]) == 0
        first = runs[0]
        assert len(first.times) > 3
        for run in runs[1:]:
            assert run.times == first.times and run.dt_used == first.dt_used
            assert np.array_equal(run.f_values, first.f_values)
            assert np.array_equal(run.h_values, first.h_values)
            assert run.solver == first.solver
        names = sorted(p.name for p in outs[0].iterdir())
        assert "run.json" in names and len(names) == len(first.times) + 1
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes()

    def test_metadata_round_trips(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(path), "--out", str(out)])
        meta = json.loads((out / "run.json").read_text())
        assert SimConfig.from_dict(meta["config"]) == SimConfig.from_json(path)
        assert len(meta["times"]) == len(meta["rt_margin_f"])
        for snap in meta["snapshots"]:
            rows = (out / snap["file"]).read_text().splitlines()
            assert rows[0] == "x,f,h"
            assert len(rows) == 1 + 32


class TestRtcheckCommand:
    def test_flat_margins(self, tmp_path, capsys):
        path = write_config(tmp_path, b={"const": 0.0})
        assert main(["rtcheck", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["margin_f"] - 1.0) < 1e-9
        assert abs(report["margin_h"] - 0.5) < 1e-9
        assert report["satisfied"] is True

    def test_not_satisfied(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            params={"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 1.0,
                    "rho_plus": 2.0, "g": 1.0, "gamma_f": 0.0, "gamma_h": 0.0,
                    "d": -1.0},
            b={"const": 2.0})
        assert main(["rtcheck", "--config", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["satisfied"] is False

    def test_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, t_end=-1.0)
        assert main(["rtcheck", "--config", str(path)]) == 1


class TestSymbolsCommand:
    def test_oracle_columns_agree_at_tau_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, b={"const": 1.0})
        assert main(["symbols", "--config", str(path), "--m-max", "8",
                     "--oracle"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "family,m,re_formula,im_formula,re_oracle,im_oracle"
        checked = 0
        for row in rows[1:]:
            fields = row.split(",")
            if fields[0] in ("lambda", "phi"):
                assert abs(float(fields[2]) - float(fields[4])) < 1e-9
                assert abs(float(fields[3]) - float(fields[5])) < 1e-9
                checked += 1
        assert checked == 16

    def test_tau_zero_imaginary_columns_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, b={"const": 0.5})
        assert main(["symbols", "--config", str(path), "--m-max", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            if fields[0] in ("lambda", "phi"):
                assert float(fields[3]) == 0.0

    def test_zero_m_max_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["symbols", "--config", str(path), "--m-max", "0"]) == 1

    def test_positive_tau_needs_the_oracle(self, tmp_path, capsys):
        # the closed forms are those of tau = 0
        path = write_config(tmp_path)
        assert main(["symbols", "--config", str(path), "--m-max", "2", "--tau", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tau > 0 needs --oracle")

    def test_positive_tau_prints_the_oracle_alone(self, tmp_path, capsys):
        path = write_config(tmp_path, initial={
            "f": {"const": 0.0, "modes": [[1, 0.1, 0.0]]},
            "h": {"const": 1.0, "modes": []}})
        assert main(["symbols", "--config", str(path), "--m-max", "4", "--tau", "0.5",
                     "--x", "0.3", "--oracle"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        gravity = [fields for fields in rows if fields[0] in ("lambda", "phi")]
        assert len(gravity) == 8
        for fields in gravity:
            assert fields[2:4] == ["", ""]
            assert all(np.isfinite(float(v)) for v in fields[4:6])

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_nonfinite_x_rejected(self, tmp_path, capsys, x):
        path = write_config(tmp_path)
        assert main(["symbols", "--config", str(path), "--m-max", "2", "--x", x]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_csv_file_output(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "symbols.csv"
        assert main(["symbols", "--config", str(path), "--m-max", "2",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 + 2 * 2


class TestSpectrumCommand:
    def test_flat_equilibrium_matches_symbol_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, n_x=64, n_y=32, b={"const": 1.0})
        assert main(["spectrum", "--config", str(path), "--modes", "1..2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        header = rows[0].split(",")
        assert header[0] == "m"
        for row in rows[1:]:
            fields = [float(v) for v in row.split(",")]
            m = int(fields[0])
            lam = -m / (2 * np.tanh(m))
            assert abs(fields[1] - lam) < 0.02 * abs(lam)
            # flat equilibria give real spectra
            assert fields[6] == 0.0 and fields[8] == 0.0

    def test_nonflat_base_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, initial={
            "f": {"const": 0.0, "modes": [[1, 0.1, 0.0]]},
            "h": {"const": 1.0, "modes": []}})
        assert main(["spectrum", "--config", str(path), "--modes", "1..2"]) == 1

    def test_eps_option_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", str(path), "--modes", "1..2", "--eps", "1e-6"])
        assert exc.value.code == 2
        assert "--eps" in capsys.readouterr().err

    def test_runs_as_module(self, tmp_path):
        path = write_config(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-m", "muskatlab", "spectrum", "--config",
                               str(path), "--modes", "1..2"],
                              cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0].startswith("m,a11,")
        assert len(done.stdout.splitlines()) == 3

    def test_bad_range_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["spectrum", "--config", str(path), "--modes", "3..1"]) == 1
        assert main(["spectrum", "--config", str(path), "--modes", "x..y"]) == 1

    def test_huge_range_rejected_before_building(self, tmp_path, capsys):
        import time
        path = write_config(tmp_path)
        started = time.perf_counter()
        assert main(["spectrum", "--config", str(path), "--modes", "1..1000000000000"]) == 1
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().err == ("error: mode m must satisfy 1 <= m < 16 "
                                           "(below the Nyquist mode), got 16\n")


class TestVerifyCommand:
    @pytest.mark.parametrize("flags", [["--quick"], []], ids=["quick", "full"])
    def test_quick_verify_passes_within_budget(self, capsys, flags):
        import time
        started = time.perf_counter()
        assert main(["verify"] + flags) == 0
        assert time.perf_counter() - started < 60.0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out.replace("FAILURES", "")

    def test_verify_prints_one_line_per_check(self, capsys):
        assert main(["verify", "--quick"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and lines[-1] == "verification: all checks passed"
        assert all("  PASS  " in line for line in lines[:5])
        assert not any("INFO" in line for line in lines)

    def test_corrupted_coefficients_detected(self, capsys, monkeypatch):
        # mutation probe: a wrong interior coefficient must trip the suite
        import muskatlab.operators as operators_mod
        import muskatlab.verify as verify_mod

        true_coeffs = operators_mod.coeffs_A_minus

        def corrupted(fh, strip):
            out = true_coeffs(fh, strip)
            return operators_mod.CoefficientField(
                strip, out.c_xx, 1.02 * out.c_xy, out.c_yy, out.c_y)

        monkeypatch.setattr(verify_mod.operators, "coeffs_A_minus", corrupted)
        result = verify_mod.check_harmonic_pullback(quick=True)
        assert not result.passed
