"""Batch front end: simulation runs, diagnostics, and plot-ready files.

Subcommands:
  simulate  integrate a configured run, write snapshot CSVs and metadata
  rtcheck   print the Rayleigh-Taylor margins of the initial state as JSON
  symbols   tabulate the multiplier symbols (tau > 0: the ODE oracle alone)
  spectrum  tabulate per-mode linearization matrices and their eigenvalues
  verify    run the built-in oracle suite

All outputs are deterministic: the same config produces byte-identical
files.  Exit codes: 0 success, 1 configuration/usage error (an unwritable
output path included), 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import SimConfig
from .diffraction import SolverFailure, TransmissionOperator
from .evolution import linearized_matrix, rayleigh_taylor, simulate
from .geometry import make_grid
from .symbols import (
    frozen_constants,
    lambda_st_symbol,
    lambda_symbol,
    ode_oracle_lambda,
    ode_oracle_phi,
    phi_st_symbol,
    phi_symbol,
)
from .verify import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize negative zero for stable output
    return format(x, ".17g")


def _config_and_state(args):
    """Load args.config and build its initial state; returns (config, fh, b)."""
    config = SimConfig.from_json(args.config)
    fh, b = config.initial_state()
    return config, fh, b


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_snapshot(path: Path, nodes, f_vals, h_vals):
    lines = ["x,f,h"]
    for x, fv, hv in zip(nodes, f_vals, h_vals):
        lines.append(f"{_fmt(x)},{_fmt(fv)},{_fmt(hv)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args) -> int:
    config, _, _ = _config_and_state(args)
    out_dir = Path(args.out if args.out else (config.out_dir or "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = simulate(config)
    grid = make_grid(config.n_x)
    snapshots = []
    stride = config.snapshot_stride
    for idx in range(len(traj.times)):
        if idx % stride == 0 or idx == len(traj.times) - 1:
            name = f"snap_{len(snapshots):06d}.csv"
            _write_snapshot(out_dir / name, grid.nodes,
                            traj.f_values[idx], traj.h_values[idx])
            snapshots.append({"index": idx, "t": traj.times[idx], "file": name})

    meta = {
        "schema": 1,
        "reason": traj.reason,
        "times": traj.times,
        "dt_used": traj.dt_used,
        "rt_margin_f": [r.margin_f for r in traj.rt_reports],
        "rt_margin_h": [r.margin_h for r in traj.rt_reports],
        "rt_satisfied": [r.satisfied for r in traj.rt_reports],
        "snapshots": snapshots,
        "steps_rejected": traj.steps_rejected,
        "failure": traj.failure,
        "solver": traj.solver,
        "config": config.to_dict(),
    }
    (out_dir / "run.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    if not traj.times:
        print("error: simulation failed before the first step", file=sys.stderr)
        return EXIT_SOLVER
    print(f"wrote {len(snapshots)} snapshots to {out_dir} (reason: {traj.reason})")
    return EXIT_OK


def cmd_rtcheck(args) -> int:
    config, fh, b = _config_and_state(args)
    report = rayleigh_taylor(fh, b, config.params, n_y=config.n_y)
    print(json.dumps({"margin_f": report.margin_f, "margin_h": report.margin_h,
                      "satisfied": report.satisfied}, sort_keys=True))
    return EXIT_OK


def cmd_symbols(args) -> int:
    if args.m_max < 1:
        print("error: --m-max must be a positive integer", file=sys.stderr)
        return EXIT_CONFIG
    if not 0.0 <= args.tau <= 1.0:
        print("error: --tau must lie in [0, 1]", file=sys.stderr)
        return EXIT_CONFIG
    if args.tau > 0.0 and not args.oracle:
        print("error: --tau > 0 needs --oracle (the closed forms are those of tau = 0)",
              file=sys.stderr)
        return EXIT_CONFIG
    if not np.isfinite(args.x):
        print("error: --x must be finite", file=sys.stderr)
        return EXIT_CONFIG
    config, fh, b = _config_and_state(args)
    sol = TransmissionOperator(fh, config.params, config.n_y).potentials(
        b, config.surface_tension)
    fp = frozen_constants(sol, args.x)

    def cells(value):
        return "," if value is None else f"{_fmt(value.real)},{_fmt(value.imag)}"

    lines = ["family,m,re_formula,im_formula,re_oracle,im_oracle"]
    for m in range(1, args.m_max + 1):
        for family, closed_form, oracle in (("lambda", lambda_symbol, ode_oracle_lambda),
                                            ("phi", phi_symbol, ode_oracle_phi)):
            formula = closed_form(fp, m) if args.tau == 0.0 else None
            value = oracle(fp, m, args.tau).symbol_value if args.oracle else None
            lines.append(f"{family},{m},{cells(formula)},{cells(value)}")
    for m in range(1, args.m_max + 1):
        lines.append(f"lambda_st,{m},{_fmt(lambda_st_symbol(fp, m))},{_fmt(0.0)},,")
        lines.append(f"phi_st,{m},{_fmt(phi_st_symbol(fp, m))},{_fmt(0.0)},,")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _parse_mode_range(spec: str):
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return int(lo), int(hi)
    val = int(spec)
    return val, val


def cmd_spectrum(args) -> int:
    try:
        lo, hi = _parse_mode_range(args.modes)
    except ValueError:
        print(f"error: bad mode range {args.modes!r} (expected a..b)", file=sys.stderr)
        return EXIT_CONFIG
    if lo < 1 or hi < lo:
        print("error: mode range must satisfy 1 <= a <= b", file=sys.stderr)
        return EXIT_CONFIG
    config, fh, b = _config_and_state(args)
    modes = range(lo, hi + 1)
    mats = linearized_matrix(fh, b, config.params, modes,
                             surface_tension=config.surface_tension, n_y=config.n_y)
    lines = ["m,a11,a12,a21,a22,eig1_re,eig1_im,eig2_re,eig2_im"]
    for m, mat in zip(modes, mats):
        eigs = np.sort_complex(np.linalg.eigvals(mat))
        lines.append(",".join([str(m)] + [_fmt(v) for v in
                                          (mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])]
                              + [_fmt(eigs[0].real), _fmt(eigs[0].imag),
                                 _fmt(eigs[1].real), _fmt(eigs[1].imag)]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(quick=args.quick)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        all_ok &= r.passed
    print("verification:", "all checks passed" if all_ok else "FAILURES detected")
    return EXIT_OK if all_ok else EXIT_CONFIG


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="muskatlab",
        description="two-interface periodic Muskat flow laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_rt = sub.add_parser("rtcheck", help="Rayleigh-Taylor margins of the initial state")
    p_rt.add_argument("--config", required=True)
    p_rt.set_defaults(func=cmd_rtcheck)

    p_sym = sub.add_parser("symbols", help="tabulate multiplier symbols")
    p_sym.add_argument("--config", required=True)
    p_sym.add_argument("--m-max", type=int, required=True, dest="m_max")
    p_sym.add_argument("--tau", type=float, default=0.0)
    p_sym.add_argument("--x", type=float, default=0.0,
                       help="freezing point on the circle")
    p_sym.add_argument("--oracle", action="store_true",
                       help="add ODE-oracle columns (needed for --tau > 0)")
    p_sym.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p_sym.set_defaults(func=cmd_symbols)

    p_spec = sub.add_parser("spectrum", help="per-mode linearization matrices")
    p_spec.add_argument("--config", required=True)
    p_spec.add_argument("--modes", required=True, help="mode range a..b")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_ver = sub.add_parser("verify", help="run the built-in oracle suite")
    p_ver.add_argument("--quick", action="store_true", help="reduced case counts")
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # ConfigError, AdmissibilityError, rejected inputs, unwritable output paths
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
