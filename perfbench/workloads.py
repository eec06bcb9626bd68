"""The three benchmark workloads: seeded inputs, one pass each, output checks.

A pass is one closed-loop unit of work from one client: it turns the
generated configs into results through the public ``muskatlab`` API or the
``muskatlab.cli`` entry point and checks them.  Every simulate run, CLI
command and benchmark-side check is one operation in the :class:`Ledger`;
failed operations are counted, never retried or skipped.  A pass returns a
digest of everything it produced, so that passes of the same inputs can be
compared byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import traceback
from pathlib import Path

import numpy as np

import muskatlab
from muskatlab import cli

STABLE_PARAMS = {"k": 1.0, "mu_minus": 1.0, "mu_plus": 1.0, "rho_minus": 2.0,
                 "rho_plus": 1.0, "g": 1.0, "gamma_f": 0.0, "gamma_h": 0.0, "d": -1.0}
BOTTOM = STABLE_PARAMS["g"] * STABLE_PARAMS["rho_plus"]


class Ledger:
    """Counts attempted and failed operations and tags trace spans with the operation."""

    def __init__(self, tracer=None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = tracer

    def _begin(self):
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        self.attempted += 1

    def _fail(self, name, detail):
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def run(self, name, func):
        """Run one operation; an exception marks it failed and returns None."""
        self._begin()
        try:
            return func()
        except Exception:
            self._fail(name, traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None

    def check(self, name, ok: bool, detail: str = ""):
        """Record one benchmark-side output check."""
        self._begin()
        if not ok:
            self._fail(name, detail or "check failed")


# ---------------------------------------------------------------------------
# Seeded inputs


def _modes(rng: random.Random, total: float, modes) -> list:
    """[m, cos, sin] triples whose amplitudes sum to total, seeded split and phases."""
    weights = [rng.expovariate(1.0) for _ in modes]
    scale = total / sum(weights) if weights else 0.0
    out = []
    for m, w in zip(modes, weights):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out.append([m, w * scale * math.cos(phase), w * scale * math.sin(phase)])
    return out


def _config(rng, n_x, n_y, f_amp, f_modes, h_amp, h_modes, **extra) -> dict:
    cfg = {
        "schema": 1, "n_x": n_x, "n_y": n_y, "params": dict(STABLE_PARAMS),
        "initial": {"f": {"const": 0.0, "modes": _modes(rng, f_amp, f_modes)},
                    "h": {"const": 1.0, "modes": _modes(rng, h_amp, h_modes)}},
        "b": {"const": BOTTOM, "modes": []},
        "t_end": 1.0, "rtol": 1e-6, "atol": 1e-9, "dt_init": 1e-3, "dt_max": 0.1,
    }
    cfg.update(extra)
    return cfg


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _curved_n128(rng) -> dict:
    return _config(rng, 128, 64, 0.15, range(1, 7), 0.05, range(1, 5), t_end=0.2)


def inputs_gravity_n128(seed: int) -> dict:
    return {"simulate": _curved_n128(_rng(seed, "gravity"))}


def inputs_capillary_n32(seed: int) -> dict:
    cfg = _config(_rng(seed, "capillary"), 32, 16, 0.05, range(1, 5), 0.02, range(1, 4),
                  t_end=0.05, dt_max=0.01, surface_tension=True, snapshot_stride=1)
    cfg["params"].update(gamma_f=0.5, gamma_h=1.0)
    return {"simulate": cfg}


def inputs_diagnostics(seed: int) -> dict:
    flat = _config(_rng(seed, "flat"), 64, 48, 0.0, (), 0.0, ())
    rt = [_config(_rng(seed, f"rtcheck{i}"), 64, 32, 0.15, range(1, 7), 0.05, range(1, 5))
          for i in range(3)]
    return {"spectrum": flat, "symbols": _curved_n128(_rng(seed, "symbols")), "rtcheck": rt}


# ---------------------------------------------------------------------------
# Helpers


def _cli(ledger: Ledger, name: str, argv: list) -> str | None:
    """Run one CLI command as an operation; returns its stdout, None on failure."""
    out = io.StringIO()

    def command():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-200:]}")
        return out.getvalue()

    return ledger.run(name, command)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _digest_files(digest, directory: Path):
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())


def _margins_positive(margins_f, margins_h) -> bool:
    return bool(margins_f) and min(margins_f) > 0.0 and min(margins_h) > 0.0


# ---------------------------------------------------------------------------
# Passes: each returns (digest, facts)


def pass_gravity_n128(inputs: dict, work: Path, ledger: Ledger):
    def run():
        # Looked up on the package at call time, so the tracer's wrapper is seen.
        traj = muskatlab.simulate(muskatlab.SimConfig.from_dict(inputs["simulate"]))
        if traj.reason != "t_end":
            raise RuntimeError(f"simulate ended with reason {traj.reason!r}")
        return traj

    traj = ledger.run("simulate", run)
    digest = hashlib.sha256()
    steps = 0
    if traj is not None:
        steps = len(traj.times) - 1
        ledger.check("rt-margins", _margins_positive(
            [r.margin_f for r in traj.rt_reports], [r.margin_h for r in traj.rt_reports]),
            "nonpositive Rayleigh-Taylor margin")
        for arr in (traj.times, traj.dt_used, traj.f_values, traj.h_values,
                    [(r.margin_f, r.margin_h) for r in traj.rt_reports]):
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest(), {"steps_accepted": steps}


def pass_capillary_n32(inputs: dict, work: Path, ledger: Ledger):
    config = _write_json(work / "config.json", inputs["simulate"])
    out = work / "out"
    digest = hashlib.sha256()
    steps = 0
    if _cli(ledger, "cli-simulate", ["simulate", "--config", config, "--out", str(out)]) is not None:
        meta = json.loads((out / "run.json").read_text(encoding="utf-8"))
        steps = len(meta["times"]) - 1
        ok = (meta["reason"] == "t_end"
              and _margins_positive(meta["rt_margin_f"], meta["rt_margin_h"])
              and all((out / s["file"]).is_file() for s in meta["snapshots"]))
        ledger.check("run-json", ok, f"reason {meta['reason']!r} or margins/snapshots wrong")
        _digest_files(digest, out)
    return digest.hexdigest(), {"steps_accepted": steps}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_spectrum(text: str) -> bool:
    rows = {int(r["m"]): float(r["a11"]) for r in _rows(text)}
    if sorted(rows) != list(range(1, 9)):
        return False
    targets = {m: -m / (2.0 * math.tanh(m)) for m in range(1, 5)}
    return all(abs(rows[m] - t) <= 0.02 * abs(t) for m, t in targets.items())


def _symbol_gaps(text: str) -> list[float]:
    gaps = []
    for r in _rows(text):
        if r["family"] in ("lambda", "phi"):
            formula = complex(float(r["re_formula"]), float(r["im_formula"]))
            oracle = complex(float(r["re_oracle"]), float(r["im_oracle"]))
            gaps.append(abs(formula - oracle))
    return gaps


def pass_diagnostics(inputs: dict, work: Path, ledger: Ledger):
    digest = hashlib.sha256()

    report = _cli(ledger, "cli-verify", ["verify"])
    if report is not None:
        lines = report.splitlines()
        checks = [ln for ln in lines if "  INFO  " not in ln and not ln.startswith("verification:")]
        ok = (len(checks) == 5 and all("  PASS  " in ln for ln in checks)
              and lines[-1] == "verification: all checks passed")
        ledger.check("verify-pass", ok, "verify did not print all PASS")
        digest.update(report.encode())

    spectrum_cfg = _write_json(work / "flat.json", inputs["spectrum"])
    spectrum_csv = work / "spectrum.csv"
    if _cli(ledger, "cli-spectrum", ["spectrum", "--config", spectrum_cfg, "--modes", "1..8",
                                     "--out", str(spectrum_csv)]) is not None:
        text = spectrum_csv.read_text(encoding="utf-8")
        ledger.check("spectrum-a11", _check_spectrum(text),
                     "a11 off -m/(2 tanh m) by more than 2% for some m <= 4")
        digest.update(text.encode())

    symbols_cfg = _write_json(work / "curved.json", inputs["symbols"])
    for tau in ("0", "1"):
        out = work / f"symbols_tau{tau}.csv"
        if _cli(ledger, f"cli-symbols-tau{tau}",
                ["symbols", "--config", symbols_cfg, "--m-max", "64", "--tau", tau,
                 "--oracle", "--out", str(out)]) is None:
            continue
        text = out.read_text(encoding="utf-8")
        if tau == "0":
            gaps = _symbol_gaps(text)
            ledger.check("symbols-tau0-oracle", len(gaps) == 128 and max(gaps) <= 1e-9,
                         f"formula vs oracle gap {max(gaps, default=math.nan):.3e} > 1e-9")
        digest.update(text.encode())

    for i, cfg in enumerate(inputs["rtcheck"]):
        path = _write_json(work / f"rt{i}.json", cfg)
        text = _cli(ledger, "cli-rtcheck", ["rtcheck", "--config", path])
        if text is not None:
            rep = json.loads(text)
            ledger.check("rtcheck-margins", rep["satisfied"] is True,
                         f"margins {rep['margin_f']:.3e}, {rep['margin_h']:.3e}")
            digest.update(text.encode())
    return digest.hexdigest(), {"steps_accepted": 0}


# name -> (input generator, pass, the input whose set-up time is measured)
WORKLOADS = {
    "gravity_n128": (inputs_gravity_n128, pass_gravity_n128, "simulate"),
    "capillary_n32": (inputs_capillary_n32, pass_capillary_n32, "simulate"),
    "diagnostics": (inputs_diagnostics, pass_diagnostics, "symbols"),
}
