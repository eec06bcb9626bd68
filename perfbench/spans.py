"""Span tracing of muskatlab installed from outside the package.

Wrappers replace public functions on the module attributes through which
callers look them up (``from .geometry import spectral_derivative`` binds a
name in every importing module, so each binding is replaced).  The sparse
factorization and condition estimate are wrapped only as ``diffraction``
sees them, through a stand-in for its ``scipy.sparse.linalg`` module.  Spans
are kept in memory; per-layer metrics are derived from them afterwards.

Bookkeeping that is not part of the wrapped call (reading the factor's
nonzero count, encoding written text to count bytes) runs on a paused span
clock, so it never inflates a parent span.  It still shows in the traced
wall time, and therefore in ``trace.overhead_frac``.
"""

from __future__ import annotations

import functools
import pathlib
import statistics
import time
import types

import scipy.sparse.linalg as spla

import muskatlab
from muskatlab import cli, config, diffraction, evolution, geometry, operators, symbols, verify

_MODULES = (muskatlab, geometry, operators, diffraction, evolution, symbols, config, cli, verify)

# (module, attribute, span name)
_TARGETS = (
    (geometry, "spectral_derivative", "geometry.spectral_derivative"),
    (geometry, "check_admissible", "geometry.check_admissible"),
    (operators, "coeffs_A_plus", "operators.coeffs"),
    (operators, "coeffs_A_minus", "operators.coeffs"),
    (operators, "boundary_B_minus", "operators.boundary"),
    (operators, "boundary_B_plus", "operators.boundary"),
    (operators, "boundary_B1", "operators.boundary"),
    (operators, "b_coeffs_minus", "operators.boundary"),
    (operators, "b_coeffs_plus", "operators.boundary"),
    (operators, "apply_operator", "operators.apply"),
    (diffraction, "solve_general", "diffraction.solve"),
    (evolution, "simulate", "evolution.simulate"),
    (evolution, "step", "evolution.step"),
    (evolution, "phi", "evolution.phi"),
    (evolution, "rayleigh_taylor", "evolution.rt"),
    (evolution, "linearized_matrix", "evolution.linearized"),
    (symbols, "ode_oracle_lambda", "symbols.oracle"),
    (symbols, "ode_oracle_phi", "symbols.oracle"),
    (symbols, "lambda_symbol", "symbols.formula"),
    (symbols, "phi_symbol", "symbols.formula"),
    (symbols, "lambda_st_symbol", "symbols.formula"),
    (symbols, "phi_st_symbol", "symbols.formula"),
    (symbols, "frozen_constants", "symbols.frozen"),
    (symbols, "frozen_from_local_data", "symbols.frozen"),
    (verify, "check_harmonic_pullback", "verify.harmonic"),
    (verify, "check_manufactured", "verify.manufactured"),
    (verify, "check_frechet", "verify.frechet"),
    (verify, "check_symbols_oracle", "verify.symbols"),
    (verify, "check_complementing_sweep", "verify.complementing"),
    (cli, "cmd_simulate", "cli.command.simulate"),
    (cli, "cmd_rtcheck", "cli.command.rtcheck"),
    (cli, "cmd_symbols", "cli.command.symbols"),
    (cli, "cmd_spectrum", "cli.command.spectrum"),
    (cli, "cmd_verify", "cli.command.verify"),
    (cli, "_write_snapshot", "cli.write"),
)

CLI_COMMANDS = ("simulate", "rtcheck", "symbols", "spectrum", "verify")
LU_BYTES_PER_NONZERO = 8 + 4  # float64 value + int32 row index


class _LinalgView(types.ModuleType):
    """scipy.sparse.linalg with some functions replaced on the instance."""

    def __getattr__(self, name):
        return getattr(spla, name)


class Tracer:
    """In-memory span recorder; spans are dicts with name, start, end, parent, op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def bookkeeping(self, func):
        """Run func() with the span clock stopped; returns its result."""
        started = time.perf_counter()
        try:
            return func()
        finally:
            self._paused += time.perf_counter() - started

    def wrap(self, name: str, func, after=None):
        """Return func recording one span per call; after(span, args, result) adds fields."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = {"name": name, "start": self.now(), "end": None,
                    "parent": self._stack[-1] if self._stack else -1,
                    "op": self.op_id, "error": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.now()
                self._stack.pop()
            if after is not None:
                self.bookkeeping(lambda: after(span, args, result))
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr, name in _TARGETS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.wrap(name, original))

        def factor_facts(span, args, lu):
            span["n"] = int(args[0].shape[0])
            span["nnz"] = int(lu.L.nnz + lu.U.nnz)

        linalg = _LinalgView("scipy.sparse.linalg")
        linalg.splu = self.wrap("diffraction.factor", spla.splu, factor_facts)
        linalg.onenormest = self.wrap("diffraction.condest", spla.onenormest)
        self._restore.append((diffraction, "spla", diffraction.spla))
        diffraction.spla = linalg

        def written(span, args, result):
            span["bytes"] = len(args[1].encode("utf-8"))

        base = type(pathlib.Path())
        traced_write = self.wrap("cli.write", base.write_text, written)
        traced_path = type("TracedPath", (base,), {"write_text": traced_write})
        self._restore.append((cli, "Path", cli.Path))
        cli.Path = traced_path

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Metrics from spans


def _duration(span) -> float:
    return span["end"] - span["start"]


def _children(spans):
    kids = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span["parent"] >= 0:
            kids[span["parent"]].append(idx)
    return kids


def _outer_seconds(spans, name) -> float:
    """Time in spans called name, not counting those nested in another of them."""
    return sum(_duration(s) for i, s in enumerate(spans)
               if s["name"] == name and not _inside(spans, i, name))


def _self_seconds(spans, kids, name) -> float:
    return sum(_duration(s) - sum(_duration(spans[k]) for k in kids[i])
               for i, s in enumerate(spans) if s["name"] == name)


def _inside(spans, idx, name) -> bool:
    parent = spans[idx]["parent"]
    while parent >= 0:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def layer_metrics(spans, passes: int, steps_accepted: int, overhead_frac: float,
                  config_load_s: float) -> dict:
    """Per-layer metrics per traced pass, from the spans of that many passes.

    The first solve span must be the first solve of the process: it is
    reported as the cold solve, all later ones as steady solves.
    """
    per = 1.0 / passes
    kids = _children(spans)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def secs(name):
        return _outer_seconds(spans, name) * per

    solves = [i for i, s in enumerate(spans) if s["name"] == "diffraction.solve"]
    factors = [s for s in spans if s["name"] == "diffraction.factor" and s["error"] is None]
    steady = [_duration(spans[i]) * 1e3 for i in solves[1:]]
    n_solve = len(solves)
    n_step = count("evolution.step")
    solves_in_sim = sum(1 for i in solves if _inside(spans, i, "evolution.simulate"))
    accepted = steps_accepted * per
    nnz_mean = statistics.fmean(s["nnz"] for s in factors) if factors else 0.0

    m = {
        "config.load_s": (config_load_s, "s"),
        "geometry.spectral_derivative.calls_per_solve":
            (count("geometry.spectral_derivative") / n_solve if n_solve else 0.0, "count"),
        "geometry.spectral_derivative.s": (secs("geometry.spectral_derivative"), "s"),
        "geometry.check_admissible.calls": (count("geometry.check_admissible") * per, "count"),
        "operators.coeffs.calls": (count("operators.coeffs") * per, "count"),
        "operators.coeffs.s": (secs("operators.coeffs"), "s"),
        "operators.boundary.s": (secs("operators.boundary"), "s"),
        "operators.apply.s": (secs("operators.apply"), "s"),
        "diffraction.solve.calls": (n_solve * per, "count"),
        "diffraction.solve.s": (secs("diffraction.solve"), "s"),
        "diffraction.solve.self_s": (_self_seconds(spans, kids, "diffraction.solve") * per, "s"),
        "diffraction.solve.p50_ms": (statistics.median(steady) if steady else 0.0, "ms"),
        "diffraction.solve.first_ms": (_duration(spans[solves[0]]) * 1e3 if solves else 0.0, "ms"),
        "diffraction.factor.calls": (count("diffraction.factor") * per, "count"),
        "diffraction.factor.s": (secs("diffraction.factor"), "s"),
        "diffraction.condest.calls": (count("diffraction.condest") * per, "count"),
        "diffraction.condest.s": (secs("diffraction.condest"), "s"),
        "diffraction.unknowns":
            (statistics.fmean(s["n"] for s in factors) if factors else 0.0, "count"),
        "diffraction.lu_nnz_mean": (nnz_mean, "count"),
        "diffraction.lu_mb_computed": (nnz_mean * LU_BYTES_PER_NONZERO / 1e6, "MB"),
        "diffraction.failures":
            (sum(1 for i in solves if spans[i]["error"]) * per, "count"),
        "evolution.steps_accepted": (accepted, "count"),
        "evolution.steps_rejected": (n_step * per - accepted, "count"),
        "evolution.accept_ratio": (accepted / (n_step * per) if n_step else 0.0, "ratio"),
        "evolution.step.s": (secs("evolution.step"), "s"),
        "evolution.phi.calls": (count("evolution.phi") * per, "count"),
        "evolution.rt.calls": (count("evolution.rt") * per, "count"),
        "evolution.rt.s": (secs("evolution.rt"), "s"),
        "evolution.solves_per_accepted_step":
            (solves_in_sim * per / accepted if accepted else 0.0, "count"),
        "evolution.simulate.self_s":
            (_self_seconds(spans, kids, "evolution.simulate") * per, "s"),
        "evolution.linearized.s": (secs("evolution.linearized"), "s"),
        "symbols.oracle.calls": (count("symbols.oracle") * per, "count"),
        "symbols.oracle.s": (secs("symbols.oracle"), "s"),
        "symbols.formula.s": (secs("symbols.formula"), "s"),
        "symbols.frozen.s": (secs("symbols.frozen"), "s"),
        "verify.harmonic.s": (secs("verify.harmonic"), "s"),
        "verify.manufactured.s": (secs("verify.manufactured"), "s"),
        "verify.frechet.s": (secs("verify.frechet"), "s"),
        "verify.symbols.s": (secs("verify.symbols"), "s"),
        "verify.complementing.s": (secs("verify.complementing"), "s"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.command.{command}.s"] = (secs(f"cli.command.{command}"), "s")
    m["cli.write.s"] = (secs("cli.write"), "s")
    m["cli.write.bytes"] = (sum(s.get("bytes", 0) for s in spans
                                if s["name"] == "cli.write") * per, "bytes")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
