"""Interface evolution: the nonlinear velocity operator and time stepping.

Both interfaces move with the co-normal traces of the transformed velocity
potentials; one transmission solve per evaluation.  Time stepping is
explicit adaptive Runge-Kutta-Fehlberg 4(5) with step rejection and a
2/3-rule de-aliasing of the interfaces after every accepted step.  The
embedded error estimate alone sets the step, so with surface tension it
finds the stability limit of the cubic surface-tension symbol by itself.
The stages of a step, whose matrices differ from its starting state's by
O(dt), are solved by iterative refinement on the run's base factorization
and factor themselves only when the refinement fails.  A refined solve of
the run's step problem starts from a solution predicted from earlier
solutions of that problem; with surface tension the monitor's gravity-only
solve has no earlier solution of its problem and is refined from zero.
A run keeps its base factorization for the next accepted state while the
stages refined on it stay cheap, so a state is factored only at t = 0, after
a step whose stages needed more than REFACTOR_AFTER corrections, or when its
own refinement falls back.  A step taken outside a run is the reference
RKF45 path, on which every solve factors its own matrix.

The Rayleigh-Taylor monitor reads its margins off the gravity-driven
interface velocities in their Darcy (Saffman-Taylor) form, normalized to
physical normal derivatives; positive margins are the parabolicity regime
of the gravity-driven problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import SimConfig
from .diffraction import (
    FALLBACK_CAUSES,
    DiffractionSolution,
    SolveRecord,
    SolverFailure,
    TransmissionOperator,
    pulled_back_operator,
    solve_linearized,
    solve_potentials,
)
from .geometry import AdmissibilityError, InterfacePair, PeriodicFn
from .operators import FluidParams, StripField, frechet_B_along, strip_heights

__all__ = [
    "RTReport",
    "SimState",
    "StepRejected",
    "Trajectory",
    "dealias",
    "fit_mode_rate",
    "linearized_matrix",
    "mode_amplitude",
    "phi",
    "pressures",
    "rayleigh_taylor",
    "simulate",
    "step",
]

# Fehlberg 4(5) tableau; the fourth-order solution is propagated.  The bottom
# pressure is constant in time, so the stage times are not needed.
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
# the stage nodes, by which a stage's start is extrapolated
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)

_MAX_STEPS = 200_000
_MIN_DT = 1e-12
# a run's solver refines its next accepted state on the base of the step
# before when every stage of that step refined on the base within this many
# corrections, and factors the state otherwise.
REFACTOR_AFTER = 6


class StepRejected(RuntimeError):
    """An intermediate Runge-Kutta stage left the admissible set."""


@dataclass(frozen=True)
class SimState:
    t: float
    fh: InterfacePair
    slope: tuple[PeriodicFn, PeriodicFn] | None = None  # phi(fh), step's first stage


@dataclass(frozen=True)
class RTReport:
    """Signed parabolicity margins; positive means Rayleigh-Taylor holds."""

    margin_f: float
    margin_h: float

    @property
    def satisfied(self) -> bool:
        return self.margin_f > 0.0 and self.margin_h > 0.0


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    f_values: list = field(default_factory=list)
    h_values: list = field(default_factory=list)
    rt_reports: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    reason: str = ""
    # rejected step attempts by cause: error ratio above 1, or a stage that
    # was not finite or left the admissible set (StepRejected)
    steps_rejected: dict = field(default_factory=lambda: {"error": 0, "stage": 0})
    # why a run stopped short of t_end: kind, message, t and dt where it failed,
    # the solver's condition estimate when it has one, and the smallest
    # gap_minus and gap_plus of the state whose solve or step failed (for
    # admissibility_lost, the step result before de-aliasing); None otherwise
    failure: dict | None = None
    # how the run's transmission problems were solved, from their records:
    # solves, factorizations, refined solves, all corrections and the most in
    # one solve, and refinements that fell back by cause
    solver: dict = field(default_factory=lambda: {
        "solves": 0, "factorizations": 0, "refined": 0, "corrections": 0,
        "max_corrections": 0, "fallbacks": dict.fromkeys(FALLBACK_CAUSES, 0)})

    def record(self, t, fh, report, dt):
        if self.times and t <= self.times[-1]:
            raise ValueError("trajectory times must increase strictly")
        self.times.append(float(t))
        self.f_values.append(fh.f.values.copy())
        self.h_values.append(fh.h.values.copy())
        self.rt_reports.append(report)
        self.dt_used.append(float(dt))

    def count_solve(self, record: SolveRecord):
        counts = self.solver
        counts["solves"] += 1
        counts["factorizations"] += record.method == "factored"
        counts["refined"] += record.method == "refined"
        counts["corrections"] += record.corrections
        counts["max_corrections"] = max(counts["max_corrections"], record.corrections)
        if record.fallback is not None:
            counts["fallbacks"][record.fallback] += 1


class _RunSolver:
    """The transmission solves of one run: each refines on the run's base,
    a factored operator or None, and is counted.  A solve of a given stage
    starts from a predicted start; a solve without one (the gravity-only
    monitor of a surface-tension run) starts from zero.

    A start is a solution vector of the run's step problem: the potentials
    with surface tension when the run has it, the gravity-only ones otherwise.
    One buffer, allocated once and overwritten in place, holds three: row 0
    is x0, the solution at the step's start state; row 1 the latest stage's,
    which after an accepted attempt is its c = 1 stage's; row 2 the start of
    the current stage.  Stage 1 starts from x0 and stage s >= 2 from
    x0 + (c_s / c_{s-1}) (x_{s-1} - x0); the step problem of an accepted
    state (stage 0) starts from the accepted attempt's c = 1 stage.
    slowest is the most corrections a stage of the latest attempt needed,
    infinite when one was not refined.  The solver keeps its own base: an
    accepted state's solves (stage None or 0) first release it when slowest
    exceeds REFACTOR_AFTER, freeing its factor before the state factors, and
    a state whose step problem was not refined on it becomes the base.
    """

    def __init__(self, unknowns: int, count_solve):
        self.rows = np.zeros((3, unknowns))
        self.count_solve = count_solve
        self.slowest = 0.0
        self.base: TransmissionOperator | None = None

    def start(self, stage: int) -> np.ndarray:
        x0, latest, start = self.rows
        if stage == 0:  # zeros before the first step, ignored by the initial state's own factor
            return latest
        if stage == 1:
            return x0
        np.subtract(latest, x0, out=start)
        start *= _RKF_C[stage] / _RKF_C[stage - 1]
        start += x0
        return start

    def solve(self, operator: TransmissionOperator, b: PeriodicFn, surface_tension: bool,
              stage: int | None = None) -> DiffractionSolution:
        """The potentials on operator, refined on the base from the given
        stage's start; the solution is counted, and kept when it is that
        stage of the step problem."""
        if stage in (None, 0) and self.slowest > REFACTOR_AFTER:
            self.base = None
        start = None if stage is None else self.start(stage)
        solution = operator.potentials(b, surface_tension, start, self.base)
        record = solution.record
        self.count_solve(record)
        if stage is None:
            return solution
        if stage == 0 and record.method != "refined":
            self.base = operator
        if stage >= 1:
            cost = record.corrections if record.method == "refined" else np.inf
            self.slowest = cost if stage == 1 else max(self.slowest, cost)
        if stage <= 4:
            self.rows[min(stage, 1)] = solution.vector
        return solution


def _velocities(sol: DiffractionSolution):
    operator = sol.operator
    df = PeriodicFn(operator.fh.grid, -operator.minus_bc.apply(sol.v_minus))
    dh = PeriodicFn(operator.fh.grid, -operator.top_bc.apply(sol.v_plus))
    return df, dh


def _check_bottom_pressure(b):
    if not isinstance(b, PeriodicFn):
        raise TypeError("b must be a PeriodicFn; evaluate a time-dependent b at the state's time")


def phi(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
        surface_tension: bool = False, n_y: int | None = None,
        run: _RunSolver | None = None, stage: int | None = None):
    """Interface velocities (df/dt, dh/dt) at fh with bottom pressure b.

    Without a run the solve factors fh's matrix; a run solves the given
    stage on its base (see :meth:`_RunSolver.solve`).
    """
    _check_bottom_pressure(b)
    operator = pulled_back_operator(fh, params, n_y)
    if run is None:
        return _velocities(operator.potentials(b, surface_tension))
    return _velocities(run.solve(operator, b, surface_tension, stage))


def pressures(solution: DiffractionSolution) -> tuple[StripField, StripField]:
    """Fluid pressures on the strips: potential minus the hydrostatic part."""
    fh, params = solution.operator.fh, solution.operator.params
    y_plus = strip_heights(fh, solution.v_plus.strip)
    y_minus = strip_heights(fh, solution.v_minus.strip)
    p_plus = StripField(solution.v_plus.strip,
                        solution.v_plus.values - params.g * params.rho_plus * y_plus)
    p_minus = StripField(solution.v_minus.strip,
                         solution.v_minus.values - params.g * params.rho_minus * y_minus)
    return p_plus, p_minus


def _rt_report(fh: InterfacePair, params: FluidParams, velocities) -> RTReport:
    df, dh = velocities
    drho = params.g * (params.rho_minus - params.rho_plus)
    dmu = (params.mu_minus - params.mu_plus) / params.k
    margin_f = np.min((drho + dmu * df.values) / np.sqrt(1.0 + fh.f.derivatives[0]**2))
    margin_h = np.min((params.g * params.rho_plus + (params.mu_plus / params.k) * dh.values)
                      / np.sqrt(1.0 + fh.h.derivatives[0]**2))
    return RTReport(margin_f=float(margin_f), margin_h=float(margin_h))


def rayleigh_taylor(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
                    n_y: int | None = None) -> RTReport:
    """Parabolicity margins from the gravity-driven interface velocities.

    margin_f is the minimum over x of g (rho_- - rho_+) + ((mu_- - mu_+) /
    k) df/dt, which is minus the jump of the normal pressure derivative
    across the lower interface because the potentials' flux row imposes
    B_+ v_+ = B_- v_- = -df/dt; margin_h is the minimum of g rho_+ + (mu_+ /
    k) dh/dt, minus the upper fluid's normal pressure derivative on the top
    interface.  Both are physical normal derivatives (divided by
    sqrt(1 + f'^2) and sqrt(1 + h'^2)).  b is the bottom pressure at the
    time of fh; a time-dependent b is evaluated by the caller.
    """
    return _rt_report(fh, params, phi(fh, b, params, n_y=n_y))


def step(state: SimState, dt: float, b: PeriodicFn, params: FluidParams,
         surface_tension: bool = False, n_y: int | None = None,
         run: _RunSolver | None = None):
    """One explicit RKF45 step of the interface evolution.

    Returns (new_state, error_estimate); the estimate is the sup-norm of the
    embedded fourth/fifth-order difference.  The first stage is the state's
    slope, solved here when the state carries none.  A run, whose x0 is the
    state's slope solution, solves the later stages on its base; without one
    each stage factors its own matrix.  Raises StepRejected when an
    intermediate stage or the result is not finite or leaves the admissible
    set.
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    _check_bottom_pressure(b)
    fh = state.fh
    slope = state.slope or phi(fh, b, params, surface_tension, n_y)
    # f and h stacked as rows, so each stage is one array expression
    y0 = np.stack([fh.f.values, fh.h.values])
    ks = [np.stack([u.values for u in slope])]
    for stage in range(1, 6):
        y = y0
        for j, a in enumerate(_RKF_A[stage]):
            y = y + dt * a * ks[j]
        stage_fh = _stacked_pair(y, fh, f"stage {stage}")
        velocities = phi(stage_fh, b, params, surface_tension, n_y, run, stage)
        ks.append(np.stack([u.values for u in velocities]))

    y4 = y0 + dt * sum(w * k for w, k in zip(_RKF_B4, ks))
    err = dt * sum((b5 - b4) * k for b4, b5, k in zip(_RKF_B4, _RKF_B5, ks))
    new_fh = _stacked_pair(y4, fh, "step result")
    return SimState(t=state.t + dt, fh=new_fh), float(np.max(np.abs(err)))


def _stacked_pair(y: np.ndarray, like: InterfacePair, what: str) -> InterfacePair:
    """The pair with rows (f, h) of y on like's grid and bottom; StepRejected
    when it is not finite or not admissible."""
    try:
        return InterfacePair(PeriodicFn(like.grid, y[0]), PeriodicFn(like.grid, y[1]), like.d)
    except ValueError as exc:
        raise StepRejected(f"{what} left the admissible set ({exc})") from exc


def dealias(u: PeriodicFn) -> PeriodicFn:
    """Zero the modes above two thirds of the Nyquist mode."""
    n = u.grid.n_x
    cutoff = (2 * (n // 2)) // 3
    coeff = np.fft.rfft(u.values)
    coeff[cutoff + 1:] = 0.0
    return PeriodicFn(u.grid, np.fft.irfft(coeff, n=n))


def simulate(config: SimConfig) -> Trajectory:
    """Adaptive integration of the interface evolution described by config.

    Terminates with reason 't_end', 'admissibility_lost', 'rt_violated'
    (when stop_on_rt is set on a run without surface tension), or
    'step_failure'; failures are recorded in the trajectory's failure, never
    raised past it, and the trajectory counts how its solves were solved.
    An accepted state's RT margins and first stage share one operator (and,
    without surface tension, one solve and its velocities).  This call reads
    velocities only: the solutions, and the base they refine on, stay in the
    run's solver (see :class:`_RunSolver`), which lives as long as this call
    and factors a state only as the module docstring says; a state refined
    on the base carries the base's condition estimate scaled by the
    refinement.
    """
    fh, b = config.initial_state()
    params = config.params
    stop_on_rt = config.stop_on_rt and not config.surface_tension
    traj = Trajectory()

    def fail(reason: str, kind: str, message: str, state: SimState, dt: float,
             condition_estimate: float | None = None) -> Trajectory:
        traj.reason = reason
        traj.failure = {"kind": kind, "message": message, "t": float(state.t), "dt": float(dt),
                        "condition_estimate": condition_estimate,
                        "gap_minus": float(np.min(state.fh.gap_minus.values)),
                        "gap_plus": float(np.min(state.fh.gap_plus.values))}
        return traj

    def accept(t: float, fh: InterfacePair, dt_used: float) -> SimState | None:
        """Record an accepted state, solved by the run; return it with its
        slope, or None at the end."""
        operator = pulled_back_operator(fh, params, config.n_y)
        try:
            gravity = _velocities(run.solve(operator, b, False,
                                            None if config.surface_tension else 0))
            report = _rt_report(fh, params, gravity)
            traj.record(t, fh, report, dt_used)
            if stop_on_rt and not report.satisfied:
                traj.reason = "rt_violated"
            elif t >= config.t_end * (1.0 - 1e-12):
                traj.reason = "t_end"
            else:
                slope = gravity
                if config.surface_tension:
                    slope = _velocities(run.solve(operator, b, True, 0))
                return SimState(t=t, fh=fh, slope=slope)
        except SolverFailure as exc:
            fail("step_failure", "solver_failure", str(exc), SimState(t, fh), dt_used,
                 exc.condition_estimate)
        return None

    # the predictions' buffer, of both strips' n_x (n_y + 1) nodes, is made
    # before the first factorization
    run = _RunSolver(2 * fh.grid.n_x * (config.n_y + 1), traj.count_solve)
    state = accept(0.0, fh, 0.0)
    if state is None:
        return traj
    dt = min(config.dt_init, config.dt_max, config.t_end)
    rejected_in_a_row = 0
    for _ in range(_MAX_STEPS):
        dt = min(dt, config.t_end - state.t)
        try:
            new_state, err = step(state, dt, b, params, config.surface_tension,
                                  n_y=config.n_y, run=run)
        except StepRejected:
            cause, shrink = "stage", 0.5
        except SolverFailure as exc:
            return fail("step_failure", "solver_failure", str(exc), state, dt,
                        exc.condition_estimate)
        except AdmissibilityError as exc:
            return fail("step_failure", "admissibility", str(exc), state, dt)
        else:
            scale = max(np.max(np.abs(new_state.fh.f.values)),
                        np.max(np.abs(new_state.fh.h.values)), 1.0)
            tol = config.atol + config.rtol * scale
            ratio = err / tol
            cause, shrink = "error", max(0.2, 0.9 * ratio ** (-0.2)) if ratio > 1.0 else None
        if shrink is not None:  # the step is rejected
            traj.steps_rejected[cause] += 1
            dt *= shrink
            rejected_in_a_row += 1
            if rejected_in_a_row > 60:
                return fail("step_failure", "rejections",
                            f"{rejected_in_a_row} step attempts rejected in a row", state, dt)
            if dt < _MIN_DT:
                return fail("step_failure", "min_dt", f"step size {dt:.3e} below {_MIN_DT:.0e}",
                            state, dt)
            continue
        rejected_in_a_row = 0

        try:
            dealiased = InterfacePair(dealias(new_state.fh.f), dealias(new_state.fh.h),
                                      new_state.fh.d)
        except AdmissibilityError as exc:
            return fail("admissibility_lost", "admissibility", str(exc), new_state, dt)
        state = accept(new_state.t, dealiased, dt)
        if state is None:
            return traj

        growth = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** (-0.2))
        dt = min(dt * max(0.2, growth), config.dt_max)
    return fail("step_failure", "max_steps", f"{_MAX_STEPS} step attempts made", state, dt)


# ---------------------------------------------------------------------------
# Linearization diagnostics


def _assert_x_independent(u: PeriodicFn, name: str):
    if np.max(np.abs(u.values - np.mean(u.values))) > 1e-12:
        raise ValueError(f"{name} must be x-independent for per-mode linearization")


def linearized_matrix(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
                      modes, surface_tension: bool = False,
                      n_y: int | None = None) -> np.ndarray:
    """Per-mode Jacobians of the interface velocities at a flat state.

    The derivative of (df, dh) = (-B(f) v_minus, -B1 v_plus) along the
    mode-m sine in each interface is the Frechet derivative of the boundary
    operator applied to the base potentials plus the boundary operator
    applied to the linearized potentials.  At an x-independent base the
    modes decouple, so projecting back onto that sine gives a real 2x2
    matrix per mode.  The base operator is factored once and every mode's
    two linearized problems are solved on it.  Returns an array of shape
    (len(modes), 2, 2); every mode is validated before any solve.
    """
    grid = fh.grid
    modes = [_mode_index(m, grid.n_x) for m in modes]
    _assert_x_independent(fh.f, "f")
    _assert_x_independent(fh.h, "h")
    _assert_x_independent(b, "b")

    base = solve_potentials(fh, b, params, n_y, surface_tension)
    minus_bc, top_bc = base.operator.minus_bc, base.operator.top_bc
    zero = PeriodicFn(grid, np.zeros(grid.n_x))
    out = np.empty((len(modes), 2, 2))
    for i, m in enumerate(modes):
        sine = PeriodicFn(grid, np.sin(m * grid.nodes))
        for j, delta in enumerate(((sine, zero), (zero, sine))):
            # B_minus sees the lower interface only: its derivative vanishes along h
            b_minus = (frechet_B_along("B_minus", fh, *delta, params, base.v_minus)
                       if delta[0] is sine else None)
            w_plus, w_minus = solve_linearized(base, *delta, b_minus)
            lower = PeriodicFn(grid, minus_bc.apply(w_minus))
            if b_minus is not None:
                lower = b_minus + lower
            upper = (frechet_B_along("B1", fh, *delta, params, base.v_plus)
                     + PeriodicFn(grid, top_bc.apply(w_plus)))
            out[i, :, j] = lower.values @ sine.values, upper.values @ sine.values
    return -2.0 / grid.n_x * out


def _mode_index(m, n_x: int) -> int:
    """m as an int, checked to be a mode strictly between the mean and the
    Nyquist mode of n_x nodes."""
    if not float(m).is_integer():
        raise ValueError(f"mode m must be an integer, got {m!r}")
    if not 1 <= m < n_x / 2:
        raise ValueError(f"mode m must satisfy 1 <= m < {n_x // 2} (below the Nyquist mode), "
                         f"got {m!r}")
    return int(m)


def mode_amplitude(values: np.ndarray, m: int) -> float:
    """Magnitude of the mode-m Fourier coefficient of sampled values, for
    1 <= m < n/2 (the mean and the Nyquist mode have no sine/cosine pair)."""
    n = len(values)
    coeff = np.fft.rfft(values)[_mode_index(m, n)]
    return float(2.0 * np.abs(coeff) / n)


def fit_mode_rate(times, amplitudes, efolds: float = 1.0):
    """Least-squares growth rate of log|amplitude| over the given e-folds.

    Fits from the first sample until the amplitude has changed by the
    requested number of e-folds (either direction).  Returns (rate,
    r_squared); fits with r_squared below 0.999 should be rejected.
    """
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    if np.any(amps <= 0):
        raise ValueError("amplitudes must be positive for a log fit")
    logs = np.log(amps)
    target = efolds
    idx = np.nonzero(np.abs(logs - logs[0]) >= target)[0]
    end = int(idx[0]) + 1 if idx.size else len(logs)
    if end < 3:
        raise ValueError("not enough samples inside the fit window")
    t_win, y_win = times[:end], logs[:end]
    coeffs = np.polyfit(t_win, y_win, 1)
    fit = np.polyval(coeffs, t_win)
    ss_res = float(np.sum((y_win - fit) ** 2))
    ss_tot = float(np.sum((y_win - np.mean(y_win)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coeffs[0]), r_squared
