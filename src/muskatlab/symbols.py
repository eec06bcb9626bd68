"""Frozen-coefficient Fourier multiplier symbols and their ODE oracle.

Freezing the transmission problem's coefficients at one spatial point turns
each linearized interface operator into a Fourier multiplier.  A
:class:`FrozenPoint` is built from the local data at the point (the two
slopes, the two gaps and six potential traces) and its fluid, and derives
the frozen constants from them; :func:`frozen_constants` reads those data off
a solved state.  This module evaluates the closed-form symbols of the
gravity-driven and surface-tension-driven linearizations at a point, and
solves the per-mode two-point boundary value problems directly as an
independent oracle for those formulas.  The gravity-driven closed forms are
those of tau = 0; for tau in (0, 1] the oracle is the only value.  It also
provides the resolvent (Marcinkiewicz-type) diagnostics and the
parabolicity-region checks, whose lower-interface jump is the
Rayleigh-Taylor margin the evolution monitor computes.

Hyperbolic ratios are evaluated in overflow-free form throughout; the
oracle's boundary rows are scaled by sech(D m), which rescales equations
(not unknowns) and keeps every matrix entry bounded for large modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .diffraction import DiffractionSolution
from .geometry import PeriodicFn
from .operators import FluidParams

__all__ = [
    "FrozenPoint",
    "MarcinkiewiczReport",
    "RegionReport",
    "SymbolODESolution",
    "frozen_constants",
    "frozen_from_local_data",
    "lambda_st_symbol",
    "lambda_symbol",
    "marcinkiewicz_check",
    "ode_oracle_lambda",
    "ode_oracle_phi",
    "phi_st_symbol",
    "phi_symbol",
    "region_check_R",
    "region_check_S",
]


def _sech(x):
    ax = np.abs(x)
    return 2.0 * np.exp(-ax) / (1.0 + np.exp(-2.0 * ax))


def _csch(x):
    if x == 0.0:
        raise ZeroDivisionError("csch(0)")
    ax = abs(x)
    return np.sign(x) * 2.0 * np.exp(-ax) / (1.0 - np.exp(-2.0 * ax))


def _coth(x):
    return 1.0 / np.tanh(x)


@dataclass(frozen=True)
class FrozenPoint:
    """Constants of the frozen-coefficient operators at one spatial point,
    derived on construction from its local data and params, the fluid it is
    frozen under (every symbol and oracle reads k/mu and g rho_+ there).

    The local data are the slopes and gaps, the strip-coordinate traces of the
    base potentials on the shared interface (dy/dx_v_minus, dy/dx_v_plus) and
    the upper potential's on the top interface (*_top).  Of the constants,
    a/b/D with plus/minus suffixes belong to the principal parts of the two
    strip operators frozen on the shared interface; a1/b1/D1 to the upper
    strip operator frozen on the top interface.  beta are the first-order
    boundary operator coefficients, A/B/V the trace combinations entering the
    per-mode problems, and V_f/V_h the surface-tension weights.  Positive gaps
    make b - a^2 = (gap / s)^2 (s = 1 + slope^2) and beta2 positive, but in
    floating point b - a^2 underflows below a gap of about 1e-154, and rounds
    to zero or below from a slope of about 1e8; such a point is refused.
    """

    f_slope: float
    h_slope: float
    gap_minus: float
    gap_plus: float
    dy_v_minus: float
    dy_v_plus: float
    dx_v_minus: float
    dx_v_plus: float
    dy_v_plus_top: float
    dx_v_plus_top: float
    params: FluidParams
    a_plus: float = field(init=False)
    a_minus: float = field(init=False)
    b_plus: float = field(init=False)
    b_minus: float = field(init=False)
    D_plus: float = field(init=False)
    D_minus: float = field(init=False)
    beta1_plus: float = field(init=False)
    beta1_minus: float = field(init=False)
    beta2_plus: float = field(init=False)
    beta2_minus: float = field(init=False)
    A_plus: float = field(init=False)
    A_minus: float = field(init=False)
    B: float = field(init=False)
    Delta_rho: float = field(init=False)
    Delta_A: float = field(init=False)
    a1: float = field(init=False)
    b1: float = field(init=False)
    D1: float = field(init=False)
    V: float = field(init=False)
    V_f: float = field(init=False)
    V_h: float = field(init=False)

    def __post_init__(self):
        local = [getattr(self, f.name) for f in fields(self) if f.init and f.name != "params"]
        if not np.all(np.isfinite(local)):
            raise ValueError("local data must be finite")
        (f_slope, h_slope, gap_minus, gap_plus, dy_v_minus, dy_v_plus, dx_v_minus, dx_v_plus,
         dy_v_plus_top, _) = local
        if gap_minus <= 0 or gap_plus <= 0:
            raise ValueError("gaps must be positive")
        params = self.params
        km, kp = params.k / params.mu_minus, params.k / params.mu_plus
        s0, s1 = 1.0 + f_slope**2, 1.0 + h_slope**2
        a_minus, b_minus = -f_slope * gap_minus / s0, gap_minus**2 / s0
        a_plus, b_plus = -f_slope * gap_plus / s0, gap_plus**2 / s0
        a1, b1 = -h_slope * gap_plus / s1, gap_plus**2 / s1
        discriminants = (b_plus - a_plus**2, b_minus - a_minus**2, b1 - a1**2)
        if not all(disc > 0 for disc in discriminants):
            raise ValueError("frozen point requires b - a^2 > 0")
        d_plus, d_minus, d1 = (float(np.sqrt(disc)) for disc in discriminants)
        big_a_plus, big_a_minus = dy_v_plus / gap_plus, dy_v_minus / gap_minus
        for name, value in dict(
                a_plus=a_plus, a_minus=a_minus, b_plus=b_plus, b_minus=b_minus,
                D_plus=d_plus, D_minus=d_minus,
                beta1_plus=-kp * f_slope, beta1_minus=-km * f_slope,
                beta2_plus=kp * s0 / gap_plus, beta2_minus=km * s0 / gap_minus,
                A_plus=big_a_plus, A_minus=big_a_minus,
                B=(km * (2.0 * f_slope * big_a_minus - dx_v_minus)
                   - kp * (2.0 * f_slope * big_a_plus - dx_v_plus)),
                Delta_rho=params.g * (params.rho_minus - params.rho_plus),
                Delta_A=big_a_plus - big_a_minus,
                a1=a1, b1=b1, D1=d1,
                V=dy_v_plus_top / gap_plus,
                V_f=params.gamma_f * s0 ** (-1.5),
                V_h=params.gamma_h * s1 ** (-1.5)).items():
            object.__setattr__(self, name, value)


def frozen_from_local_data(f_slope: float, h_slope: float, gap_minus: float,
                           gap_plus: float, dy_v_minus: float, dy_v_plus: float,
                           dx_v_minus: float, dx_v_plus: float,
                           dy_v_plus_top: float, dx_v_plus_top: float,
                           params: FluidParams) -> FrozenPoint:
    """The frozen point of these local data (see :class:`FrozenPoint`)."""
    return FrozenPoint(f_slope, h_slope, gap_minus, gap_plus, dy_v_minus, dy_v_plus,
                       dx_v_minus, dx_v_plus, dy_v_plus_top, dx_v_plus_top, params)


def frozen_constants(base_solution: DiffractionSolution, x: float) -> FrozenPoint:
    """Frozen constants at the point x of the solution's state, interfaces and
    traces interpolated."""
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    base = base_solution.operator.fh
    f_val = base.f.at(x)
    return frozen_from_local_data(
        f_slope=PeriodicFn(base.grid, base.f.derivatives[0]).at(x),
        h_slope=PeriodicFn(base.grid, base.h.derivatives[0]).at(x),
        gap_minus=f_val - base.d,
        gap_plus=base.h.at(x) - f_val,
        dy_v_minus=base_solution.tr0_dy_vminus.at(x),
        dy_v_plus=base_solution.tr0_dy_vplus.at(x),
        dx_v_minus=base_solution.tr0_dx_vminus.at(x),
        dx_v_plus=base_solution.tr0_dx_vplus.at(x),
        dy_v_plus_top=base_solution.tr1_dy_vplus.at(x),
        dx_v_plus_top=base_solution.tr1_dx_vplus.at(x),
        params=base_solution.operator.params,
    )


# ---------------------------------------------------------------------------
# Closed-form symbols


def _check_args(m: int, tau: float = 0.0):
    if m == 0:
        raise ValueError("mode m must be nonzero")
    if not 0.0 <= tau <= 1.0:  # NaN fails too
        raise ValueError(f"tau must lie in [0, 1], got {tau!r}")


def _lambda_denominator(fp: FrozenPoint, m: int) -> float:
    return (np.tanh(fp.D_plus * m) / (fp.beta2_plus * fp.D_plus * m)
            + np.tanh(fp.D_minus * m) / (fp.beta2_minus * fp.D_minus * m))


def lambda_symbol(fp: FrozenPoint, m: int) -> complex:
    """Closed-form per-mode symbol of the lower-interface linearization at
    tau = 0 (real); for tau > 0 read :func:`ode_oracle_lambda`."""
    _check_args(m)
    return complex(-(fp.Delta_rho + fp.Delta_A) / _lambda_denominator(fp, m), 0.0)


def phi_symbol(fp: FrozenPoint, m: int) -> complex:
    """Closed-form per-mode symbol of the upper-interface linearization at
    tau = 0 (real); for tau > 0 read :func:`ode_oracle_phi`."""
    _check_args(m)
    kp = fp.params.k / fp.params.mu_plus
    g_rho = fp.params.g * fp.params.rho_plus
    return complex(-kp * (g_rho - fp.V) * m / np.tanh(fp.D1 * m), 0.0)


def lambda_st_symbol(fp: FrozenPoint, m: int) -> float:
    """Surface-tension symbol of the lower-interface linearization (real)."""
    _check_args(m)
    return -fp.V_f * m**2 / _lambda_denominator(fp, m)


def phi_st_symbol(fp: FrozenPoint, m: int) -> float:
    """Surface-tension symbol of the upper-interface linearization (real)."""
    _check_args(m)
    return -(fp.params.k / fp.params.mu_plus) * fp.V_h * m**3 / np.tanh(fp.D1 * m)


# ---------------------------------------------------------------------------
# ODE boundary-value oracle


@dataclass(frozen=True)
class SymbolODESolution:
    """Coefficients of the per-mode solution and the reconstructed symbol.

    xi_plus/xi_minus hold the four real basis coefficients per strip for the
    two-strip problem; zeta holds them for the single-strip problem.  The
    residual is the max-norm defect of the boundary rows in their bounded,
    sech-scaled form.
    """

    symbol_value: complex
    residual: float
    xi_plus: tuple[float, float, float, float] | None = None
    xi_minus: tuple[float, float, float, float] | None = None
    zeta: tuple[float, float, float, float] | None = None


def _scaled_boundary_rows(a: float, D: float, m: int, y: float):
    """Real/imag rows of the four basis functions at y = +-1, times sech(Dm).

    After the scaling cosh(D m y) contributes 1 and sinh(D m y) contributes
    y*tanh(D m), so every entry stays bounded for large modes; the scaling
    is a positive factor on the equation, not a change of unknowns.
    """
    if y not in (-1.0, 1.0):
        raise ValueError("scaled rows are defined on the strip edges y = +-1")
    c = np.cos(a * m * y)
    s = np.sin(a * m * y)
    th = y * np.tanh(D * m)  # sinh(D m y) / cosh(D m)
    r = a / D
    u = np.array([c + r * s * th, c * th / (D * m),
                  s - r * c * th, s * th / (D * m)])
    v = np.array([-s + r * c * th, -s * th / (D * m),
                  c + r * s * th, c * th / (D * m)])
    return u, v


def ode_oracle_lambda(fp: FrozenPoint, m: int, tau: float) -> SymbolODESolution:
    """Solve the coupled per-mode two-strip problem and rebuild the symbol.

    Unknowns are the eight real coefficients of the general solutions in the
    two strips.  The symbol is reconstructed from the shared-interface
    traces of the lower solution combined with the frozen boundary operator,
    independently of the closed-form symbol expressions.
    """
    _check_args(m, tau)
    km = fp.params.k / fp.params.mu_minus

    mat = np.zeros((8, 8))
    rhs = np.zeros(8)

    # top of the plus strip: A_plus(1) = 0, scaled by sech(D_plus m)
    u_p, v_p = _scaled_boundary_rows(fp.a_plus, fp.D_plus, m, 1.0)
    mat[0, 0:4] = u_p
    rhs[0] = -tau * fp.A_plus * _sech(fp.D_plus * m)
    mat[1, 0:4] = v_p

    # bottom of the minus strip: A_minus(-1) = 0, scaled by sech(D_minus m)
    u_m, v_m = _scaled_boundary_rows(fp.a_minus, fp.D_minus, m, -1.0)
    mat[2, 4:8] = u_m
    rhs[2] = -tau * fp.A_minus * _sech(fp.D_minus * m)
    mat[3, 4:8] = v_m

    # value jump at y = 0: A(0) = (xi_1 + tau A) + i xi_3
    mat[4, 0] = 1.0
    mat[4, 4] = -1.0
    rhs[4] = -(fp.Delta_rho + (1.0 - tau) * fp.Delta_A) - tau * fp.A_plus + tau * fp.A_minus
    mat[5, 2] = 1.0
    mat[5, 6] = -1.0

    # flux balance at y = 0: A'(0) = xi_2 + i xi_4
    mat[6, 2] = -fp.beta1_plus * m
    mat[6, 6] = fp.beta1_minus * m
    mat[6, 1] = fp.beta2_plus
    mat[6, 5] = -fp.beta2_minus
    mat[7, 0] = fp.beta1_plus * m
    mat[7, 4] = -fp.beta1_minus * m
    mat[7, 3] = fp.beta2_plus
    mat[7, 7] = -fp.beta2_minus
    rhs[7] = tau * m * fp.B - tau * m * (fp.beta1_plus * fp.A_plus
                                         - fp.beta1_minus * fp.A_minus)

    try:
        xi = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular per-mode system at m={m}: {exc}") from exc
    residual = float(np.max(np.abs(mat @ xi - rhs)) / max(1.0, np.max(np.abs(xi))))

    value0 = complex(xi[4] + tau * fp.A_minus, xi[6])
    deriv0 = complex(xi[5], xi[7])
    e_minus = 2.0 * fp.f_slope * fp.A_minus - fp.dx_v_minus
    symbol = (-tau * km * e_minus * 1j * m
              - (fp.beta2_minus * deriv0 + fp.beta1_minus * 1j * m * value0))
    return SymbolODESolution(symbol_value=complex(symbol), residual=residual,
                             xi_plus=tuple(xi[0:4]), xi_minus=tuple(xi[4:8]))


def ode_oracle_phi(fp: FrozenPoint, m: int, tau: float) -> SymbolODESolution:
    """Solve the per-mode single-strip Dirichlet problem and rebuild the symbol.

    The four real basis coefficients come from the boundary rows; the top
    derivative trace is evaluated in a cancellation-free form (the cosh^2
    growth eliminated analytically) before the frozen top boundary operator
    is applied.
    """
    _check_args(m, tau)
    kp = fp.params.k / fp.params.mu_plus
    g_rho = fp.params.g * fp.params.rho_plus
    g_top = g_rho - (1.0 - tau) * fp.V

    mat = np.zeros((4, 4))
    rhs = np.zeros(4)
    # bottom: B(0) = 0
    mat[0, 0] = 1.0
    rhs[0] = -tau * fp.V
    mat[1, 2] = 1.0
    # top: B(1) = g_top, scaled by sech(D1 m)
    u_t, v_t = _scaled_boundary_rows(fp.a1, fp.D1, m, 1.0)
    mat[2, :] = u_t
    rhs[2] = (g_top - tau * fp.V) * _sech(fp.D1 * m)
    mat[3, :] = v_t

    try:
        zeta = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"singular per-mode system at m={m}: {exc}") from exc
    residual = float(np.max(np.abs(mat @ zeta - rhs)) / max(1.0, np.max(np.abs(zeta))))

    # B(y) = exp(-i a1 m y) (alpha cosh(D1 m y) + beta sinh(D1 m y)) + tau V
    # with alpha = -tau V; eliminating beta against the imposed top value
    # leaves only bounded hyperbolic ratios in the derivative trace.
    alpha = complex(zeta[0], zeta[2])
    dm = fp.D1 * m
    phase = complex(np.cos(fp.a1 * m), -np.sin(fp.a1 * m))
    deriv_top = ((g_top - tau * fp.V) * (dm * _coth(dm) - 1j * fp.a1 * m)
                 - dm * alpha * phase * _csch(dm))
    value_top = complex(g_top)

    p_coef = kp * (1.0 + fp.h_slope**2) / fp.gap_plus
    beta1_top = -kp * fp.h_slope
    e_plus = 2.0 * fp.h_slope * fp.V - fp.dx_v_plus_top
    symbol = (-tau * kp * e_plus * 1j * m
              - (p_coef * deriv_top + beta1_top * 1j * m * value_top))
    return SymbolODESolution(symbol_value=complex(symbol), residual=residual,
                             zeta=tuple(zeta))


# ---------------------------------------------------------------------------
# Resolvent diagnostics


@dataclass(frozen=True)
class MarcinkiewiczReport:
    s1: float
    s2: float


def marcinkiewicz_check(symbol_values, lam: complex, order_gain: int = 1) -> MarcinkiewiczReport:
    """Suprema of the multiplier bounds for the resolvent of a symbol.

    symbol_values holds lambda_m for m = 1..m_max (the symbol families here
    are conjugate-symmetric, so positive modes carry all magnitudes).  With
    Lambda_m = (lam - lambda_m)^(-1), s1 is the larger of
    sup |m|^g |Lambda_m| and sup |m|^(g+1) |Lambda_(m+1) - Lambda_m|, and s2
    is the same pair weighted by |lam| with exponents (0, 1).
    """
    vals = np.asarray(symbol_values, dtype=complex)
    if vals.ndim != 1 or vals.size < 2:
        raise ValueError("need a one-dimensional sequence of at least two symbol values")
    lam = complex(lam)
    if lam.real <= np.max(vals.real):
        raise ValueError("Re(lam) must strictly exceed the largest Re(lambda_m); "
                         "resolvent pole in range")
    ms = np.arange(1, vals.size + 1, dtype=float)
    resolvent = 1.0 / (lam - vals)
    diffs = np.abs(np.diff(resolvent))
    g = int(order_gain)
    s1 = max(np.max(ms**g * np.abs(resolvent)), np.max(ms[:-1] ** (g + 1) * diffs))
    s2 = abs(lam) * max(np.max(np.abs(resolvent)), np.max(ms[:-1] * diffs))
    return MarcinkiewiczReport(s1=float(s1), s2=float(s2))


# ---------------------------------------------------------------------------
# Parabolicity-region checks


@dataclass(frozen=True)
class RegionReport:
    ok: bool
    worst_margin: float
    margins: dict


def _c2_norm(u: PeriodicFn) -> float:
    return float(sum(np.max(np.abs(a)) for a in (u.values, *u.derivatives)))


def _region_report(base_solution: DiffractionSolution, sigma: float, jump,
                   traces) -> RegionReport:
    """Margins of a parabolicity region at level sigma, given its pointwise
    jump margins at sigma = 0 and the traces bounded by 1 / sigma: the
    smaller layer gap and the jump against sigma, the interfaces' C^2 norms
    and the traces' summed sup norms against 1 / sigma."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    base = base_solution.operator.fh
    gap = min(float(np.min(base.gap_minus.values)), float(np.min(base.gap_plus.values)))
    inv_sigma = np.inf if sigma == 0.0 else 1.0 / sigma
    margins = {
        "gap": gap - sigma,
        "norm": inv_sigma - (_c2_norm(base.f) + _c2_norm(base.h)),
        "jump": float(np.min(jump - sigma)),
        "trace": float(inv_sigma - sum(np.max(np.abs(t)) for t in traces)),
    }
    worst = min(margins.values())
    return RegionReport(ok=worst > 0, worst_margin=float(worst), margins=margins)


def region_check_S(base_solution: DiffractionSolution, sigma: float) -> RegionReport:
    """Slack of the lower-interface parabolicity region at level sigma.

    The jump condition pairs each shared-interface trace with its own layer
    gap, g (rho_- - rho_+) - (dy v_- / gap_- - dy v_+ / gap_+) > sigma; at
    sigma = 0 and a flat f this is the Rayleigh-Taylor margin_f of
    ``evolution.rayleigh_taylor``, since the flux row equates the co-normal
    traces.
    """
    base, params = base_solution.operator.fh, base_solution.operator.params
    dy_m = base_solution.tr0_dy_vminus.values
    dy_p = base_solution.tr0_dy_vplus.values
    drho = params.g * (params.rho_minus - params.rho_plus)
    jump = drho - (dy_m / base.gap_minus.values - dy_p / base.gap_plus.values)
    return _region_report(base_solution, sigma, jump, (dy_p, dy_m))


def region_check_R(base_solution: DiffractionSolution, sigma: float) -> RegionReport:
    """Slack of the upper-interface parabolicity region at level sigma."""
    base, params = base_solution.operator.fh, base_solution.operator.params
    dy_top = base_solution.tr1_dy_vplus.values
    jump = params.g * params.rho_plus - dy_top / base.gap_plus.values
    return _region_report(base_solution, sigma, jump, (dy_top,))
