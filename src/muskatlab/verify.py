"""Built-in oracle suite: cross-checks every major formula numerically.

Each check pits an implementation path against an independent oracle:
pulled-back harmonics against both strip operators, discretely manufactured
data and closed forms against the transmission solver, finite differences
against the directional derivatives, the closed-form symbols against the
per-mode boundary value problems (at tau = 0, and at a flat equilibrium for
every tau), and a randomized ellipticity sweep against the boundary-ODE
quantity.

Each check is implemented once, as check_*_at with its sizes or seed as
arguments; the acceptance criteria and tests call these, and check_*(quick)
picks the arguments of `muskatlab verify [--quick]`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffraction, operators, symbols
from .geometry import InterfacePair, PeriodicFn, constant_fn, make_grid
from .operators import FluidParams, StripField, StripGrid


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _interfaces(grid, f_func, h_func, d=-1.0):
    return InterfacePair(PeriodicFn(grid, f_func(grid.nodes)),
                         PeriodicFn(grid, h_func(grid.nodes)), d)


def check_harmonic_pullback_at(sizes, modes) -> CheckResult:
    """Second-order consistency of both pulled-back strip operators.

    exp(m y) cos(m x) is harmonic, so at the pair f = 0.2 sin x,
    h = 1 + 0.1 cos x each strip operator (coeffs_A_minus, coeffs_A_plus)
    applied to its pullback is pure truncation error.  Its max norm is taken
    on an n x n strip for every n in sizes and m in modes; every rate
    log2(err_i/err_i+1) between consecutive sizes must lie within 0.3 of 2.
    """
    strips = (("minus", operators.coeffs_A_minus), ("plus", operators.coeffs_A_plus))
    errs = np.empty((len(strips), len(modes), len(sizes)))
    for j, n in enumerate(sizes):
        grid = make_grid(n)
        fh = _interfaces(grid, lambda x: 0.2 * np.sin(x), lambda x: 1.0 + 0.1 * np.cos(x))
        for s, (side, coeffs_A) in enumerate(strips):
            strip = StripGrid(grid, n, side)
            coeffs = coeffs_A(fh, strip)
            y_phys = operators.strip_heights(fh, strip)
            for i, m in enumerate(modes):
                u = np.exp(m * y_phys) * np.cos(m * grid.nodes)[:, None]
                errs[s, i, j] = np.max(np.abs(
                    operators.apply_operator(coeffs, StripField(strip, u)).values))
    rates = np.log2(errs[..., :-1] / errs[..., 1:])
    ok = bool(np.all(np.abs(rates - 2.0) < 0.3))
    ranges = ", ".join(f"{side} [{r.min():.2f}, {r.max():.2f}]"
                       for (side, _), r in zip(strips, rates))
    return CheckResult("harmonic-pullback-order", ok,
                       f"rates {ranges} (target 2.0 +- 0.3)")


def check_harmonic_pullback(quick: bool = False) -> CheckResult:
    sizes, modes = ((16, 32), (1, 2)) if quick else ((16, 32, 64), (1, 2, 3))
    return check_harmonic_pullback_at(sizes, modes)


def check_manufactured_at(n: int, n_y: int) -> CheckResult:
    """The transmission solver against exact discrete and closed-form solutions.

    On an n x n_y grid: smooth fields on both strips at a wavy pair are
    recovered from the data they generate (error < 1e-12); the flat
    two-layer flow with b = 0.25 matches its closed form, affine in y, in
    both strips (< 1e-11); zero data without gravity gives zero potentials
    (< 1e-10).
    """
    grid = make_grid(n)
    par = FluidParams()
    fh = _interfaces(grid, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x),
                     lambda x: 1.0 + 0.1 * np.cos(x))
    op = diffraction.TransmissionOperator(fh, par, n_y)
    strip_p, strip_m = op.strips
    v_plus = StripField(strip_p, np.sin(grid.nodes)[:, None]
                        * np.exp(strip_p.y_nodes)[None, :] + 0.2)
    v_minus = StripField(strip_m, np.cos(2 * grid.nodes)[:, None]
                         * (1 + strip_m.y_nodes)[None, :] ** 2)
    bc_p, bc_m = op.plus_bc, op.minus_bc
    data = diffraction.DiffractionData(
        operator=op,
        F_plus=operators.apply_operator(op.plus_coeffs, v_plus),
        F_minus=operators.apply_operator(op.minus_coeffs, v_minus),
        phi1=PeriodicFn(grid, bc_p.apply(v_plus) - bc_m.apply(v_minus)),
        phi2=PeriodicFn(grid, v_plus.values[:, 0] - v_minus.values[:, -1]),
        phi3=PeriodicFn(grid, v_plus.values[:, -1]),
        phi4=PeriodicFn(grid, v_minus.values[:, 0]),
    )
    sol = diffraction.solve_general(data)
    err = max(np.max(np.abs(sol.v_plus.values - v_plus.values)),
              np.max(np.abs(sol.v_minus.values - v_minus.values)))

    c = 0.25
    flat = _interfaces(grid, lambda x: 0 * x, lambda x: 0 * x + 1.0)
    sol2 = diffraction.TransmissionOperator(flat, par, n_y).potentials(constant_fn(grid, c))
    t = (par.g * par.rho_plus - c) / (par.mu_plus + par.mu_minus)
    vm_exact = c + par.mu_minus * t * (strip_m.y_nodes + 1.0)
    vp_exact = par.g * par.rho_plus - par.mu_plus * t * (1.0 - strip_p.y_nodes)
    err2 = max(np.max(np.abs(sol2.v_minus.values - vm_exact[None, :])),
               np.max(np.abs(sol2.v_plus.values - vp_exact[None, :])))

    zero = diffraction.TransmissionOperator(flat, FluidParams(g=0.0), n_y).potentials(
        constant_fn(grid, 0.0))
    err3 = max(np.max(np.abs(zero.v_plus.values)), np.max(np.abs(zero.v_minus.values)))
    ok = err < 1e-12 and err2 < 1e-11 and err3 < 1e-10
    return CheckResult("manufactured-solutions", ok,
                       f"recover {err:.1e} (< 1e-12), two-layer {err2:.1e} (< 1e-11), "
                       f"zero-data {err3:.1e} (< 1e-10)")


def check_manufactured(quick: bool = False) -> CheckResult:
    return check_manufactured_at(16, 12) if quick else check_manufactured_at(32, 16)


def check_frechet_at(seed: int, eps_list) -> CheckResult:
    """Finite-difference check of the eight directional derivatives.

    At a fixed wavy pair and in a random direction drawn from seed (the
    boundary operators act on random fields drawn after it), the error of
    the difference quotient of each operator, one interface moved, against
    frechet_A_along/frechet_B_along is taken at every eps in eps_list.  Each
    consecutive pair gives the convergence slope log2(err_i/err_i+1) / log2(eps_i/eps_i+1), which is 1
    for a correct derivative; every slope must lie within 0.2 of 1.
    """
    grid = make_grid(32)
    rng = np.random.default_rng(seed)
    par = FluidParams()
    fh = _interfaces(grid, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x),
                     lambda x: 1.2 + 0.1 * np.cos(x))
    direction = PeriodicFn(grid, rng.standard_normal(grid.n_x))
    eps = np.asarray(eps_list, dtype=float)

    def coeff_stack(c):
        return np.stack([c.c_xx, c.c_xy, c.c_yy, c.c_y])

    along = {"f": (direction, None), "h": (None, direction)}
    cases = []  # (operator as a function of the pair, its derivative at fh, moved interface)
    for coeffs, side, moved in ((operators.coeffs_A_minus, "minus", "f"),
                                (operators.coeffs_A_plus, "plus", "f"),
                                (operators.coeffs_A_plus, "plus", "h")):
        strip = StripGrid(grid, 16, side)
        cases.append((lambda pair, c=coeffs, s=strip: coeff_stack(c(pair, s)),
                      coeff_stack(operators.frechet_A_along(fh, *along[moved], strip)), moved))
    for name, boundary, moved in (("B_minus", operators.boundary_B_minus, "f"),
                                  ("B_plus", operators.boundary_B_plus, "f"),
                                  ("B_plus", operators.boundary_B_plus, "h"),
                                  ("B1", operators.boundary_B1, "h"),
                                  ("B1", operators.boundary_B1, "f")):
        strip = StripGrid(grid, 16, "minus" if name == "B_minus" else "plus")
        field = StripField(strip, rng.standard_normal(strip.shape))
        cases.append((lambda pair, b=boundary, fld=field: b(pair, par, fld).values,
                      operators.frechet_B_along(name, fh, *along[moved], par, field).values,
                      moved))

    worst = 0.0
    for at, exact, moved in cases:
        base, errs = at(fh), []
        for e in eps:
            pair = (InterfacePair(fh.f + e * direction, fh.h, fh.d) if moved == "f"
                    else InterfacePair(fh.f, fh.h + e * direction, fh.d))
            errs.append(np.max(np.abs((at(pair) - base) / e - exact)))
        errs = np.array(errs)
        slopes = np.log2(errs[:-1] / errs[1:]) / np.log2(eps[:-1] / eps[1:])
        worst = max(worst, float(np.max(np.abs(slopes - 1.0))))
    return CheckResult("frechet-derivatives", worst < 0.2,
                       f"{len(cases)} operators, worst slope deviation {worst:.3f} (limit 0.2)")


def check_frechet(quick: bool = False) -> CheckResult:
    return check_frechet_at(2024, (1e-3, 2.5e-4) if quick else (1e-3, 5e-4, 2.5e-4))


def random_frozen_point(rng):
    """A frozen point under random fluid parameters, drawn from rng.

    The parameters are drawn first, then the ten local data in the order of
    frozen_from_local_data's arguments; the point carries the parameters as
    its params.
    """
    params = FluidParams(k=rng.uniform(0.3, 3), mu_minus=rng.uniform(0.3, 3),
                         mu_plus=rng.uniform(0.3, 3), rho_minus=rng.uniform(0, 3),
                         rho_plus=rng.uniform(0, 3), g=rng.uniform(0, 2),
                         gamma_f=rng.uniform(0, 1), gamma_h=rng.uniform(0, 1),
                         d=-rng.uniform(0.5, 2.0))
    return symbols.frozen_from_local_data(
        f_slope=rng.uniform(-1, 1), h_slope=rng.uniform(-1, 1),
        gap_minus=rng.uniform(0.3, 2), gap_plus=rng.uniform(0.3, 2),
        dy_v_minus=rng.uniform(-1, 1), dy_v_plus=rng.uniform(-1, 1),
        dx_v_minus=rng.uniform(-1, 1), dx_v_plus=rng.uniform(-1, 1),
        dy_v_plus_top=rng.uniform(-1, 1), dx_v_plus_top=rng.uniform(-1, 1),
        params=params)


def check_symbols_oracle_at(seed: int, n_points: int) -> CheckResult:
    """The closed-form symbols against the per-mode boundary-value oracle.

    At n_points random frozen points and modes drawn from seed, the
    symbols must match the oracle at tau = 0 (gap < 1e-9) with boundary
    residuals < 1e-10; at the flat equilibrium, where the tau-coupled
    constants vanish, they must match the oracle for tau in
    {0.25, 0.5, 0.75, 1} and m in {1, 2, 4, 8, 16} (gap < 1e-9).
    """
    rng = np.random.default_rng(seed)
    worst_tau0 = 0.0
    worst_resid = 0.0
    for _ in range(n_points):
        fp = random_frozen_point(rng)
        m = int(rng.integers(1, 33))
        lam_o = symbols.ode_oracle_lambda(fp, m, 0.0)
        phi_o = symbols.ode_oracle_phi(fp, m, 0.0)
        worst_tau0 = max(worst_tau0,
                         abs(lam_o.symbol_value - symbols.lambda_symbol(fp, m)),
                         abs(phi_o.symbol_value - symbols.phi_symbol(fp, m)))
        worst_resid = max(worst_resid, lam_o.residual, phi_o.residual)

    fp_eq = symbols.frozen_from_local_data(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, FluidParams())
    worst_eq = 0.0
    for tau in (0.25, 0.5, 0.75, 1.0):
        for m in (1, 2, 4, 8, 16):
            worst_eq = max(
                worst_eq,
                abs(symbols.ode_oracle_lambda(fp_eq, m, tau).symbol_value
                    - symbols.lambda_symbol(fp_eq, m)),
                abs(symbols.ode_oracle_phi(fp_eq, m, tau).symbol_value
                    - symbols.phi_symbol(fp_eq, m)))

    ok = worst_tau0 < 1e-9 and worst_eq < 1e-9 and worst_resid < 1e-10
    return CheckResult(
        "symbols-vs-ode-oracle", ok,
        f"{n_points} points: tau=0 max gap {worst_tau0:.1e} (< 1e-9), "
        f"residuals {worst_resid:.1e} (< 1e-10), equilibrium {worst_eq:.1e} (< 1e-9)")


def check_symbols_oracle(quick: bool = False) -> CheckResult:
    return check_symbols_oracle_at(777, 20 if quick else 100)


def check_complementing_sweep_at(seed: int, n_cases: int) -> CheckResult:
    """The complementing-condition quantity over n_cases random elliptic
    operator pairs, frequencies and homotopy parameters drawn from seed as
    arrays and evaluated in one call; the check passes when its minimum is
    positive."""
    rng = np.random.default_rng(seed)
    pairs = (n_cases, 2)
    a11 = rng.uniform(0.1, 5.0, pairs)
    a22 = rng.uniform(0.1, 5.0, pairs)
    a12 = rng.uniform(-0.99, 0.99, pairs) * np.sqrt(a11 * a22)
    beta2 = rng.uniform(0.05, 5.0, pairs)
    beta1 = rng.uniform(-3.0, 3.0, pairs)
    xi = rng.uniform(0.05, 4.0, n_cases) * rng.choice((-1.0, 1.0), n_cases)
    tau = rng.uniform(0.0, 1.0, n_cases)
    rep = diffraction.check_complementing(a11, a12, a22, beta1, beta2, xi=xi, tau=tau)
    min_quantity = float(np.min(rep.quantity))
    return CheckResult("complementing-condition", min_quantity > 0,
                       f"{n_cases} random elliptic cases, min quantity {min_quantity:.3e}")


def check_complementing_sweep(quick: bool = False) -> CheckResult:
    return check_complementing_sweep_at(4096, 2000 if quick else 10_000)


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run every check."""
    return [
        check_harmonic_pullback(quick),
        check_manufactured(quick),
        check_frechet(quick),
        check_symbols_oracle(quick),
        check_complementing_sweep(quick),
    ]
