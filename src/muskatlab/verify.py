"""Built-in oracle suite: cross-checks every major formula numerically.

Each check pits an implementation path against an independent oracle:
pulled-back harmonics against the strip operators, discretely manufactured
data against the transmission solver, finite differences against the
directional derivatives, the closed-form symbols against the per-mode
boundary value problems, and a randomized ellipticity sweep against the
boundary-ODE quantity.  The symbol check also reports how far the printed
symbol expressions drift from the boundary-value oracle away from
equilibria (they agree only where the ambiguous terms vanish; the oracle
is authoritative there).
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


def check_harmonic_pullback(quick: bool = False) -> CheckResult:
    sizes = (16, 32) if quick else (16, 32, 64)
    modes = (1, 2) if quick else (1, 2, 3)
    worst = (np.inf, -np.inf)
    rates_all = []
    for m in modes:
        errs = []
        for n in sizes:
            grid = make_grid(n)
            strip = StripGrid(grid, n, "minus")
            fh = _interfaces(grid, lambda x: 0.2 * np.sin(x), lambda x: 0 * x + 1.0)
            y_phys = operators.strip_heights(fh, strip)
            u = np.exp(m * y_phys) * np.cos(m * grid.nodes)[:, None]
            coeffs = operators.coeffs_A_minus(fh, strip)
            errs.append(np.max(np.abs(
                operators.apply_operator(coeffs, StripField(strip, u)).values)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        rates_all.extend(rates)
        worst = (min(worst[0], rates.min()), max(worst[1], rates.max()))
    ok = all(abs(r - 2.0) < 0.3 for r in rates_all)
    return CheckResult("harmonic-pullback-order", ok,
                       f"rates in [{worst[0]:.2f}, {worst[1]:.2f}] (target 2.0 +- 0.3)")


def check_manufactured(quick: bool = False) -> CheckResult:
    n = 16 if quick else 32
    grid = make_grid(n)
    n_y = max(12, n // 2)
    par = FluidParams()
    fh = _interfaces(grid, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x),
                     lambda x: 1.0 + 0.1 * np.cos(x))
    op = diffraction.pulled_back_operator(fh, par, n_y)
    strip_p, strip_m = op.strips
    v_plus = StripField(strip_p, np.sin(grid.nodes)[:, None]
                        * np.exp(strip_p.y_nodes)[None, :])
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

    # flat two-layer closed form
    c = 0.25
    flat = _interfaces(grid, lambda x: 0 * x, lambda x: 0 * x + 1.0)
    sol2 = diffraction.solve_potentials(flat, constant_fn(grid, c), par, n_y=n_y)
    t = (par.g * par.rho_plus - c) / (par.mu_plus + par.mu_minus)
    vm_exact = c + par.mu_minus * t * (strip_m.y_nodes + 1.0)
    err2 = np.max(np.abs(sol2.v_minus.values - vm_exact[None, :]))

    zero = diffraction.solve_potentials(flat, constant_fn(grid, 0.0),
                                        FluidParams(g=0.0), n_y=n_y)
    err3 = max(np.max(np.abs(zero.v_plus.values)), np.max(np.abs(zero.v_minus.values)))
    ok = err < 1e-12 and err2 < 1e-11 and err3 < 1e-10
    return CheckResult("manufactured-solutions", ok,
                       f"recover {err:.1e}, two-layer {err2:.1e}, zero-data {err3:.1e}")


def check_frechet_at(seed: int, eps_list) -> CheckResult:
    """Finite-difference check of the eight directional derivatives.

    At a fixed wavy pair and in a random direction drawn from seed (the
    boundary operators act on random fields drawn after it), the error of
    the difference quotient of each operator against frechet_A/frechet_B
    is taken at every eps in eps_list.  Each consecutive pair gives the
    convergence slope log2(err_i/err_i+1) / log2(eps_i/eps_i+1), which is 1
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
        return np.stack([c.c_xx, c.c_xy, c.c_yy, c.c_x, c.c_y, c.c_0])

    cases = []  # (which, operator as a function of the pair, its derivative at fh)
    for which in ("minus_f", "plus_f", "plus_h"):
        strip = StripGrid(grid, 16, "minus" if which == "minus_f" else "plus")
        coeffs = operators.coeffs_A_minus if which == "minus_f" else operators.coeffs_A_plus
        cases.append((which, lambda pair, c=coeffs, s=strip: coeff_stack(c(pair, s)),
                      coeff_stack(operators.frechet_A(which, fh, direction, par, strip))))
    for which, boundary in (("B_minus_f", operators.boundary_B_minus),
                            ("B_plus_f", operators.boundary_B_plus),
                            ("B_plus_h", operators.boundary_B_plus),
                            ("B1_h", operators.boundary_B1),
                            ("B1_f", operators.boundary_B1)):
        strip = StripGrid(grid, 16, "minus" if which == "B_minus_f" else "plus")
        field = StripField(strip, rng.standard_normal(strip.shape))
        cases.append((which, lambda pair, b=boundary, fld=field: b(pair, par, fld).values,
                      operators.frechet_B(which, fh, direction, par, field).values))

    worst = 0.0
    for which, at, exact in cases:
        moves_h = which in ("plus_h", "B_plus_h", "B1_h")
        base, errs = at(fh), []
        for e in eps:
            pair = (InterfacePair(fh.f, fh.h + e * direction, fh.d) if moves_h
                    else InterfacePair(fh.f + e * direction, fh.h, fh.d))
            errs.append(np.max(np.abs((at(pair) - base) / e - exact)))
        errs = np.array(errs)
        slopes = np.log2(errs[:-1] / errs[1:]) / np.log2(eps[:-1] / eps[1:])
        worst = max(worst, float(np.max(np.abs(slopes - 1.0))))
    return CheckResult("frechet-derivatives", worst < 0.2,
                       f"{len(cases)} operators, worst slope deviation {worst:.3f} (limit 0.2)")


def check_frechet(quick: bool = False) -> CheckResult:
    return check_frechet_at(2024, (1e-3, 2.5e-4) if quick else (1e-3, 5e-4, 2.5e-4))


def check_symbols_oracle(quick: bool = False):
    rng = np.random.default_rng(777)
    n_points = 20 if quick else 100
    worst_tau0 = 0.0
    worst_resid = 0.0
    tau1_disc = 0.0
    for _ in range(n_points):
        par = FluidParams(k=rng.uniform(0.3, 3), mu_minus=rng.uniform(0.3, 3),
                          mu_plus=rng.uniform(0.3, 3), rho_minus=rng.uniform(0, 3),
                          rho_plus=rng.uniform(0, 3), g=rng.uniform(0, 2),
                          gamma_f=rng.uniform(0, 1), gamma_h=rng.uniform(0, 1),
                          d=-rng.uniform(0.5, 2.0))
        fp = symbols.frozen_from_local_data(
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.3, 2),
            rng.uniform(0.3, 2), rng.uniform(-1, 1), rng.uniform(-1, 1),
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1),
            rng.uniform(-1, 1), par)
        m = int(rng.integers(1, 33))
        lam_o = symbols.ode_oracle_lambda(fp, m, 0.0, par)
        phi_o = symbols.ode_oracle_phi(fp, m, 0.0, par)
        worst_tau0 = max(worst_tau0,
                         abs(lam_o.symbol_value - symbols.lambda_symbol(fp, m, 0.0, par)),
                         abs(phi_o.symbol_value - symbols.phi_symbol(fp, m, 0.0, par)))
        worst_resid = max(worst_resid, lam_o.residual, phi_o.residual)
        lam_1 = symbols.ode_oracle_lambda(fp, m, 1.0, par)
        tau1_disc = max(tau1_disc,
                        abs(lam_1.symbol_value - symbols.lambda_symbol(fp, m, 1.0, par)))

    # flat equilibrium: all tau-coupled constants vanish, formulas must agree
    par = FluidParams()
    fp_eq = symbols.frozen_from_local_data(0, 0, 1, 1, 0, 0, 0, 0, 0, 0, par)
    worst_eq = 0.0
    for tau in (0.25, 0.5, 1.0):
        for m in (1, 2, 8):
            worst_eq = max(
                worst_eq,
                abs(symbols.ode_oracle_lambda(fp_eq, m, tau, par).symbol_value
                    - symbols.lambda_symbol(fp_eq, m, tau, par)),
                abs(symbols.ode_oracle_phi(fp_eq, m, tau, par).symbol_value
                    - symbols.phi_symbol(fp_eq, m, tau, par)))

    ok = worst_tau0 < 1e-9 and worst_eq < 1e-9 and worst_resid < 1e-10
    result = CheckResult(
        "symbols-vs-ode-oracle", ok,
        f"tau=0 max gap {worst_tau0:.1e}, equilibrium {worst_eq:.1e}, "
        f"residuals {worst_resid:.1e}")
    info = (f"tau=1 printed-formula vs oracle gap off equilibrium: {tau1_disc:.3e} "
            "(nonzero expected; the boundary-value oracle is authoritative)")
    return result, info


def check_complementing_sweep_at(seed: int, n_cases: int) -> CheckResult:
    """The complementing-condition quantity over n_cases random elliptic
    operator pairs, frequencies and homotopy parameters drawn from seed;
    the check passes when its minimum is positive."""
    rng = np.random.default_rng(seed)
    min_quantity = np.inf
    for _ in range(n_cases):
        a11 = rng.uniform(0.1, 5.0, 2)
        a22 = rng.uniform(0.1, 5.0, 2)
        a12 = rng.uniform(-0.99, 0.99, 2) * np.sqrt(a11 * a22)
        beta2 = rng.uniform(0.05, 5.0, 2)
        beta1 = rng.uniform(-3.0, 3.0, 2)
        xi = rng.uniform(0.05, 4.0) * rng.choice((-1.0, 1.0))
        tau = rng.uniform(0.0, 1.0)
        rep = diffraction.check_complementing(a11, a12, a22, beta1, beta2,
                                              xi=xi, tau=tau)
        min_quantity = min(min_quantity, rep.quantity)
    ok = min_quantity > 0
    return CheckResult("complementing-condition", ok,
                       f"{n_cases} random elliptic cases, min quantity {min_quantity:.3e}")


def check_complementing_sweep(quick: bool = False) -> CheckResult:
    return check_complementing_sweep_at(4096, 2000 if quick else 10_000)


def run_all(quick: bool = False):
    """Run every check; returns (results, info_lines)."""
    results = [
        check_harmonic_pullback(quick),
        check_manufactured(quick),
        check_frechet(quick),
    ]
    sym_result, info = check_symbols_oracle(quick)
    results.append(sym_result)
    results.append(check_complementing_sweep(quick))
    return results, [info]
