"""Fourier multiplier symbols of the linearized problem, with their oracle.

The per-mode linearizations at a frozen point are multiplication by
closed-form symbols; an independently assembled boundary value problem
reconstructs the same numbers.  At tau = 0 the two agree to near machine
precision for arbitrary frozen points.  For tau > 0 the printed closed
forms drift away from the boundary-value solution off equilibrium -- the
oracle is the trustworthy side there, and the gap is reported.
"""

import numpy as np

from muskatlab.diffraction import solve_potentials
from muskatlab.geometry import InterfacePair, constant_fn, from_callable, make_grid
from muskatlab.operators import FluidParams
from muskatlab.symbols import (
    frozen_constants,
    lambda_symbol,
    ode_oracle_lambda,
    phi_symbol,
    ode_oracle_phi,
)

params = FluidParams()
grid = make_grid(32)
fh = InterfacePair(from_callable(grid, lambda x: 0.15 * np.sin(x)),
                   from_callable(grid, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
sol = solve_potentials(fh, constant_fn(grid, 0.4), params, n_y=16)
fp = frozen_constants(sol, x=1.0)

print("frozen point at x = 1.0:")
print(f"  D_plus={fp.D_plus:.4f} D_minus={fp.D_minus:.4f} "
      f"Delta_rho={fp.Delta_rho:.4f} Delta_A={fp.Delta_A:.4f} V={fp.V:.4f}")

print(f"\n{'m':>3} {'lambda (formula)':>18} {'lambda (oracle)':>18} {'gap':>9}")
for m in (1, 2, 4, 8, 16):
    formula = lambda_symbol(fp, m, 0.0)
    oracle = ode_oracle_lambda(fp, m, 0.0).symbol_value
    print(f"{m:>3} {formula.real:>18.10f} {oracle.real:>18.10f} "
          f"{abs(formula - oracle):>9.1e}")

print("\ndrift of the closed forms off equilibrium (oracle authoritative):")
for tau in (0.5, 1.0):
    for m in (1, 4):
        gap_l = abs(lambda_symbol(fp, m, tau)
                    - ode_oracle_lambda(fp, m, tau).symbol_value)
        gap_p = abs(phi_symbol(fp, m, tau)
                    - ode_oracle_phi(fp, m, tau).symbol_value)
        print(f"  tau={tau} m={m}: |lambda gap| = {gap_l:.3e}, |phi gap| = {gap_p:.3e}")
