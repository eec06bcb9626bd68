"""Fourier multiplier symbols of the linearized problem, with their oracle.

The per-mode linearizations at a frozen point are multiplication by
closed-form symbols at tau = 0; an independently assembled boundary value
problem reconstructs the same numbers, to near machine precision for
arbitrary frozen points.  For tau > 0 the boundary value problem alone
gives the symbols, printed here on their own.  The frozen point is read
from the potentials solved on the state's TransmissionOperator.
"""

import numpy as np

from muskatlab.diffraction import TransmissionOperator
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
sol = TransmissionOperator(fh, params, 16).potentials(constant_fn(grid, 0.4))
fp = frozen_constants(sol, x=1.0)

print("frozen point at x = 1.0:")
print(f"  D_plus={fp.D_plus:.4f} D_minus={fp.D_minus:.4f} "
      f"Delta_rho={fp.Delta_rho:.4f} Delta_A={fp.Delta_A:.4f} V={fp.V:.4f}")

for name, closed_form, oracle in (("lambda", lambda_symbol, ode_oracle_lambda),
                                  ("phi", phi_symbol, ode_oracle_phi)):
    print(f"\n{'m':>3} {name + ' (formula)':>18} {name + ' (oracle)':>18} {'gap':>9}")
    for m in (1, 2, 4, 8, 16):
        formula = closed_form(fp, m)
        value = oracle(fp, m, 0.0).symbol_value
        print(f"{m:>3} {formula.real:>18.10f} {value.real:>18.10f} "
              f"{abs(formula - value):>9.1e}")

print("\noff equilibrium, tau > 0 (boundary-value oracle alone):")
for tau in (0.5, 1.0):
    for m in (1, 4):
        lam = ode_oracle_lambda(fp, m, tau).symbol_value
        phi_v = ode_oracle_phi(fp, m, tau).symbol_value
        print(f"  tau={tau} m={m}: lambda = {lam.real:+.6f}{lam.imag:+.6f}i, "
              f"phi = {phi_v.real:+.6f}{phi_v.imag:+.6f}i")
