"""The coupled two-strip transmission solve, checked two ways.

First against the hand-solved flat two-layer profile (linear in each
layer, flux-matched at the interface), then by the method of manufactured
solutions with data produced by the discrete operators themselves, which
the solver must reproduce to solver precision.  Each problem is posed on
the TransmissionOperator of its interface state, whose `potentials` solves
it.
"""

import numpy as np

from muskatlab.diffraction import TransmissionOperator
from muskatlab.geometry import InterfacePair, constant_fn, from_callable, make_grid
from muskatlab.operators import FluidParams

params = FluidParams(mu_minus=2.0, mu_plus=0.5)
grid = make_grid(32)
flat = InterfacePair(constant_fn(grid, 0.0), constant_fn(grid, 1.0), -1.0)

c = 0.3
sol = TransmissionOperator(flat, params, 16).potentials(constant_fn(grid, c))
t = (params.g * params.rho_plus - c) / (params.mu_plus + params.mu_minus)
y_minus = sol.v_minus.strip.y_nodes
exact_minus = c + params.mu_minus * t * (y_minus + 1.0)
print("flat two-layer: slope parameter t =", t)
print("  max |v_minus - closed form| =",
      np.max(np.abs(sol.v_minus.values - exact_minus[None, :])))
print("  interface flux continuity residual =",
      np.max(np.abs(sol.tr0_dy_vplus.values * (params.k / params.mu_plus)
                    - sol.tr0_dy_vminus.values * (params.k / params.mu_minus))))

# a wavy geometry: the imposed interface conditions are recoverable from
# the cached traces
wavy = InterfacePair(from_callable(grid, lambda x: 0.2 * np.sin(x)),
                     from_callable(grid, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
sol = TransmissionOperator(wavy, params, 16).potentials(constant_fn(grid, c))
jump = sol.tr0_vplus.values - sol.tr0_vminus.values
target = params.g * (params.rho_plus - params.rho_minus) * wavy.f.values
print("wavy geometry: jump-condition residual =", np.max(np.abs(jump - target)))
