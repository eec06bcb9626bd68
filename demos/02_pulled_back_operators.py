"""Convergence study: strip operators applied to pulled-back harmonics.

A harmonic function composed with the strip map is annihilated by the
transformed operator exactly; the finite-difference residual therefore
measures pure truncation error and must shrink at second order under grid
doubling.
"""

import numpy as np

from muskatlab.geometry import InterfacePair, constant_fn, from_callable, make_grid
from muskatlab.operators import (
    StripField,
    StripGrid,
    apply_operator,
    coeffs_A_minus,
    strip_heights,
)

print(f"{'n':>4} {'mode':>5} {'residual':>12} {'rate':>6}")
for m in (1, 2, 3):
    prev = None
    for n in (16, 32, 64, 128):
        grid = make_grid(n)
        strip = StripGrid(grid, n, "minus")
        f = from_callable(grid, lambda t: 0.2 * np.sin(t))
        fh = InterfacePair(f, constant_fn(grid, 1.0), -1.0)
        harmonic = np.exp(m * strip_heights(fh, strip)) * np.cos(m * grid.nodes)[:, None]
        coeffs = coeffs_A_minus(fh, strip)
        resid = np.max(np.abs(apply_operator(coeffs, StripField(strip, harmonic)).values))
        rate = "" if prev is None else f"{np.log2(prev / resid):.2f}"
        print(f"{n:>4} {m:>5} {resid:>12.3e} {rate:>6}")
        prev = resid
