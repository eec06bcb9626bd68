"""Convergence study: strip operators applied to pulled-back harmonics.

A harmonic function composed with the strip map is annihilated by the
transformed operator exactly; the finite-difference residual therefore
measures pure truncation error and must shrink at second order under grid
doubling.  The study is the built-in harmonic-pullback check of both strips
on n x n grids up to n = 128.
"""

from muskatlab.verify import check_harmonic_pullback_at

result = check_harmonic_pullback_at((16, 32, 64, 128), (1, 2, 3))
print(f"{result.name}: {'PASS' if result.passed else 'FAIL'}  {result.detail}")
raise SystemExit(0 if result.passed else 1)
