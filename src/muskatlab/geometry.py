"""Periodic grids, spectral differentiation, and interface geometry.

Interfaces live on the unit circle (2*pi-periodic in x) and are sampled on
uniform grids.  All x-derivatives of interface quantities are spectral
(exact derivatives of the trigonometric interpolant), which keeps the
operator and symbol tests sharp.  Curvature and its directional derivative
are evaluated nodewise from those spectral derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "AdmissibilityError",
    "AdmissibilityReport",
    "InterfacePair",
    "PeriodicFn",
    "PeriodicGrid",
    "check_admissible",
    "curvature",
    "curvature_frechet",
    "make_grid",
    "spectral_derivative",
    "spectral_diff_matrix",
]


class AdmissibilityError(ValueError):
    """Interfaces violate the ordering d < f < h somewhere on the grid."""


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid on [0, 2*pi) with an even number of nodes."""

    n_x: int

    def __post_init__(self):
        if self.n_x < 8 or self.n_x % 2 != 0:
            raise ValueError(f"n_x must be even and >= 8, got {self.n_x}")

    @property
    def nodes(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_x) / self.n_x

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n_x


def make_grid(n_x: int) -> PeriodicGrid:
    """Build the uniform periodic grid with nodes x_i = 2*pi*i/n_x."""
    return PeriodicGrid(int(n_x))


@dataclass(frozen=True)
class PeriodicFn:
    """A 2*pi-periodic scalar function sampled at the grid nodes."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_x,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.n_x}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    def _check_grid(self, other: "PeriodicFn"):
        if self.grid != other.grid:
            raise ValueError("operands live on different grids")

    def __add__(self, other):
        if isinstance(other, PeriodicFn):
            self._check_grid(other)
            return PeriodicFn(self.grid, self.values + other.values)
        return PeriodicFn(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, PeriodicFn):
            self._check_grid(other)
            return PeriodicFn(self.grid, self.values - other.values)
        return PeriodicFn(self.grid, self.values - other)

    def __rsub__(self, other):
        return PeriodicFn(self.grid, other - self.values)

    def __mul__(self, other):
        if isinstance(other, PeriodicFn):
            self._check_grid(other)
            return PeriodicFn(self.grid, self.values * other.values)
        return PeriodicFn(self.grid, self.values * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, PeriodicFn):
            self._check_grid(other)
            return PeriodicFn(self.grid, self.values / other.values)
        return PeriodicFn(self.grid, self.values / other)

    def __neg__(self):
        return PeriodicFn(self.grid, -self.values)

    def at(self, x) -> np.ndarray | float:
        """Evaluate the trigonometric interpolant at arbitrary points x.

        The Nyquist mode is treated as a pure cosine, consistent with
        :func:`spectral_derivative` zeroing it for odd derivative orders.
        """
        x = np.asarray(x, dtype=float)
        n = self.grid.n_x
        c = np.fft.rfft(self.values) / n
        ks = np.arange(1, n // 2)
        out = np.full(x.shape, c[0].real)
        if ks.size:
            kx = np.multiply.outer(x, ks)
            out = out + 2.0 * (np.cos(kx) @ c[1:-1].real - np.sin(kx) @ c[1:-1].imag)
        out = out + c[-1].real * np.cos((n // 2) * x)
        return out if out.shape else float(out)


def constant_fn(grid: PeriodicGrid, value: float) -> PeriodicFn:
    """Constant function on the grid."""
    return PeriodicFn(grid, np.full(grid.n_x, float(value)))


def from_callable(grid: PeriodicGrid, func) -> PeriodicFn:
    """Sample a callable x -> f(x) at the grid nodes."""
    return PeriodicFn(grid, np.asarray(func(grid.nodes), dtype=float))


def _wavenumbers(n: int) -> np.ndarray:
    # rfft layout: modes 0 .. n/2
    return np.arange(n // 2 + 1, dtype=float)


def spectral_derivative(u: PeriodicFn, order: int) -> PeriodicFn:
    """Exact derivative of the trigonometric interpolant of u.

    Orders 1-4 are supported.  For odd orders the Nyquist mode is zeroed:
    the interpolant carries cos(n/2 x), whose derivative vanishes at the
    nodes.
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order}")
    n = u.grid.n_x
    k = _wavenumbers(n)
    fac = (1j * k) ** order
    if order % 2 == 1:
        fac[-1] = 0.0
    out = np.fft.irfft(np.fft.rfft(u.values) * fac, n=n)
    return PeriodicFn(u.grid, out)


def spectral_diff_matrix(grid: PeriodicGrid) -> np.ndarray:
    """Dense first-derivative matrix of the trigonometric interpolant.

    Matches spectral_derivative(u, 1) at the nodes (same Nyquist handling),
    in the classical cotangent form for an even number of nodes.
    """
    n = grid.n_x
    i = np.arange(n)
    diff = i[:, None] - i[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / n)
    np.fill_diagonal(d, 0.0)
    return d


def _curvature(zeta_x: PeriodicFn, zeta_xx: PeriodicFn) -> PeriodicFn:
    return PeriodicFn(zeta_x.grid, zeta_xx.values / (1.0 + zeta_x.values**2) ** 1.5)


def curvature(zeta: PeriodicFn) -> PeriodicFn:
    """Curvature of the graph y = zeta(x):  zeta'' / (1 + zeta'^2)^(3/2)."""
    return _curvature(spectral_derivative(zeta, 1), spectral_derivative(zeta, 2))


def curvature_frechet(zeta0: PeriodicFn, h: PeriodicFn) -> PeriodicFn:
    """Directional derivative of the curvature at zeta0 in direction h."""
    if zeta0.grid != h.grid:
        raise ValueError("operands live on different grids")
    z0p = spectral_derivative(zeta0, 1).values
    z0pp = spectral_derivative(zeta0, 2).values
    hp = spectral_derivative(h, 1).values
    hpp = spectral_derivative(h, 2).values
    s = 1.0 + z0p**2
    out = hpp / s**1.5 - 3.0 * z0p * z0pp * hp / s**2.5
    return PeriodicFn(zeta0.grid, out)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    gap_fd: float
    gap_hf: float


def check_admissible(f: PeriodicFn, h: PeriodicFn, d: float) -> AdmissibilityReport:
    """Nodewise check of the ordering d < f < h.

    gap_fd = min(f - d), gap_hf = min(h - f); ok iff both are positive.
    """
    if f.grid != h.grid:
        raise ValueError("f and h live on different grids")
    gap_fd = float(np.min(f.values - d))
    gap_hf = float(np.min(h.values - f.values))
    return AdmissibilityReport(ok=(gap_fd > 0.0 and gap_hf > 0.0), gap_fd=gap_fd, gap_hf=gap_hf)


@dataclass(frozen=True)
class InterfacePair:
    """Lower interface f, upper interface h, and bottom boundary height d < 0.

    The pair owns its geometry, derived once on first access and read by
    every operator built on it: the spectral derivatives f_x, f_xx, h_x,
    h_xx, the layer gaps gap_minus = f - d and gap_plus = h - f (positive,
    as d < f < h is checked on construction) and the curvatures
    curvature_f, curvature_h.
    """

    f: PeriodicFn
    h: PeriodicFn
    d: float

    def __post_init__(self):
        if not self.d < 0:
            raise ValueError(f"bottom height d must be negative, got {self.d}")
        report = check_admissible(self.f, self.h, self.d)
        if not report.ok:
            raise AdmissibilityError(
                f"interfaces not admissible: gap_fd={report.gap_fd:.3e}, "
                f"gap_hf={report.gap_hf:.3e}"
            )

    @property
    def grid(self) -> PeriodicGrid:
        return self.f.grid

    @cached_property
    def f_x(self) -> PeriodicFn:
        return spectral_derivative(self.f, 1)

    @cached_property
    def f_xx(self) -> PeriodicFn:
        return spectral_derivative(self.f, 2)

    @cached_property
    def h_x(self) -> PeriodicFn:
        return spectral_derivative(self.h, 1)

    @cached_property
    def h_xx(self) -> PeriodicFn:
        return spectral_derivative(self.h, 2)

    @cached_property
    def gap_minus(self) -> PeriodicFn:
        return PeriodicFn(self.grid, self.f.values - self.d)

    @cached_property
    def gap_plus(self) -> PeriodicFn:
        return PeriodicFn(self.grid, self.h.values - self.f.values)

    @cached_property
    def curvature_f(self) -> PeriodicFn:
        return _curvature(self.f_x, self.f_xx)

    @cached_property
    def curvature_h(self) -> PeriodicFn:
        return _curvature(self.h_x, self.h_xx)
