"""Periodic grids, spectral differentiation, and interface geometry.

Interfaces live on the unit circle (2*pi-periodic in x) and are sampled on
uniform grids.  All x-derivatives of interface quantities are spectral
(exact derivatives of the trigonometric interpolant), which keeps the
operator and symbol tests sharp.  Each :class:`PeriodicFn` takes its first
and second derivatives once, on first access, and keeps them; every reader
of an interface's derivatives (the strip operators, curvature and its
directional derivative, the frozen-point constants) reads that cache.
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
    "constant_fn",
    "curvature",
    "curvature_frechet",
    "from_callable",
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

    @cached_property
    def diff_matrix(self) -> np.ndarray:
        """The grid's :func:`spectral_diff_matrix`, built on first access and
        kept (read-only); it differentiates strip fields' edge traces."""
        matrix = spectral_diff_matrix(self)
        matrix.flags.writeable = False
        return matrix


def make_grid(n_x: int) -> PeriodicGrid:
    """Build the uniform periodic grid with nodes x_i = 2*pi*i/n_x."""
    return PeriodicGrid(int(n_x))


@dataclass(frozen=True)
class PeriodicFn:
    """A 2*pi-periodic scalar function sampled at the grid nodes.  Only its
    shape is checked: :func:`check_admissible` and the solve check finiteness."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_x,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid size {self.grid.n_x}"
            )
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

    @cached_property
    def derivatives(self) -> tuple[np.ndarray, np.ndarray]:
        """The spectral first and second derivatives, taken on first access."""
        return spectral_derivative(self, 1).values, spectral_derivative(self, 2).values

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
    diff = np.arange(1 - n, n)  # the entry (i, j) depends on i - j only
    with np.errstate(divide="ignore", invalid="ignore"):
        entries = 0.5 * (-1.0) ** diff / np.tan(np.pi * diff / n)
    entries[n - 1] = 0.0
    i = np.arange(n)
    return entries[i[:, None] - i + n - 1]


def curvature(zeta: PeriodicFn) -> PeriodicFn:
    """Curvature of the graph y = zeta(x):  zeta'' / (1 + zeta'^2)^(3/2)."""
    zeta_x, zeta_xx = zeta.derivatives
    return PeriodicFn(zeta.grid, zeta_xx / (1.0 + zeta_x**2) ** 1.5)


def curvature_frechet(zeta0: PeriodicFn, h: PeriodicFn) -> PeriodicFn:
    """Directional derivative of the curvature at zeta0 in direction h."""
    if zeta0.grid != h.grid:
        raise ValueError("operands live on different grids")
    z0p, z0pp = zeta0.derivatives
    hp, hpp = h.derivatives
    s = 1.0 + z0p**2
    return PeriodicFn(h.grid, hpp / s**1.5 - 3.0 * z0p * z0pp * hp / s**2.5)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    gap_fd: float
    gap_hf: float


def check_admissible(f: PeriodicFn, h: PeriodicFn, d: float) -> AdmissibilityReport:
    """Nodewise check of the ordering d < f < h, which every state passes.

    gap_fd = min(f - d), gap_hf = min(h - f); ok iff both are positive and
    every difference is finite (so are f, h and d).  Warns nothing.
    """
    if f.grid != h.grid:
        raise ValueError("f and h live on different grids")
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or beyond the float range
        gaps = (f.values - d, h.values - f.values)
    gap_fd, gap_hf = (float(np.min(gap)) for gap in gaps)
    ok = gap_fd > 0.0 and gap_hf > 0.0 and bool(np.isfinite(gaps).all())
    return AdmissibilityReport(ok=ok, gap_fd=gap_fd, gap_hf=gap_hf)


@dataclass(frozen=True)
class InterfacePair:
    """Lower interface f, upper interface h, and bottom boundary height d < 0.

    The ordering d < f < h of finite values is checked on construction, so
    the layer gaps gap_minus = f - d and gap_plus = h - f, derived once on
    first access, are positive.  Each interface's spectral derivatives are
    cached on its :class:`PeriodicFn` (``f.derivatives``), so a function
    shared between pairs is differentiated once.
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
    def gap_minus(self) -> PeriodicFn:
        return PeriodicFn(self.grid, self.f.values - self.d)

    @cached_property
    def gap_plus(self) -> PeriodicFn:
        return PeriodicFn(self.grid, self.h.values - self.f.values)
