"""Transformed operators on the two reference strips.

The moving fluid domains are pulled back to fixed strips S x (-1,0) and
S x (0,1) by the graph maps

    phi_minus(x, y) = (x, -d*y + (1+y)*f(x)),
    phi_plus(x, y)  = (x, y*h(x) + (1-y)*f(x)).

Pulling the Laplacian through these maps produces variable-coefficient
second-order operators; pulling the co-normal derivatives through produces
first-order boundary operators on the strip edges.  This module assembles
their coefficient fields, applies them with second-order finite differences
(one-sided at the strip edges, periodic in x), and provides the exact
directional derivatives of both families with respect to the interfaces.

x-derivatives of interface data are spectral and are read from the
:class:`InterfacePair`, which derives them once per state, together with the
layer gaps and the bottom height d; strip-interior derivatives are finite
differences so the coupled transmission system stays sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    InterfacePair,
    PeriodicFn,
    PeriodicGrid,
    spectral_derivative,
)

__all__ = [
    "CoefficientField",
    "FluidParams",
    "StripField",
    "StripGrid",
    "apply_operator",
    "boundary_B1",
    "boundary_B_minus",
    "boundary_B_plus",
    "coeffs_A_minus",
    "coeffs_A_plus",
    "frechet_A",
    "frechet_B",
    "map_phi_minus",
    "map_phi_plus",
    "strip_heights",
]


@dataclass(frozen=True)
class FluidParams:
    """Physical constants of the two-layer porous-medium flow.

    d is the bottom height of the :class:`InterfacePair` built from a
    config; the operators read d from the pair they are given, never from
    here.
    """

    k: float = 1.0
    mu_minus: float = 1.0
    mu_plus: float = 1.0
    rho_minus: float = 2.0
    rho_plus: float = 1.0
    g: float = 1.0
    gamma_f: float = 0.0
    gamma_h: float = 0.0
    d: float = -1.0

    def __post_init__(self):
        vals = [self.k, self.mu_minus, self.mu_plus, self.rho_minus,
                self.rho_plus, self.g, self.gamma_f, self.gamma_h, self.d]
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("all parameters must be finite")
        if self.k <= 0 or self.mu_minus <= 0 or self.mu_plus <= 0:
            raise ValueError("permeability and viscosities must be positive")
        if self.rho_minus < 0 or self.rho_plus < 0 or self.g < 0:
            raise ValueError("densities and gravity must be nonnegative")
        if self.gamma_f < 0 or self.gamma_h < 0:
            raise ValueError("surface tension coefficients must be nonnegative")
        if self.d >= 0:
            raise ValueError(f"bottom height d must be negative, got {self.d}")


@dataclass(frozen=True)
class StripGrid:
    """Tensor grid on a closed reference strip.

    side='plus' covers y in [0,1], side='minus' covers y in [-1,0]; both use
    n_y+1 uniformly spaced y-levels including the edges.
    """

    grid: PeriodicGrid
    n_y: int
    side: str

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError(f"side must be 'plus' or 'minus', got {self.side!r}")
        if self.n_y < 8:
            raise ValueError(f"n_y must be >= 8, got {self.n_y}")

    @property
    def y_nodes(self) -> np.ndarray:
        if self.side == "plus":
            return np.linspace(0.0, 1.0, self.n_y + 1)
        return np.linspace(-1.0, 0.0, self.n_y + 1)

    @property
    def dy(self) -> float:
        return 1.0 / self.n_y

    @property
    def shape(self) -> tuple[int, int]:
        return (self.grid.n_x, self.n_y + 1)


@dataclass(frozen=True)
class StripField:
    """Scalar field on a closed strip, boundary levels included."""

    strip: StripGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.strip.shape:
            raise ValueError(f"values shape {vals.shape} != strip shape {self.strip.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vals)

    def _check(self, other: "StripField"):
        if self.strip != other.strip:
            raise ValueError("fields live on different strips")

    def __add__(self, other):
        if isinstance(other, StripField):
            self._check(other)
            return StripField(self.strip, self.values + other.values)
        return StripField(self.strip, self.values + other)

    def __sub__(self, other):
        if isinstance(other, StripField):
            self._check(other)
            return StripField(self.strip, self.values - other.values)
        return StripField(self.strip, self.values - other)

    def __mul__(self, other):
        return StripField(self.strip, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return StripField(self.strip, -self.values)


@dataclass(frozen=True)
class CoefficientField:
    """Coefficients of c_xx dxx + c_xy dxy + c_yy dyy + c_x dx + c_y dy + c_0.

    c_xy is the full coefficient of the mixed derivative.  PDE operators must
    satisfy the nodewise ellipticity check; directional-derivative operators
    (c_xx = 0) are carried by the same type without it.
    """

    strip: StripGrid
    c_xx: np.ndarray = field(repr=False)
    c_xy: np.ndarray = field(repr=False)
    c_yy: np.ndarray = field(repr=False)
    c_x: np.ndarray = field(repr=False)
    c_y: np.ndarray = field(repr=False)
    c_0: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("c_xx", "c_xy", "c_yy", "c_x", "c_y", "c_0"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.strip.shape:
                raise ValueError(f"{name} shape {arr.shape} != strip shape {self.strip.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, arr)

    def assert_elliptic(self):
        if not (np.all(self.c_xx > 0) and np.all(self.c_yy > 0)):
            raise ValueError("coefficient field is not elliptic: c_xx, c_yy must be positive")
        if not np.all(4.0 * self.c_xx * self.c_yy - self.c_xy**2 > 0):
            raise ValueError("coefficient field is not elliptic: 4 c_xx c_yy <= c_xy^2")


# ---------------------------------------------------------------------------
# Reference-strip maps


def _as_points(point):
    x, y = point
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def map_phi_minus(f: PeriodicFn, d: float, point):
    """Map (x,y) in the closed lower strip to physical coordinates (x, Y)."""
    x, y = _as_points(point)
    if np.any(y < -1.0) or np.any(y > 0.0):
        raise ValueError("y must lie in [-1, 0] for the lower strip")
    return x, -d * y + (1.0 + y) * f.at(x)


def map_phi_plus(f: PeriodicFn, h: PeriodicFn, point):
    """Map (x,y) in the closed upper strip to physical coordinates (x, Y)."""
    x, y = _as_points(point)
    if np.any(y < 0.0) or np.any(y > 1.0):
        raise ValueError("y must lie in [0, 1] for the upper strip")
    return x, y * h.at(x) + (1.0 - y) * f.at(x)


def strip_heights(fh: InterfacePair, strip: StripGrid) -> np.ndarray:
    """Physical height Y at every strip node (n_x, n_y+1)."""
    y = strip.y_nodes[None, :]
    if strip.side == "minus":
        return -fh.d * y + (1.0 + y) * fh.f.values[:, None]
    return y * fh.h.values[:, None] + (1.0 - y) * fh.f.values[:, None]


# ---------------------------------------------------------------------------
# Coefficient assembly


def coeffs_A_minus(fh: InterfacePair, strip: StripGrid) -> CoefficientField:
    """Pulled-back Laplacian of fh's lower layer on the lower strip."""
    if strip.side != "minus":
        raise ValueError("coeffs_A_minus needs a minus-side strip")
    gap = fh.gap_minus.values[:, None]
    fp = fh.f_x.values[:, None]
    fpp = fh.f_xx.values[:, None]
    y = strip.y_nodes[None, :]
    one = np.ones(strip.shape)
    c_xy = -2.0 * (1.0 + y) * fp / gap
    c_yy = ((1.0 + y) ** 2 * fp**2 + 1.0) / gap**2
    c_y = -(1.0 + y) * (gap * fpp - 2.0 * fp**2) / gap**2
    out = CoefficientField(strip, one, c_xy * one, c_yy * one,
                           np.zeros(strip.shape), c_y * one, np.zeros(strip.shape))
    out.assert_elliptic()
    return out


def coeffs_A_plus(fh: InterfacePair, strip: StripGrid) -> CoefficientField:
    """Pulled-back Laplacian of fh's upper layer on the upper strip."""
    if strip.side != "plus":
        raise ValueError("coeffs_A_plus needs a plus-side strip")
    gap = fh.gap_plus.values[:, None]
    fp = fh.f_x.values[:, None]
    fpp = fh.f_xx.values[:, None]
    hp = fh.h_x.values[:, None]
    hpp = fh.h_xx.values[:, None]
    y = strip.y_nodes[None, :]
    q = y * hp + (1.0 - y) * fp
    qpp = y * hpp + (1.0 - y) * fpp
    one = np.ones(strip.shape)
    c_xy = -2.0 * q / gap
    c_yy = (q**2 + 1.0) / gap**2
    c_y = -(qpp / gap - 2.0 * (hp - fp) * q / gap**2)
    out = CoefficientField(strip, one, c_xy * one, c_yy * one,
                           np.zeros(strip.shape), c_y * one, np.zeros(strip.shape))
    out.assert_elliptic()
    return out


# ---------------------------------------------------------------------------
# Finite-difference application


def _dx(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * dx)


def _dxx(u: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / dx**2


def _dy(u: np.ndarray, dy: float) -> np.ndarray:
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - u[:, :-2]) / (2.0 * dy)
    out[:, 0] = (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * dy)
    out[:, -1] = (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * dy)
    return out


def _dyy(u: np.ndarray, dy: float) -> np.ndarray:
    out = np.empty_like(u)
    out[:, 1:-1] = (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / dy**2
    out[:, 0] = (2.0 * u[:, 0] - 5.0 * u[:, 1] + 4.0 * u[:, 2] - u[:, 3]) / dy**2
    out[:, -1] = (2.0 * u[:, -1] - 5.0 * u[:, -2] + 4.0 * u[:, -3] - u[:, -4]) / dy**2
    return out


def apply_operator(coeffs: CoefficientField, fld: StripField) -> StripField:
    """Apply the second-order operator to a strip field.

    Centered second-order stencils in the interior, one-sided second-order
    stencils at the y-edges, periodic wrap in x.  The mixed derivative is the
    x-central difference of the y-derivative.
    """
    if coeffs.strip != fld.strip:
        raise ValueError("coefficients and field live on different strips")
    dx = fld.strip.grid.dx
    dy = fld.strip.dy
    u = fld.values
    uy = _dy(u, dy)
    out = (coeffs.c_xx * _dxx(u, dx) + coeffs.c_xy * _dx(uy, dx)
           + coeffs.c_yy * _dyy(u, dy) + coeffs.c_x * _dx(u, dx)
           + coeffs.c_y * uy + coeffs.c_0 * u)
    return StripField(fld.strip, out)


# ---------------------------------------------------------------------------
# Edge traces


def trace_values(fld: StripField, edge: str) -> np.ndarray:
    """Field values on a strip edge ('bottom' or 'top')."""
    if edge == "bottom":
        return fld.values[:, 0].copy()
    if edge == "top":
        return fld.values[:, -1].copy()
    raise ValueError(f"edge must be 'bottom' or 'top', got {edge!r}")


def trace_dy(fld: StripField, edge: str) -> np.ndarray:
    """One-sided second-order y-derivative on a strip edge."""
    u = fld.values
    dy = fld.strip.dy
    if edge == "bottom":
        return (-3.0 * u[:, 0] + 4.0 * u[:, 1] - u[:, 2]) / (2.0 * dy)
    if edge == "top":
        return (3.0 * u[:, -1] - 4.0 * u[:, -2] + u[:, -3]) / (2.0 * dy)
    raise ValueError(f"edge must be 'bottom' or 'top', got {edge!r}")


def trace_dx(fld: StripField, edge: str) -> np.ndarray:
    """Spectral x-derivative of the edge trace."""
    tr = PeriodicFn(fld.strip.grid, trace_values(fld, edge))
    return spectral_derivative(tr, 1).values


# ---------------------------------------------------------------------------
# Boundary operators


def _co_normal(coef: float, slope: PeriodicFn, gap: PeriodicFn, fld: StripField,
               edge: str) -> PeriodicFn:
    s = slope.values
    out = coef * ((1.0 + s**2) / gap.values * trace_dy(fld, edge) - s * trace_dx(fld, edge))
    return PeriodicFn(slope.grid, out)


def boundary_B_minus(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B(f) of the lower fluid on Gamma_0."""
    if fld.strip.side != "minus":
        raise ValueError("boundary_B_minus needs a minus-strip field")
    return _co_normal(params.k / params.mu_minus, fh.f_x, fh.gap_minus, fld, "top")


def boundary_B_plus(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B(f,h) of the upper fluid on Gamma_0."""
    if fld.strip.side != "plus":
        raise ValueError("boundary_B_plus needs a plus-strip field")
    return _co_normal(params.k / params.mu_plus, fh.f_x, fh.gap_plus, fld, "bottom")


def boundary_B1(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B1 of the upper fluid on Gamma_1."""
    if fld.strip.side != "plus":
        raise ValueError("boundary_B1 needs a plus-strip field")
    return _co_normal(params.k / params.mu_plus, fh.h_x, fh.gap_plus, fld, "top")


def b_coeffs_minus(fh: InterfacePair, params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """(beta_1, beta_2) of B(f) as a first-order Gamma_0 operator."""
    fp = fh.f_x.values
    coef = params.k / params.mu_minus
    return -coef * fp, coef * (1.0 + fp**2) / fh.gap_minus.values


def b_coeffs_plus(fh: InterfacePair, params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """(beta_1, beta_2) of B(f,h) as a first-order Gamma_0 operator."""
    fp = fh.f_x.values
    coef = params.k / params.mu_plus
    return -coef * fp, coef * (1.0 + fp**2) / fh.gap_plus.values


# ---------------------------------------------------------------------------
# Directional derivatives

_FRECHET_A_WHICH = ("minus_f", "plus_f", "plus_h")
_FRECHET_B_WHICH = ("B_minus_f", "B_plus_f", "B_plus_h", "B1_f", "B1_h")


def frechet_A(which: str, base: InterfacePair, direction: PeriodicFn,
              params: FluidParams, strip: StripGrid) -> CoefficientField:
    """Directional derivative of a pulled-back Laplacian.

    which selects the operator/direction pair: 'minus_f' differentiates the
    lower-strip operator in f; 'plus_f' and 'plus_h' differentiate the
    upper-strip operator in f and h.  The result has c_xx = 0 and is linear
    in the direction.
    """
    if which not in _FRECHET_A_WHICH:
        raise ValueError(f"which must be one of {_FRECHET_A_WHICH}, got {which!r}")
    if base.grid != direction.grid:
        raise ValueError("base and direction live on different grids")
    if which == "minus_f" and strip.side != "minus":
        raise ValueError("minus_f needs a minus-side strip")
    if which != "minus_f" and strip.side != "plus":
        raise ValueError(f"{which} needs a plus-side strip")

    fp = base.f_x.values[:, None]
    fpp = base.f_xx.values[:, None]
    up = spectral_derivative(direction, 1).values[:, None]
    upp = spectral_derivative(direction, 2).values[:, None]
    u = direction.values[:, None]
    y = strip.y_nodes[None, :]
    zero = np.zeros(strip.shape)
    one = np.ones(strip.shape)

    if which == "minus_f":
        gap = base.gap_minus.values[:, None]
        c_xy = 2.0 * ((1.0 + y) * fp * u / gap**2 - (1.0 + y) * up / gap)
        c_yy = 2.0 * ((1.0 + y) ** 2 * fp * up / gap**2
                      - ((1.0 + y) ** 2 * fp**2 + 1.0) * u / gap**3)
        c_y = -(1.0 + y) * (upp / gap - fpp * u / gap**2
                            - 4.0 * fp * up / gap**2 + 4.0 * fp**2 * u / gap**3)
        return CoefficientField(strip, zero, c_xy * one, c_yy * one, zero, c_y * one, zero)

    gap = base.gap_plus.values[:, None]
    hp = base.h_x.values[:, None]
    hpp = base.h_xx.values[:, None]
    q = y * hp + (1.0 - y) * fp
    qpp = y * hpp + (1.0 - y) * fpp

    if which == "plus_f":
        c_xy = -2.0 * ((1.0 - y) * up / gap + q * u / gap**2)
        c_yy = 2.0 * ((q**2 + 1.0) * u / gap**3 + (1.0 - y) * q * up / gap**2)
        c_y = (-(1.0 - y) * upp / gap - qpp * u / gap**2
               - 2.0 * ((2.0 * y - 1.0) * hp + 2.0 * (1.0 - y) * fp) * up / gap**2
               + 4.0 * (hp - fp) * q * u / gap**3)
    else:  # plus_h
        c_xy = 2.0 * (q * u / gap**2 - y * up / gap)
        c_yy = 2.0 * (y * q * up / gap**2 - (q**2 + 1.0) * u / gap**3)
        c_y = (-y * upp / gap + qpp * u / gap**2
               + 2.0 * (2.0 * y * hp + (1.0 - 2.0 * y) * fp) * up / gap**2
               - 4.0 * (hp - fp) * q * u / gap**3)
    return CoefficientField(strip, zero, c_xy * one, c_yy * one, zero, c_y * one, zero)


def frechet_B(which: str, base: InterfacePair, direction: PeriodicFn,
              params: FluidParams, fld: StripField) -> PeriodicFn:
    """Directional derivative of a boundary operator, applied to a field.

    which names the operator and the interface it is differentiated in:
    'B_minus_f' (B(f) of the lower fluid), 'B_plus_f' and 'B_plus_h' (B(f,h)
    of the upper fluid on Gamma_0), 'B1_f' and 'B1_h' (B1 on Gamma_1).
    """
    if which not in _FRECHET_B_WHICH:
        raise ValueError(f"which must be one of {_FRECHET_B_WHICH}, got {which!r}")
    if base.grid != direction.grid:
        raise ValueError("base and direction live on different grids")

    fp = base.f_x.values
    up = spectral_derivative(direction, 1).values
    u = direction.values

    if which == "B_minus_f":
        if fld.strip.side != "minus":
            raise ValueError("B_minus_f needs a minus-strip field")
        gap = base.gap_minus.values
        coef = params.k / params.mu_minus
        out = coef * ((2.0 * fp * up / gap - (1.0 + fp**2) * u / gap**2)
                      * trace_dy(fld, "top") - up * trace_dx(fld, "top"))
        return PeriodicFn(base.grid, out)

    if fld.strip.side != "plus":
        raise ValueError(f"{which} needs a plus-strip field")
    gap = base.gap_plus.values
    coef = params.k / params.mu_plus

    if which == "B_plus_f":
        out = coef * ((2.0 * fp * up / gap + (1.0 + fp**2) * u / gap**2)
                      * trace_dy(fld, "bottom") - up * trace_dx(fld, "bottom"))
    elif which == "B_plus_h":
        out = -coef * (1.0 + fp**2) * u / gap**2 * trace_dy(fld, "bottom")
    elif which == "B1_f":
        out = coef * (1.0 + base.h_x.values**2) * u / gap**2 * trace_dy(fld, "top")
    else:  # B1_h
        hp = base.h_x.values
        out = coef * ((2.0 * hp * up / gap - (1.0 + hp**2) * u / gap**2)
                      * trace_dy(fld, "top") - up * trace_dx(fld, "top"))
    return PeriodicFn(base.grid, out)
