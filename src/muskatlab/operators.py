"""Transformed operators on the two reference strips.

The moving fluid domains are pulled back to fixed strips S x (-1,0) and
S x (0,1) by the graph maps

    phi_minus(x, y) = (x, -d*y + (1+y)*f(x)),
    phi_plus(x, y)  = (x, y*h(x) + (1-y)*f(x)).

Both are affine in (f, h, d), so the pulled-back Laplacian and co-normal
derivatives see the interfaces only through the layer geometry q = Y_x,
q_xx = Y_xx, gap = Y_y and gap_x = Y_xy of the height Y: the Laplacian is

    dxx - 2q/gap dxy + (1 + q^2)/gap^2 dyy + (2 gap_x q - gap q_xx)/gap^2 dy

on each strip, a co-normal derivative k/mu ((1 + q^2)/gap dy - q dx) on an
edge.  The geometry of a direction (delta_f, delta_h) is the same map at
d = 0, so the exact derivative of every operator along it is the chain rule
of its formula.  Interface x-derivatives are spectral, taken once per
function (the base state's by the :class:`InterfacePair`, a direction's by
its :class:`PeriodicFn`); strip derivatives are second-order differences
from one table of stencils (centred and periodic in x, one-sided at the
y-edges), applied to fields and written as the entries of the sparse
transmission matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .geometry import (
    InterfacePair,
    PeriodicFn,
    PeriodicGrid,
    spectral_derivative,
    spectral_diff_matrix,
)

__all__ = [
    "BoundaryOperator",
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
    "frechet_A_along",
    "frechet_B",
    "frechet_B_along",
    "map_phi_minus",
    "map_phi_plus",
    "operator_entries",
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

    def __neg__(self):
        return StripField(self.strip, -self.values)


@dataclass(frozen=True)
class CoefficientField:
    """Coefficients of c_xx dxx + c_xy dxy + c_yy dyy + c_y dy.

    c_xy is the full coefficient of the mixed derivative.  PDE operators must
    satisfy the nodewise ellipticity check; directional-derivative operators
    (c_xx = 0) are carried by the same type without it.
    """

    strip: StripGrid
    c_xx: np.ndarray = field(repr=False)
    c_xy: np.ndarray = field(repr=False)
    c_yy: np.ndarray = field(repr=False)
    c_y: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("c_xx", "c_xy", "c_yy", "c_y"):
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


def map_phi_minus(f: PeriodicFn, d: float, point):
    """Map (x,y) in the closed lower strip to physical coordinates (x, Y)."""
    x, y = (np.asarray(v, dtype=float) for v in point)
    if np.any(y < -1.0) or np.any(y > 0.0):
        raise ValueError("y must lie in [-1, 0] for the lower strip")
    return x, -d * y + (1.0 + y) * f.at(x)


def map_phi_plus(f: PeriodicFn, h: PeriodicFn, point):
    """Map (x,y) in the closed upper strip to physical coordinates (x, Y)."""
    x, y = (np.asarray(v, dtype=float) for v in point)
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
# Layer geometry and coefficient assembly


def _jet(u: PeriodicFn | None, grid: PeriodicGrid):
    """(u, u_x, u_xx) of a direction as arrays; zeros for None or a zero direction."""
    if u is not None and u.grid != grid:
        raise ValueError("base and direction live on different grids")
    if u is None or not u.values.any():
        return 0.0, 0.0, 0.0
    return (u.values, *u.derivatives)


def _geometry(fh: InterfacePair, side: str, y, delta=None):
    """(q, q_xx, gap, gap_x) of fh's strip map on side, or with delta =
    (delta_f, delta_h) their derivative along delta: arrays over x at an edge
    level y, over the strip at its y-nodes (gap and gap_x as columns)."""
    if delta is None:
        f = fh.f.values, fh.f_x.values, fh.f_xx.values
        h = fh.h.values, fh.h_x.values, fh.h_xx.values
        d = fh.d
    else:
        (f, h), d = (_jet(u, fh.grid) for u in delta), 0.0
    if np.ndim(y):
        y = y[None, :]
        f, h = ([np.asarray(a)[..., None] for a in jet] for jet in (f, h))
    if side == "minus":
        return (1.0 + y) * f[1], (1.0 + y) * f[2], f[0] - d, f[1]
    return (y * h[1] + (1.0 - y) * f[1], y * h[2] + (1.0 - y) * f[2],
            h[0] - f[0], h[1] - f[1])


def _laplacian(fh: InterfacePair, strip: StripGrid, delta=None) -> CoefficientField:
    """The pulled-back Laplacian on strip, or its derivative along delta."""
    q, q_xx, gap, gap_x = _geometry(fh, strip.side, strip.y_nodes)
    if delta is None:
        c = (1.0, -2.0 * q / gap, (1.0 + q**2) / gap**2,
             (2.0 * gap_x * q - gap * q_xx) / gap**2)
    else:
        dq, dq_xx, dgap, dgap_x = _geometry(fh, strip.side, strip.y_nodes, delta)
        c = (0.0, 2.0 * (q * dgap / gap - dq) / gap,
             2.0 * (q * dq - (1.0 + q**2) * dgap / gap) / gap**2,
             (2.0 * (gap_x * dq + dgap_x * q) - gap * dq_xx - dgap * q_xx) / gap**2
             - 2.0 * (2.0 * gap_x * q - gap * q_xx) * dgap / gap**3)
    return CoefficientField(strip, *(np.broadcast_to(v, strip.shape) for v in c))


def _coeffs_A(fh: InterfacePair, strip: StripGrid, side: str) -> CoefficientField:
    if strip.side != side:
        raise ValueError(f"coeffs_A_{side} needs a {side}-side strip")
    out = _laplacian(fh, strip)
    out.assert_elliptic()
    return out


def coeffs_A_minus(fh: InterfacePair, strip: StripGrid) -> CoefficientField:
    """Pulled-back Laplacian of fh's lower layer on the lower strip."""
    return _coeffs_A(fh, strip, "minus")


def coeffs_A_plus(fh: InterfacePair, strip: StripGrid) -> CoefficientField:
    """Pulled-back Laplacian of fh's upper layer on the upper strip."""
    return _coeffs_A(fh, strip, "plus")


# ---------------------------------------------------------------------------
# Difference stencils
#
# Second-order stencils as (offset, weight) pairs by derivative order, the
# weights over _SCALE[order] * h**order.  The centred rows serve x (wrapped
# periodically) and the interior y-levels; an edge y-level takes the
# one-sided row, written for the bottom edge and mirrored at the top
# (offsets negated, odd orders change sign).

_CENTRED = {0: ((0, 1.0),), 1: ((1, 1.0), (-1, -1.0)), 2: ((1, 1.0), (0, -2.0), (-1, 1.0))}
_ONE_SIDED = {1: ((0, -3.0), (1, 4.0), (2, -1.0)), 2: ((0, 2.0), (1, -5.0), (2, 4.0), (3, -1.0))}
_SCALE = {0: 1.0, 1: 2.0, 2: 1.0}
# (order, edge) -> (level of the edge, 0 or -1, and its one-sided stencil)
_EDGE_ROWS = {(k, edge): (level, tuple((sign * o, sign**k * w) for o, w in row))
              for k, row in _ONE_SIDED.items()
              for edge, level, sign in (("bottom", 0, 1), ("top", -1, -1))}

# The terms of the interior operator: coefficient, x- and y-derivative order.
# The mixed derivative is the x-difference of the y-difference.
_TERMS = (("c_xx", 2, 0), ("c_xy", 1, 1), ("c_yy", 0, 2), ("c_y", 0, 1))


def _edge_row(order: int, edge: str):
    if edge not in ("bottom", "top"):
        raise ValueError(f"edge must be 'bottom' or 'top', got {edge!r}")
    return _EDGE_ROWS[order, edge]


def _difference(take, stencil, order: int, h: float) -> np.ndarray:
    """The stencil applied to take(offset), the values at that offset."""
    terms = (take(o) if w == 1.0 else w * take(o) for o, w in stencil)
    return reduce(np.add, terms) / (_SCALE[order] * h**order)


def _x_difference(u: np.ndarray, order: int, dx: float) -> np.ndarray:
    if order == 0:
        return u
    nx = u.shape[0]
    wrapped = np.concatenate((u[-1:], u, u[:1]))  # the centred offsets reach one row out
    return _difference(lambda o: wrapped[1 + o:1 + o + nx], _CENTRED[order], order, dx)


def _edge_difference(u: np.ndarray, order: int, edge: str, dy: float) -> np.ndarray:
    level, row = _edge_row(order, edge)
    return _difference(lambda o: u[:, level + o], row, order, dy)


def _y_difference(u: np.ndarray, order: int, dy: float) -> np.ndarray:
    n = u.shape[1]
    out = np.empty_like(u)
    out[:, 1:-1] = _difference(lambda o: u[:, 1 + o:n - 1 + o], _CENTRED[order], order, dy)
    out[:, 0] = _edge_difference(u, order, "bottom", dy)
    out[:, -1] = _edge_difference(u, order, "top", dy)
    return out


def apply_operator(coeffs: CoefficientField, fld: StripField) -> StripField:
    """Apply the second-order operator to a strip field.

    Centered second-order stencils in the interior, one-sided second-order
    stencils at the y-edges, periodic wrap in x.  The mixed derivative is the
    x-central difference of the y-derivative.
    """
    if coeffs.strip != fld.strip:
        raise ValueError("coefficients and field live on different strips")
    u_y = [fld.values] + [_y_difference(fld.values, order, fld.strip.dy) for order in (1, 2)]
    out = reduce(np.add, (getattr(coeffs, name) * _x_difference(u_y[ky], kx, fld.strip.grid.dx)
                          for name, kx, ky in _TERMS))
    return StripField(fld.strip, out)


def operator_entries(coeffs: CoefficientField, first: int = 0) -> list[tuple]:
    """:func:`apply_operator` on the interior y-levels as COO entries: one
    (rows, columns, values) block per stencil offset, the strip's nodes
    numbered from first like ``values.ravel()``."""
    strip = coeffs.strip
    nx, n = strip.shape
    blocks = {}
    for name, kx, ky in _TERMS:
        c = getattr(coeffs, name)[:, 1:-1] / (_SCALE[kx] * strip.grid.dx**kx
                                             * _SCALE[ky] * strip.dy**ky)
        for ox, wx in _CENTRED[kx]:
            for oy, wy in _CENTRED[ky]:
                blocks[ox, oy] = blocks.get((ox, oy), 0.0) + wx * wy * c
    i, j = np.arange(nx)[:, None], np.arange(1, n - 1)
    node = first + i * n + j
    return [(node, first + (i + ox) % nx * n + oy + j, v) for (ox, oy), v in blocks.items()]


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
    return _edge_difference(fld.values, 1, edge, fld.strip.dy)


def trace_dx(fld: StripField, edge: str) -> np.ndarray:
    """Spectral x-derivative of the edge trace."""
    tr = PeriodicFn(fld.strip.grid, trace_values(fld, edge))
    return spectral_derivative(tr, 1).values


# ---------------------------------------------------------------------------
# Boundary operators


@dataclass(frozen=True)
class BoundaryOperator:
    """First-order edge operator beta1 * dx + beta2 * dy on a strip edge.

    dx is the spectral x-derivative of the edge trace, dy the one-sided
    second-order y-row; :meth:`apply` applies them and :meth:`entries` writes
    the same operator as matrix entries.
    """

    strip: StripGrid
    edge: str
    beta1: np.ndarray = field(repr=False)
    beta2: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.edge not in ("bottom", "top"):
            raise ValueError(f"edge must be 'bottom' or 'top', got {self.edge!r}")
        n = self.strip.grid.n_x
        for name in ("beta1", "beta2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
            object.__setattr__(self, name, arr)

    def __neg__(self):
        return BoundaryOperator(self.strip, self.edge, -self.beta1, -self.beta2)

    def apply(self, fld: StripField) -> np.ndarray:
        """The operator applied to a strip field, one value per x-node."""
        return self.beta1 * trace_dx(fld, self.edge) + self.beta2 * trace_dy(fld, self.edge)

    def entries(self, rows: np.ndarray, first: int = 0) -> list[tuple]:
        """:meth:`apply` as COO entries: (rows, columns, values) blocks with
        rows[i] the row of the edge's x-node i and the strip's nodes
        numbered from first like ``values.ravel()``."""
        nx, n = self.strip.shape
        level, row = _edge_row(1, self.edge)
        edge_nodes = first + np.arange(nx) * n + level % n
        dx = self.beta1[:, None] * spectral_diff_matrix(self.strip.grid)
        return [(np.repeat(rows, nx), np.tile(edge_nodes, nx), dx.ravel())] + [
            (rows, edge_nodes + o, w * self.beta2 / (_SCALE[1] * self.strip.dy)) for o, w in row]


# Co-normal operators beta_1 dx + beta_2 dy: name -> (strip side, edge,
# strip level of the edge, viscosity).
_CO_NORMAL = {"B_minus": ("minus", "top", 0.0, "mu_minus"),
              "B_plus": ("plus", "bottom", 0.0, "mu_plus"),
              "B1": ("plus", "top", 1.0, "mu_plus")}


def _co_normal_coeffs(name: str, fh: InterfacePair, params: FluidParams, delta=None):
    """(beta_1, beta_2) of the operator name, or with delta = (delta_f,
    delta_h) their derivative along delta."""
    side, _, level, mu = _CO_NORMAL[name]
    coef = params.k / getattr(params, mu)
    q, _, gap, _ = _geometry(fh, side, level)
    if delta is None:
        return -coef * q, coef * (1.0 + q**2) / gap
    dq, _, dgap, _ = _geometry(fh, side, level, delta)
    return (np.broadcast_to(-coef * dq, q.shape),
            coef * (2.0 * q * dq - (1.0 + q**2) * dgap / gap) / gap)


def _co_normal(name: str, fh: InterfacePair, params: FluidParams, fld: StripField,
               delta=None) -> PeriodicFn:
    side, edge, _, _ = _CO_NORMAL[name]
    if fld.strip.side != side:
        raise ValueError(f"{name} needs a {side}-strip field")
    operator = BoundaryOperator(fld.strip, edge, *_co_normal_coeffs(name, fh, params, delta))
    return PeriodicFn(fh.grid, operator.apply(fld))


def boundary_B_minus(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B(f) of the lower fluid on Gamma_0."""
    return _co_normal("B_minus", fh, params, fld)


def boundary_B_plus(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B(f,h) of the upper fluid on Gamma_0."""
    return _co_normal("B_plus", fh, params, fld)


def boundary_B1(fh: InterfacePair, params: FluidParams, fld: StripField) -> PeriodicFn:
    """Co-normal trace operator B1 of the upper fluid on Gamma_1."""
    return _co_normal("B1", fh, params, fld)


def b_coeffs_minus(fh: InterfacePair, params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """(beta_1, beta_2) of B(f) as a first-order Gamma_0 operator."""
    return _co_normal_coeffs("B_minus", fh, params)


def b_coeffs_plus(fh: InterfacePair, params: FluidParams) -> tuple[np.ndarray, np.ndarray]:
    """(beta_1, beta_2) of B(f,h) as a first-order Gamma_0 operator."""
    return _co_normal_coeffs("B_plus", fh, params)


# ---------------------------------------------------------------------------
# Directional derivatives: the chain rule through the layer geometry
#
# A named derivative moves one interface: which -> (strip side or co-normal
# operator, moved interface).

_FRECHET_A = {"minus_f": ("minus", "f"), "plus_f": ("plus", "f"), "plus_h": ("plus", "h")}
_FRECHET_B = {"B_minus_f": ("B_minus", "f"), "B_plus_f": ("B_plus", "f"),
              "B_plus_h": ("B_plus", "h"), "B1_f": ("B1", "f"), "B1_h": ("B1", "h")}


def frechet_A_along(base: InterfacePair, delta_f: PeriodicFn | None,
                    delta_h: PeriodicFn | None, strip: StripGrid) -> CoefficientField:
    """Derivative of the pulled-back Laplacian on strip as base's interfaces
    move along (delta_f, delta_h); None leaves that interface in place."""
    return _laplacian(base, strip, (delta_f, delta_h))


def frechet_B_along(name: str, base: InterfacePair, delta_f: PeriodicFn | None,
                    delta_h: PeriodicFn | None, params: FluidParams,
                    fld: StripField) -> PeriodicFn:
    """Derivative of the co-normal operator name ('B_minus', 'B_plus' or
    'B1') as base's interfaces move along (delta_f, delta_h), applied to fld;
    None leaves that interface in place."""
    if name not in _CO_NORMAL:
        raise ValueError(f"name must be one of {tuple(_CO_NORMAL)}, got {name!r}")
    return _co_normal(name, base, params, fld, (delta_f, delta_h))


def _named(table: dict, which: str, direction: PeriodicFn):
    """(target, delta_f, delta_h) of the named derivative which."""
    if which not in table:
        raise ValueError(f"which must be one of {tuple(table)}, got {which!r}")
    target, moved = table[which]
    return (target, direction, None) if moved == "f" else (target, None, direction)


def frechet_A(which: str, base: InterfacePair, direction: PeriodicFn,
              params: FluidParams, strip: StripGrid) -> CoefficientField:
    """Directional derivative of a pulled-back Laplacian.

    which selects the operator/direction pair: 'minus_f' differentiates the
    lower-strip operator in f; 'plus_f' and 'plus_h' differentiate the
    upper-strip operator in f and h.
    """
    side, delta_f, delta_h = _named(_FRECHET_A, which, direction)
    if strip.side != side:
        raise ValueError(f"{which} needs a {side}-side strip")
    return frechet_A_along(base, delta_f, delta_h, strip)


def frechet_B(which: str, base: InterfacePair, direction: PeriodicFn,
              params: FluidParams, fld: StripField) -> PeriodicFn:
    """Directional derivative of a boundary operator, applied to a field.

    which names the operator and the interface it is differentiated in:
    'B_minus_f' (B(f) of the lower fluid), 'B_plus_f' and 'B_plus_h' (B(f,h)
    of the upper fluid on Gamma_0), 'B1_f' and 'B1_h' (B1 on Gamma_1).
    """
    name, delta_f, delta_h = _named(_FRECHET_B, which, direction)
    return frechet_B_along(name, base, delta_f, delta_h, params, fld)
