"""Discrete elliptic transmission problems on the coupled reference strips.

The general problem couples one second-order operator per strip through two
interface conditions on the shared edge y = 0 (a value jump and a flux
balance) and Dirichlet data on the outer edges y = 1 and y = -1.  Both
strips' nodes, including all edge layers, are unknowns; the interface
conditions close the square system, which is factorized sparsely and solved
with one step of iterative refinement.  The factor is a sparse LU of the
row-equilibrated matrix, ordered by minimum degree on A^T + A and pivoted by
threshold, which keeps the pivots on the diagonal where they are large enough
and so roughly halves the fill of SuperLU's default COLAMD ordering with
partial pivoting; the guards (condition estimate, backward error) still
measure the unscaled matrix.  The matrix depends only on the geometry, so one
:class:`TransmissionOperator` factor serves every problem on it, the
linearized problems around a solved state included.

Interior rows discretize the operators with the same second-order stencils
as :func:`muskatlab.operators.apply_operator`; the flux rows use one-sided
second-order y-stencils and the spectral x-derivative of the traces.  The
traces of the solution are computed with the identical stencils, so
the imposed interface conditions are recoverable to solver precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import InterfacePair, PeriodicFn, spectral_diff_matrix
from .operators import (
    CoefficientField,
    FluidParams,
    StripField,
    StripGrid,
    b_coeffs_minus,
    b_coeffs_plus,
    coeffs_A_minus,
    coeffs_A_plus,
    apply_operator,
    frechet_A_along,
    frechet_B_along,
    trace_dx,
    trace_dy,
    trace_values,
)

__all__ = [
    "BoundaryOperator",
    "ComplementingReport",
    "DiffractionData",
    "DiffractionSolution",
    "SolverFailure",
    "TransmissionOperator",
    "check_complementing",
    "pulled_back_operator",
    "solve_general",
    "solve_linearized",
    "solve_potentials",
    "solve_potentials_st",
]

CONDITION_LIMIT = 1e12
BACKWARD_ERROR_LIMIT = 1e-12


class SolverFailure(RuntimeError):
    """The assembled transmission system could not be solved reliably."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True)
class BoundaryOperator:
    """First-order edge operator beta1 * dx + beta2 * dy on a strip edge."""

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

    def apply(self, fld: StripField) -> np.ndarray:
        """Apply the operator to a strip field with the assembly stencils."""
        dx_tr = spectral_diff_matrix(self.strip.grid) @ trace_values(fld, self.edge)
        return self.beta1 * dx_tr + self.beta2 * trace_dy(fld, self.edge)


@dataclass(frozen=True, eq=False)
class TransmissionOperator:
    """Interior operators of both strips and the two flux operators on Gamma_0.

    They depend only on the interface geometry, never on the data, so every
    problem posed on them is solved with one :attr:`factorization`.
    """

    plus_coeffs: CoefficientField
    minus_coeffs: CoefficientField
    plus_bc: BoundaryOperator
    minus_bc: BoundaryOperator

    def __post_init__(self):
        sp_, sm = self.strips
        if sp_.side != "plus" or sm.side != "minus":
            raise ValueError("coefficient fields must live on a plus and a minus strip")
        if sp_.grid != sm.grid:
            raise ValueError("strips must share the periodic grid")
        if self.plus_bc.strip != sp_ or self.plus_bc.edge != "bottom":
            raise ValueError("plus boundary operator must act on the plus strip bottom edge")
        if self.minus_bc.strip != sm or self.minus_bc.edge != "top":
            raise ValueError("minus boundary operator must act on the minus strip top edge")
        self.plus_coeffs.assert_elliptic()
        self.minus_coeffs.assert_elliptic()
        if not (np.all(self.plus_bc.beta2 > 0) and np.all(self.minus_bc.beta2 > 0)):
            raise ValueError("beta_2 coefficients on Gamma_0 must be strictly positive")

    @property
    def strips(self) -> tuple[StripGrid, StripGrid]:
        return self.plus_coeffs.strip, self.minus_coeffs.strip

    @cached_property
    def factorization(self) -> tuple:
        """(matrix, row scale D, sparse LU of D @ matrix, max-norm of the matrix,
        1-norm condition estimate of the matrix).

        D = diag(1 / max_j |a_ij|) equilibrates the rows; the LU of D A is
        ordered by minimum degree on (DA)^T + DA and pivots by threshold
        (diagonal pivot kept when at least 0.1 of its column's largest entry).
        Raises :class:`SolverFailure` when the factorization breaks down or
        the condition estimate exceeds 1e12; a failure is not cached.
        """
        matrix = _assemble(self)
        magnitude = abs(matrix)
        scale = sp.diags(1.0 / magnitude.max(axis=1).toarray().ravel())
        try:
            lu = spla.splu((scale @ matrix).tocsc(), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.1)
        except RuntimeError as exc:
            raise SolverFailure(f"sparse factorization failed: {exc}") from exc
        # ||A||_1 exactly, ||A^-1||_1 = ||(DA)^-1 D||_1 estimated from solves with the factor
        n = matrix.shape[0]
        inverse = spla.LinearOperator((n, n), matvec=lambda x: lu.solve(scale @ x),
                                      rmatvec=lambda x: scale @ lu.solve(x, trans="T"))
        cond = float(magnitude.sum(axis=0).max()) * float(spla.onenormest(inverse))
        if cond > CONDITION_LIMIT:
            raise SolverFailure(
                f"system too ill-conditioned (estimate {cond:.3e} > {CONDITION_LIMIT:.1e}); "
                "geometry is close to losing admissibility",
                condition_estimate=cond,
            )
        return matrix, scale, lu, float(magnitude.sum(axis=1).max()), cond


@dataclass(frozen=True)
class DiffractionData:
    """A transmission operator with the right-hand sides of one problem on it."""

    operator: TransmissionOperator
    F_plus: StripField
    F_minus: StripField
    phi1: PeriodicFn
    phi2: PeriodicFn
    phi3: PeriodicFn
    phi4: PeriodicFn

    def __post_init__(self):
        sp_, sm = self.operator.strips
        if self.F_plus.strip != sp_ or self.F_minus.strip != sm:
            raise ValueError("interior data must match the operator's strips")
        for name in ("phi1", "phi2", "phi3", "phi4"):
            if getattr(self, name).grid != sp_.grid:
                raise ValueError(f"{name} must live on the shared periodic grid")


def _trace(kind, side: str, edge: str) -> property:
    return property(
        lambda self: PeriodicFn(self.v_plus.strip.grid, kind(getattr(self, side), edge)),
        doc=f"{kind.__name__} of {side} on its {edge} edge (assembly stencils)")


@dataclass(frozen=True)
class DiffractionSolution:
    """Solved strip fields with the operator they were solved on; their edge
    traces are computed on access."""

    v_plus: StripField
    v_minus: StripField
    operator: TransmissionOperator = field(repr=False)

    tr0_vplus = _trace(trace_values, "v_plus", "bottom")
    tr0_vminus = _trace(trace_values, "v_minus", "top")
    tr0_dx_vplus = _trace(trace_dx, "v_plus", "bottom")
    tr0_dx_vminus = _trace(trace_dx, "v_minus", "top")
    tr0_dy_vplus = _trace(trace_dy, "v_plus", "bottom")
    tr0_dy_vminus = _trace(trace_dy, "v_minus", "top")
    tr1_vplus = _trace(trace_values, "v_plus", "top")
    tr1_dx_vplus = _trace(trace_dx, "v_plus", "top")
    tr1_dy_vplus = _trace(trace_dy, "v_plus", "top")


# ---------------------------------------------------------------------------
# Assembly


def _pde_entries(coeffs: CoefficientField, offset: int):
    """COO entries of the interior PDE rows of one strip."""
    strip = coeffs.strip
    nx, ny = strip.grid.n_x, strip.n_y
    dx, dy = strip.grid.dx, strip.dy
    stride = ny + 1

    ii, jj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    ip, im = (ii + 1) % nx, (ii - 1) % nx

    def idx(i, j):
        return offset + i * stride + j

    node = idx(ii, jj)
    cxx = coeffs.c_xx[ii, jj]
    cxy = coeffs.c_xy[ii, jj]
    cyy = coeffs.c_yy[ii, jj]
    cy = coeffs.c_y[ii, jj]

    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    add(node, idx(ip, jj), cxx / dx**2)
    add(node, idx(im, jj), cxx / dx**2)
    add(node, idx(ii, jj + 1), cyy / dy**2 + cy / (2 * dy))
    add(node, idx(ii, jj - 1), cyy / dy**2 - cy / (2 * dy))
    add(node, node, -2.0 * cxx / dx**2 - 2.0 * cyy / dy**2)
    cross = cxy / (4.0 * dx * dy)
    add(node, idx(ip, jj + 1), cross)
    add(node, idx(ip, jj - 1), -cross)
    add(node, idx(im, jj + 1), -cross)
    add(node, idx(im, jj - 1), cross)
    return rows, cols, vals


def _assemble(op: TransmissionOperator) -> sp.csc_matrix:
    strip_p, strip_m = op.strips
    nx = strip_p.grid.n_x
    ny_p, ny_m = strip_p.n_y, strip_m.n_y
    n_plus = nx * (ny_p + 1)
    n_total = n_plus + nx * (ny_m + 1)
    stride_p, stride_m = ny_p + 1, ny_m + 1
    i_all = np.arange(nx)

    def p_idx(i, j):
        return i * stride_p + j

    def m_idx(i, j):
        return n_plus + i * stride_m + j

    rows, cols, vals = [], [], []
    for part in (_pde_entries(op.plus_coeffs, 0),
                 _pde_entries(op.minus_coeffs, n_plus)):
        rows += part[0]
        cols += part[1]
        vals += part[2]

    def add(r, c, v):
        rows.append(np.asarray(r))
        cols.append(np.asarray(c))
        vals.append(np.asarray(v))

    ones = np.ones(nx)

    # Dirichlet rows on the outer edges.
    add(p_idx(i_all, ny_p), p_idx(i_all, ny_p), ones)
    add(m_idx(i_all, 0), m_idx(i_all, 0), ones)

    # Jump rows on Gamma_0, assigned to the plus-strip edge nodes.
    add(p_idx(i_all, 0), p_idx(i_all, 0), ones)
    add(p_idx(i_all, 0), m_idx(i_all, ny_m), -ones)

    # Flux rows on Gamma_0, assigned to the minus-strip edge nodes.
    flux_rows = m_idx(i_all, ny_m)
    dyp, dym = strip_p.dy, strip_m.dy
    b2p, b2m = op.plus_bc.beta2, op.minus_bc.beta2
    add(flux_rows, p_idx(i_all, 0), -3.0 * b2p / (2 * dyp))
    add(flux_rows, p_idx(i_all, 1), 4.0 * b2p / (2 * dyp))
    add(flux_rows, p_idx(i_all, 2), -b2p / (2 * dyp))
    add(flux_rows, m_idx(i_all, ny_m), -3.0 * b2m / (2 * dym))
    add(flux_rows, m_idx(i_all, ny_m - 1), 4.0 * b2m / (2 * dym))
    add(flux_rows, m_idx(i_all, ny_m - 2), -b2m / (2 * dym))

    dmat = spectral_diff_matrix(strip_p.grid)
    rr = np.repeat(flux_rows, nx)
    cc_p = p_idx(np.tile(i_all, nx), 0)
    cc_m = m_idx(np.tile(i_all, nx), ny_m)
    add(rr, cc_p, (op.plus_bc.beta1[:, None] * dmat).ravel())
    add(rr, cc_m, (-op.minus_bc.beta1[:, None] * dmat).ravel())

    rows = np.concatenate([np.asarray(r).ravel() for r in rows])
    cols = np.concatenate([np.asarray(c).ravel() for c in cols])
    vals = np.concatenate([np.asarray(v).ravel() for v in vals])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n_total, n_total))


def _rhs(data: DiffractionData) -> np.ndarray:
    """Right-hand side in the node ordering of :func:`_assemble`: the edge
    rows carry phi2 (jump) and phi3 on the plus strip, phi4 and phi1 (flux)
    on the minus strip."""
    plus = data.F_plus.values.copy()
    plus[:, 0] = data.phi2.values
    plus[:, -1] = data.phi3.values
    minus = data.F_minus.values.copy()
    minus[:, 0] = data.phi4.values
    minus[:, -1] = data.phi1.values
    return np.concatenate([plus.ravel(), minus.ravel()])


def solve_general(data: DiffractionData) -> DiffractionSolution:
    """Solve the general transmission problem with its operator's factorization.

    One step of iterative refinement follows the triangular solves; the
    right-hand side and the refinement residual are row-scaled like the
    factored matrix.  Raises :class:`SolverFailure` when the factorization
    fails (see :attr:`TransmissionOperator.factorization`) or the normwise
    backward error |Ax - b| / (|A| |x| + |b|) in max norms exceeds 1e-12.
    """
    matrix, scale, lu, norm_inf, cond = data.operator.factorization
    rhs = _rhs(data)
    x = lu.solve(scale @ rhs)
    x += lu.solve(scale @ (rhs - matrix @ x))
    if not np.all(np.isfinite(x)):
        raise SolverFailure("solver produced non-finite values", condition_estimate=cond)

    residual = np.max(np.abs(matrix @ x - rhs))
    scale = norm_inf * np.max(np.abs(x)) + np.max(np.abs(rhs))
    if residual > BACKWARD_ERROR_LIMIT * scale:
        raise SolverFailure(
            f"normwise backward error {residual / scale:.3e} exceeds "
            f"{BACKWARD_ERROR_LIMIT:.1e}",
            condition_estimate=cond,
        )

    strip_p, strip_m = data.operator.strips
    x_plus, x_minus = np.split(x, [np.prod(strip_p.shape)])
    return DiffractionSolution(StripField(strip_p, x_plus.reshape(strip_p.shape)),
                               StripField(strip_m, x_minus.reshape(strip_m.shape)),
                               data.operator)


# ---------------------------------------------------------------------------
# The potential problems


def pulled_back_operator(fh: InterfacePair, params: FluidParams,
                         n_y: int | None = None) -> TransmissionOperator:
    """The transmission operator of fh on strips of n_y (default max(8, n_x // 2)) layers."""
    n_y = max(8, fh.grid.n_x // 2) if n_y is None else int(n_y)
    strip_p, strip_m = StripGrid(fh.grid, n_y, "plus"), StripGrid(fh.grid, n_y, "minus")
    b1p, b2p = b_coeffs_plus(fh, params)
    b1m, b2m = b_coeffs_minus(fh, params)
    return TransmissionOperator(
        plus_coeffs=coeffs_A_plus(fh, strip_p),
        minus_coeffs=coeffs_A_minus(fh, strip_m),
        plus_bc=BoundaryOperator(strip_p, "bottom", b1p, b2p),
        minus_bc=BoundaryOperator(strip_m, "top", b1m, b2m),
    )


def _potential_data(operator: TransmissionOperator, fh: InterfacePair, b: PeriodicFn,
                    params: FluidParams, surface_tension: bool = False) -> DiffractionData:
    """The potential problem at fh with bottom pressure b, posed on fh's operator;
    with surface_tension both interfaces carry Laplace-Young jumps."""
    strip_p, strip_m = operator.strips
    zero = PeriodicFn(fh.grid, np.zeros(fh.grid.n_x))
    jump = params.g * (params.rho_plus - params.rho_minus) * fh.f
    top = params.g * params.rho_plus * fh.h
    if surface_tension:
        jump = jump + params.gamma_f * fh.curvature_f
        top = top - params.gamma_h * fh.curvature_h
    return DiffractionData(
        operator=operator,
        F_plus=StripField(strip_p, np.zeros(strip_p.shape)),
        F_minus=StripField(strip_m, np.zeros(strip_m.shape)),
        phi1=zero,
        phi2=jump,
        phi3=top,
        phi4=b,
    )


def solve_potentials(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
                     n_y: int | None = None) -> DiffractionSolution:
    """Transformed velocity potentials of the gravity-driven problem."""
    return solve_general(_potential_data(pulled_back_operator(fh, params, n_y), fh, b, params))


def solve_potentials_st(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
                        n_y: int | None = None) -> DiffractionSolution:
    """Transformed potentials with Laplace-Young jumps on both interfaces."""
    return solve_general(_potential_data(pulled_back_operator(fh, params, n_y), fh, b, params,
                                         surface_tension=True))


# ---------------------------------------------------------------------------
# Linearized problems around a base state
#
# base_solution is the potential pair solved at base (with or without
# surface tension, as with_surface_tension says).  The linearized problem has
# the base state's matrix, so it is posed on base_solution.operator and
# solved with that operator's factorization: no new factorization is made.


def solve_linearized(base: InterfacePair, base_solution: DiffractionSolution,
                     delta_f: PeriodicFn, delta_h: PeriodicFn, params: FluidParams,
                     with_surface_tension: bool = False) -> tuple[StripField, StripField]:
    """Derivative of the potential pair as the interfaces move along
    (delta_f, delta_h), solved on the base solution's operator."""
    operator = base_solution.operator
    strip_p, strip_m = operator.strips
    v_plus, v_minus = base_solution.v_plus, base_solution.v_minus
    flux = (frechet_B_along("B_minus", base, delta_f, delta_h, params, v_minus)
            - frechet_B_along("B_plus", base, delta_f, delta_h, params, v_plus))
    jump = params.g * (params.rho_plus - params.rho_minus) * delta_f
    top = params.g * params.rho_plus * delta_h
    if with_surface_tension:
        jump = jump + params.gamma_f * base.curvature_f_frechet(delta_f)
        top = top - params.gamma_h * base.curvature_h_frechet(delta_h)

    sol = solve_general(DiffractionData(
        operator=operator,
        F_plus=-apply_operator(frechet_A_along(base, delta_f, delta_h, strip_p), v_plus),
        F_minus=-apply_operator(frechet_A_along(base, delta_f, delta_h, strip_m), v_minus),
        phi1=flux,
        phi2=jump,
        phi3=top,
        phi4=PeriodicFn(base.grid, np.zeros(base.grid.n_x)),
    ))
    return sol.v_plus, sol.v_minus


# ---------------------------------------------------------------------------
# Complementing-condition diagnostic


@dataclass(frozen=True)
class ComplementingReport:
    delta2: np.ndarray
    quantity: np.ndarray

    @property
    def satisfied(self) -> np.ndarray:
        return self.quantity > 0.0


def check_complementing(a11, a12, a22, beta1, beta2, xi, tau) -> ComplementingReport:
    """Evaluate the boundary-ODE quantity deciding the complementing condition.

    a11, a12, a22, beta1, beta2 have shape (..., 2), one value per operator
    along the last axis; a12 is the symmetric half-coefficient of the mixed
    derivative.  xi and tau have shape (...).  All inputs broadcast
    together, so one call evaluates a batch of cases: the report's delta2
    has shape (..., 2) and its quantity shape (...).  Freezing the
    coefficients and replacing (dx, dy) by (xi, -i d/dt) yields a pair of
    decaying-solution ODEs; the condition holds iff the quantity, built from
    the decay exponents delta2, is positive.  beta1 only enters the real
    part of the frozen boundary relation and drops out of the sign decision;
    it is accepted to keep the full operator description together.  Raises
    ValueError if any case of the batch is non-finite, has xi = 0 or tau
    outside [0, 1], a non-elliptic operator or a non-positive beta2.
    """
    a11, a12, a22, beta1, beta2 = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a11, a12, a22, beta1, beta2)))
    if a11.shape[-1:] != (2,):
        raise ValueError("coefficients need a last axis of length 2, one per operator")
    xi = np.asarray(xi, dtype=float)[..., None]
    tau = np.asarray(tau, dtype=float)[..., None]
    if not all(np.isfinite(v).all() for v in (a11, a12, a22, beta1, beta2, xi, tau)):
        raise ValueError("inputs must be finite")
    if np.any(xi == 0.0):
        raise ValueError("xi must be nonzero")
    if np.any((tau < 0.0) | (tau > 1.0)):
        raise ValueError("tau must lie in [0, 1]")
    if not np.all((a11 > 0) & (a22 > 0) & (a11 * a22 > a12**2)):
        raise ValueError("every operator must be elliptic")
    if np.any(beta2 <= 0):
        raise ValueError("beta2 of every operator must be positive")

    denom = (1.0 - tau) * a22 + tau
    big_a1 = -2.0 * (1.0 - tau) * a12 * xi / denom
    big_a2 = ((1.0 - tau) * a11 + tau) * xi**2 / denom
    disc = big_a2 - big_a1**2 / 4.0
    if np.any(disc <= 0):
        raise ValueError("non-positive decay discriminant; inputs not elliptic")
    delta2 = np.sqrt(disc)
    quantity = np.sum(delta2 * ((1.0 - tau) * beta2 + tau), axis=-1)
    return ComplementingReport(delta2=delta2, quantity=quantity)
