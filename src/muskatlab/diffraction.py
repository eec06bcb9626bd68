"""Discrete elliptic transmission problems on the coupled reference strips.

The general problem couples one second-order operator per strip through two
interface conditions on the shared edge y = 0 (a value jump and a flux
balance) and Dirichlet data on the outer edges y = 1 and y = -1.  Both
strips' nodes, including all edge layers, are unknowns; the interface
conditions close the square system, which is factorized sparsely and solved
by iterative refinement.  The factor is a sparse LU of the
row-equilibrated matrix, ordered by minimum degree on A^T + A and pivoted by
threshold, which keeps the pivots on the diagonal where they are large enough
and so roughly halves the fill of SuperLU's default COLAMD ordering with
partial pivoting; the guards (condition estimate, backward error) still
measure the unscaled matrix.  SuperLU runs with panels of 4 columns and
relaxed supernodes of at most 4, not its default 20 and 10: with one BLAS
thread this matrix family factors 12-21% faster in less memory, with the
same fill.  The matrix depends only on the geometry, so one
:class:`TransmissionOperator` factor serves every problem on it, the
linearized problems around a solved state included.  A solve given a
``base``, the factored operator of a nearby state on the same strips, is
iterative refinement on the base's factor, from a predicted solution when the
caller has one, until the operator factors itself, which it does only when
that refinement fails.  Every refinement, on any factor, stops by the same
rules (see :func:`_refine`), and every solution records how it was solved.

The matrix is written from the operators' own stencils: its interior rows
are :func:`muskatlab.operators.operator_values`, the terms of
:func:`~muskatlab.operators.apply_operator` as sparse entries, and its flux
rows the values of the two co-normal
:class:`~muskatlab.operators.BoundaryOperator` on Gamma_0.  Where the
entries sit depends on the strips' shape alone, so the sparsity pattern is
computed once per strip shape and shared by every operator on those strips
while one is alive; each state computes only its values and gathers them
into the pattern (see :func:`_assemble`).  The traces of the solution are
taken with the same stencils and the same spectral x-derivative entries, so
the imposed interface conditions are recoverable to solver precision.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import InterfacePair, PeriodicFn, curvature, curvature_frechet
from .operators import (
    BoundaryOperator,
    CoefficientField,
    FluidParams,
    StripField,
    StripGrid,
    apply_operator,
    b_coeffs_B1,
    b_coeffs_minus,
    b_coeffs_plus,
    boundary_pattern,
    coeffs_A_minus,
    coeffs_A_plus,
    frechet_A_along,
    frechet_B_along,
    operator_pattern,
    operator_values,
    trace_dx,
    trace_dy,
    trace_values,
)

__all__ = [
    "BoundaryOperator",
    "ComplementingReport",
    "DiffractionData",
    "DiffractionSolution",
    "SolveRecord",
    "SolverFailure",
    "TransmissionOperator",
    "check_complementing",
    "pulled_back_operator",
    "solve_general",
    "solve_linearized",
    "solve_potentials",
]

CONDITION_LIMIT = 1e12
BACKWARD_ERROR_LIMIT = 1e-12
# A refinement stops short, and on a base operator's factor falls back to a
# factorization of the operator's own matrix, when a residual exceeds this
# ratio times the one before it, is not finite, or has not reached machine
# precision after this many corrections.
REFINE_CONTRACTION_LIMIT = 0.5
REFINE_MAX_ITERATIONS = 30


class SolverFailure(RuntimeError):
    """The assembled transmission system could not be solved reliably."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True, eq=False)
class TransmissionOperator:
    """Interior operators of both strips of n_y layers, the two flux
    operators on Gamma_0 and the co-normal operator B1 on the upper strip's
    top edge of the interface state fh, built on construction, with the
    layout of its matrix, shared by every operator on the same strips.

    They depend only on the state and the fluid, never on the data, so every
    problem posed on them is solved with one :attr:`factorization`, or on
    a given base's until this operator needs its own (see
    :func:`solve_general`); its solutions read the state and the fluid from
    here.
    """

    fh: InterfacePair
    params: FluidParams
    n_y: int
    plus_coeffs: CoefficientField = field(init=False, repr=False)
    minus_coeffs: CoefficientField = field(init=False, repr=False)
    plus_bc: BoundaryOperator = field(init=False, repr=False)
    minus_bc: BoundaryOperator = field(init=False, repr=False)
    top_bc: BoundaryOperator = field(init=False, repr=False)
    layout: _Layout = field(init=False, repr=False)

    def __post_init__(self):
        fh, params = self.fh, self.params
        strips = strip_p, strip_m = tuple(StripGrid(fh.grid, self.n_y, side)
                                          for side in ("plus", "minus"))
        b1p, b2p = b_coeffs_plus(fh, params)
        b1m, b2m = b_coeffs_minus(fh, params)
        b1t, b2t = b_coeffs_B1(fh, params)
        for name, value in (("plus_coeffs", coeffs_A_plus(fh, strip_p)),
                            ("minus_coeffs", coeffs_A_minus(fh, strip_m)),
                            ("plus_bc", BoundaryOperator(strip_p, "bottom", b1p, b2p)),
                            ("minus_bc", BoundaryOperator(strip_m, "top", b1m, b2m)),
                            ("top_bc", BoundaryOperator(strip_p, "top", b1t, b2t)),
                            ("layout", _layout(strips))):
            object.__setattr__(self, name, value)

    @property
    def strips(self) -> tuple[StripGrid, StripGrid]:
        return self.plus_coeffs.strip, self.minus_coeffs.strip

    @cached_property
    def matrix(self) -> sp.csc_matrix:
        """The assembled transmission matrix (see :func:`_assemble`)."""
        return _assemble(self)

    @cached_property
    def factorization(self) -> tuple:
        """(row scale d, sparse LU of diag(d) @ A, max-norm and 1-norm of A,
        1-norm condition estimate of A) of the matrix A = :attr:`matrix`.

        d = 1 / max_j |a_ij| equilibrates the rows and is kept as a vector;
        the LU of D A = diag(d) A is ordered by minimum degree on
        (DA)^T + DA and pivots by threshold (diagonal pivot kept when at
        least 0.1 of its column's largest entry), in panels of 4 columns
        with relaxed supernodes of at most 4 columns: measured fastest for
        this matrix family, and inside SuperLU's default regime (relax <=
        panel_size, relax <= 10, panel_size <= 20).  The assembled pattern
        is the same for every geometry, so a flat state stores exact zeros
        (its vanishing mixed-derivative terms); they are dropped from D A
        before the ordering, which would otherwise fill in around them.
        Raises :class:`SolverFailure` when the matrix is not finite (its
        coefficients overflow on a thin layer), the factorization breaks down
        or the condition estimate exceeds 1e12; a failure is not cached.
        """
        if not np.isfinite(self.matrix.data).all():
            gap = min(np.min(self.fh.gap_minus.values), np.min(self.fh.gap_plus.values))
            raise SolverFailure("transmission matrix is not finite: the pulled-back "
                                f"coefficients overflow at the smallest layer gap {gap:.3e}")
        d, scaled, norm_1, norm_inf = _equilibrate(self.matrix)
        try:
            lu = spla.splu(scaled, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                           relax=4, panel_size=4)
        except RuntimeError as exc:
            raise SolverFailure(f"sparse factorization failed: {exc}") from exc
        # ||A^-1||_1 = ||(DA)^-1 D||_1 estimated from solves with the factor.  One
        # column (t=1) starts from the vector of ones, so the estimate is
        # deterministic and draws nothing from numpy's global random stream.
        inverse = spla.LinearOperator(
            scaled.shape, dtype=float,
            matvec=lambda x: lu.solve(d * x.ravel()),
            rmatvec=lambda x: d * lu.solve(x.ravel(), trans="T"))
        cond = norm_1 * float(spla.onenormest(inverse, t=1))
        if cond > CONDITION_LIMIT:
            raise SolverFailure(
                f"system too ill-conditioned (estimate {cond:.3e} > {CONDITION_LIMIT:.1e}); "
                "geometry is close to losing admissibility",
                condition_estimate=cond,
            )
        return d, lu, norm_inf, norm_1, cond

    def potentials(self, b: PeriodicFn, surface_tension: bool = False,
                   start: np.ndarray | None = None,
                   base: TransmissionOperator | None = None) -> DiffractionSolution:
        """The transformed velocity potentials of the state with bottom
        pressure b; with surface_tension both interfaces carry Laplace-Young
        jumps, and the solution records it.  base, a factored operator on the
        same strips, and start, a predicted :attr:`DiffractionSolution.vector`,
        are those of :func:`solve_general`."""
        fh, params = self.fh, self.params
        strip_p, strip_m = self.strips
        jump = params.g * (params.rho_plus - params.rho_minus) * fh.f
        top = params.g * params.rho_plus * fh.h
        if surface_tension:
            jump = jump + params.gamma_f * curvature(fh.f)
            top = top - params.gamma_h * curvature(fh.h)
        solution = solve_general(DiffractionData(
            operator=self,
            F_plus=StripField(strip_p, np.zeros(strip_p.shape)),
            F_minus=StripField(strip_m, np.zeros(strip_m.shape)),
            phi1=PeriodicFn(fh.grid, np.zeros(fh.grid.n_x)),
            phi2=jump,
            phi3=top,
            phi4=b,
        ), start, base)
        return replace(solution, surface_tension=surface_tension)


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


FALLBACK_CAUSES = ("contraction", "non_finite", "iterations", "condition")


@dataclass(frozen=True)
class SolveRecord:
    """How a solution was solved.

    method is 'factored' when this solve factored its operator, 'direct'
    when it used the operator's existing factorization and 'refined' when it
    refined on the base's.  corrections counts the triangular solves on the
    data, abandoned refinement included, each one step of :func:`_refine`.
    contraction is the refinement's r, and fallback the cause, one of
    FALLBACK_CAUSES, for which a refinement on the base gave up.
    """

    method: str
    corrections: int
    contraction: float = 0.0
    fallback: str | None = None


@dataclass(frozen=True)
class DiffractionSolution:
    """Solved strip fields, views of the solution vector in the node ordering
    of :func:`_assemble`, with the operator they were solved on, which holds
    their interface state and fluid, the 1-norm condition estimate of the
    matrix they were solved with, and the record of how they were solved;
    their edge traces are computed on access.  surface_tension records
    whether a potential problem carried Laplace-Young jumps."""

    v_plus: StripField
    v_minus: StripField
    vector: np.ndarray = field(repr=False)
    operator: TransmissionOperator = field(repr=False)
    condition_estimate: float
    record: SolveRecord
    surface_tension: bool = False

    tr0_vplus = _trace(trace_values, "v_plus", "bottom")
    tr0_vminus = _trace(trace_values, "v_minus", "top")
    tr0_dx_vplus = _trace(trace_dx, "v_plus", "bottom")
    tr0_dx_vminus = _trace(trace_dx, "v_minus", "top")
    tr0_dy_vplus = _trace(trace_dy, "v_plus", "bottom")
    tr0_dy_vminus = _trace(trace_dy, "v_minus", "top")
    tr1_dx_vplus = _trace(trace_dx, "v_plus", "top")
    tr1_dy_vplus = _trace(trace_dy, "v_plus", "top")


# ---------------------------------------------------------------------------
# Assembly


def _pattern(strip_p: StripGrid, strip_m: StripGrid) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns), int32, of the transmission matrix's entries in the
    order of :func:`_values`: both strips' nodes numbered like their
    ``values.ravel()``, the plus strip first.  Interior rows hold the strip
    operators, the outer edges Dirichlet rows; on Gamma_0 the plus-strip edge
    carries the value jump and the minus-strip edge the flux balance
    plus_bc - minus_bc.  No entry repeats: the flux rows' spectral
    x-derivative leaves out its zero diagonal, where the y-row's entry is."""
    nx, levels_p = strip_p.shape
    _, levels_m = strip_m.shape
    n_plus = nx * levels_p
    i = np.arange(nx)
    bottom_p, top_p = i * levels_p, i * levels_p + levels_p - 1
    bottom_m, top_m = n_plus + i * levels_m, n_plus + i * levels_m + levels_m - 1
    blocks = [operator_pattern(strip_p), operator_pattern(strip_m, n_plus),
              (top_p, top_p), (bottom_m, bottom_m), (bottom_p, bottom_p), (bottom_p, top_m),
              *boundary_pattern(strip_p, "bottom", top_m),
              *boundary_pattern(strip_m, "top", top_m, n_plus)]
    return tuple(np.concatenate(parts, axis=None, dtype=np.int32) for parts in zip(*blocks))


def _values(op: TransmissionOperator) -> np.ndarray:
    """The values of the entries of op's matrix, in the order of
    :func:`_pattern`."""
    ones = np.ones(op.fh.grid.n_x)
    blocks = [*operator_values(op.plus_coeffs), *operator_values(op.minus_coeffs),
              ones, ones, ones, -ones, *op.plus_bc.values(), *(-op.minus_bc).values()]
    return np.concatenate(blocks, axis=None)


@dataclass(frozen=True, eq=False)
class _Layout:
    """The CSC pattern of the transmission matrix on one pair of strips:
    its row indices and column pointers, and gather, the position in
    :func:`_values` of each stored entry (all int32 and read-only).  The
    operators on the strips hold it, and it is freed with the last of them."""

    indices: np.ndarray
    indptr: np.ndarray
    gather: np.ndarray


# Layouts by strips, each alive while an operator on its strips holds it.
_LAYOUTS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _build_layout(strips: tuple[StripGrid, StripGrid]) -> _Layout:
    """The layout of strips, from one COO to CSC conversion of the entries'
    positions (the entries are unique, so it sums nothing)."""
    rows, cols = _pattern(*strips)
    n = sum(strip.shape[0] * strip.shape[1] for strip in strips)
    order = sp.csc_matrix((np.arange(len(rows), dtype=np.int32), (rows, cols)), shape=(n, n))
    for array in (order.indices, order.indptr, order.data):
        array.flags.writeable = False
    return _Layout(order.indices, order.indptr, order.data)


def _layout(strips: tuple[StripGrid, StripGrid]) -> _Layout:
    """The layout of strips: a live operator's, or else a new one."""
    layout = _LAYOUTS.get(strips)
    if layout is None:
        layout = _LAYOUTS[strips] = _build_layout(strips)
    return layout


def _assemble(op: TransmissionOperator) -> sp.csc_matrix:
    """The transmission matrix (see :func:`_pattern`).  Its pattern is the
    operator's layout, computed once per strip shape; each state computes
    only its values (:func:`_values`) and gathers them into CSC order, and
    its matrix shares the layout's index arrays."""
    layout = op.layout
    n = len(layout.indptr) - 1
    data = _values(op).take(layout.gather)
    return sp.csc_matrix((data, layout.indices, layout.indptr), shape=(n, n))


def _norms(matrix: sp.csc_matrix) -> tuple[float, float]:
    """(||A||_1, ||A||_inf) of a square CSC matrix A from its arrays (||A||_1
    takes A to have no empty column, as a nonsingular A has)."""
    magnitude = np.abs(matrix.data)
    norm_1 = float(np.add.reduceat(magnitude, matrix.indptr[:-1]).max())
    norm_inf = float(np.bincount(matrix.indices, weights=magnitude,
                                 minlength=matrix.shape[0]).max())
    return norm_1, norm_inf


def _equilibrate(matrix: sp.csc_matrix) -> tuple:
    """(d, D A, ||A||_1, ||A||_inf) of a square CSC matrix A, with d = 1 /
    max_j |a_ij| and D A = diag(d) A on A's pattern less its zero entries,
    all from A's arrays; with no zero entry D A shares A's index arrays.
    The temporaries are freed on return, before the factorization allocates
    its L and U."""
    n = matrix.shape[0]
    rows, magnitude = matrix.indices, np.abs(matrix.data)
    row_max = np.zeros(n)
    np.maximum.at(row_max, rows, magnitude)
    norm_1, norm_inf = _norms(matrix)
    d = 1.0 / row_max
    scaled = matrix.data * d[rows]
    kept = scaled != 0.0
    if kept.all():
        return d, sp.csc_matrix((scaled, rows, matrix.indptr), shape=(n, n)), norm_1, norm_inf
    indptr = np.concatenate(([0], np.cumsum(kept)))[matrix.indptr]
    return d, sp.csc_matrix((scaled[kept], rows[kept], indptr), shape=(n, n)), norm_1, norm_inf


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


def _refine(matrix: sp.csc_matrix, factor: tuple, rhs: np.ndarray, norm_inf: float,
            start: np.ndarray | None = None) -> tuple:
    """(x, |b - A x|, |A| |x| + |b|, corrections, r, cause) for A x = b, A =
    matrix and b = rhs, in max norms (norm_inf = ||A||_inf), by iterative
    refinement on factor = (d, LU), of A's own D A or of a base's.

    Each correction x <- x + LU^-1 D (b - A x) is one triangular solve, from
    start or from zero (whose residual is b), until the normwise backward
    error of x is at most machine epsilon; every iterate, the start
    included, is judged, and the residual and bound returned are those of
    the x returned.  r, the largest ratio of successive residual norms,
    measures how far the factored inverse is from A^-1; the first
    correction's ratio is not counted, for it measures the start (a predicted
    start's residual sits mostly in the Dirichlet rows, whose entries are
    about n_y^2 smaller than the interior rows' that the correction moves it
    to).  The loop stops short when r exceeds REFINE_CONTRACTION_LIMIT
    ('contraction'), a residual is not finite ('non_finite') or
    REFINE_MAX_ITERATIONS corrections after the first did not converge
    ('iterations').
    """
    d, lu = factor
    x = np.zeros_like(rhs) if start is None else start.copy()
    residual = rhs if start is None else rhs - matrix @ x
    rhs_norm = np.max(np.abs(rhs))
    corrections, contraction, previous, cause = 0, 0.0, None, None
    while True:
        size = np.max(np.abs(residual))
        bound = norm_inf * np.max(np.abs(x)) + rhs_norm
        if not np.isfinite(size):
            cause = "non_finite"
            break
        if size <= np.finfo(float).eps * bound:
            break
        if corrections >= 2:
            contraction = max(contraction, size / previous)
            if contraction > REFINE_CONTRACTION_LIMIT:
                cause = "contraction"
                break
        if corrections > REFINE_MAX_ITERATIONS:
            cause = "iterations"
            break
        x += lu.solve(d * residual)
        residual = rhs - matrix @ x
        corrections, previous = corrections + 1, size
    return x, size, bound, corrections, float(contraction), cause


def solve_general(data: DiffractionData, start: np.ndarray | None = None,
                  base: TransmissionOperator | None = None) -> DiffractionSolution:
    """Solve the general transmission problem by iterative refinement (see
    :func:`_refine`) on the factor of base, a factored operator on the same
    strips, from start when one is given, while the problem's operator has
    not factored itself, or else on the operator's own factor, which ignores
    start.  A refinement on the base falls back to the operator's own
    factorization when it stops short, or when its condition estimate, the
    base's scaled by ||A||_1 / ||A0||_1 and by 1 / (1 - r), exceeds
    CONDITION_LIMIT ('condition').  The solution's record says how it was
    solved.  Raises :class:`SolverFailure` when the factorization fails (see
    :attr:`TransmissionOperator.factorization`) or the normwise backward
    error the loop measured exceeds 1e-12, and ValueError when base has
    other strips or has not factored itself, or the data's right-hand side
    (F_plus, F_minus, phi1-phi4, so the bottom pressure b) is not finite.
    """
    operator = data.operator
    if base is not None:
        if base.strips != operator.strips:
            raise ValueError("a base operator must have the same strips")
        if "factorization" not in vars(base):
            raise ValueError("a base operator must hold its factorization")
    matrix, rhs = operator.matrix, _rhs(data)
    if not np.isfinite(rhs).all():
        raise ValueError("transmission data must be finite (F_plus, F_minus, phi1-phi4)")
    method, corrections, contraction, cause = None, 0, 0.0, None
    if base is not None and "factorization" not in vars(operator):
        d, lu, _, base_norm_1, base_cond = base.factorization
        norm_1, norm_inf = _norms(matrix)
        x, residual, bound, corrections, contraction, cause = _refine(
            matrix, (d, lu), rhs, norm_inf, start)
        cond = base_cond * norm_1 / base_norm_1 / (1.0 - contraction)
        if cause is None and cond > CONDITION_LIMIT:
            cause = "condition"
        method = None if cause else "refined"
    if method is None:
        method = "direct" if "factorization" in vars(operator) else "factored"
        d, lu, norm_inf, _, cond = operator.factorization
        x, residual, bound, more, *_ = _refine(matrix, (d, lu), rhs, norm_inf)
        corrections += more
    if not np.all(np.isfinite(x)):
        raise SolverFailure("solver produced non-finite values", condition_estimate=cond)
    if residual > BACKWARD_ERROR_LIMIT * bound:
        raise SolverFailure(
            f"normwise backward error {residual / bound:.3e} exceeds "
            f"{BACKWARD_ERROR_LIMIT:.1e}",
            condition_estimate=cond,
        )

    strip_p, strip_m = operator.strips
    x_plus, x_minus = np.split(x, [np.prod(strip_p.shape)])
    record = SolveRecord(method, corrections, contraction, cause)
    return DiffractionSolution(StripField(strip_p, x_plus.reshape(strip_p.shape)),
                               StripField(strip_m, x_minus.reshape(strip_m.shape)),
                               x, operator, cond, record)


# ---------------------------------------------------------------------------
# The potential problems


def pulled_back_operator(fh: InterfacePair, params: FluidParams,
                         n_y: int | None = None) -> TransmissionOperator:
    """The transmission operator of fh on strips of n_y (default max(8, n_x // 2)) layers."""
    n_y = max(8, fh.grid.n_x // 2) if n_y is None else int(n_y)
    return TransmissionOperator(fh, params, n_y)


def solve_potentials(fh: InterfacePair, b: PeriodicFn, params: FluidParams,
                     n_y: int | None = None, surface_tension: bool = False) -> DiffractionSolution:
    """Transformed velocity potentials at fh, with Laplace-Young jumps on both
    interfaces when surface_tension is set."""
    return pulled_back_operator(fh, params, n_y).potentials(b, surface_tension)


# ---------------------------------------------------------------------------
# Linearized problems around a base state
#
# base_solution is the potential pair solved at base, with or without surface
# tension as it records.  The linearized problem has the base state's matrix,
# so it is posed on base_solution.operator and solved with that operator's
# factorization: no new factorization is made, unless base_solution was refined
# on another operator's factor, and then its operator is factored when solved on.


def solve_linearized(base_solution: DiffractionSolution, delta_f: PeriodicFn,
                     delta_h: PeriodicFn,
                     b_minus_along: PeriodicFn | None = None) -> tuple[StripField, StripField]:
    """Derivative of the potential pair as the interfaces of the base state
    move along (delta_f, delta_h), solved on the base solution's operator;
    the Laplace-Young jumps are differentiated when the base solution
    carried them.  b_minus_along is the derivative of B_minus along the
    direction applied to the base's v_minus (:func:`frechet_B_along`) when
    the caller has it, and is computed here otherwise.  The lower strip's
    derivatives vanish when delta_f is zero, and are then not built."""
    operator = base_solution.operator
    base, params = operator.fh, operator.params
    strip_p, strip_m = operator.strips
    v_plus, v_minus = base_solution.v_plus, base_solution.v_minus
    flux = -frechet_B_along("B_plus", base, delta_f, delta_h, params, v_plus)
    F_minus = StripField(strip_m, np.zeros(strip_m.shape))
    if delta_f.values.any():
        if b_minus_along is None:
            b_minus_along = frechet_B_along("B_minus", base, delta_f, delta_h, params, v_minus)
        flux = b_minus_along + flux
        F_minus = -apply_operator(frechet_A_along(base, delta_f, delta_h, strip_m), v_minus)
    jump = params.g * (params.rho_plus - params.rho_minus) * delta_f
    top = params.g * params.rho_plus * delta_h
    if base_solution.surface_tension:
        jump = jump + params.gamma_f * curvature_frechet(base.f, delta_f)
        top = top - params.gamma_h * curvature_frechet(base.h, delta_h)

    sol = solve_general(DiffractionData(
        operator=operator,
        F_plus=-apply_operator(frechet_A_along(base, delta_f, delta_h, strip_p), v_plus),
        F_minus=F_minus,
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
