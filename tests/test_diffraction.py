import ctypes.util
import gc
import os
import subprocess
import sys
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import muskatlab.diffraction as diffraction
from muskatlab.config import SimConfig, WaveSpec
from muskatlab.diffraction import (
    DiffractionData,
    SolverFailure,
    check_complementing,
    pulled_back_operator,
    solve_general,
    solve_linearized,
    solve_potentials,
)
from muskatlab.evolution import simulate
from muskatlab.geometry import (
    InterfacePair,
    PeriodicFn,
    constant_fn,
    from_callable,
    make_grid,
    spectral_derivative,
)
from muskatlab.operators import (
    FluidParams,
    StripField,
    StripGrid,
    apply_operator,
    boundary_B_minus,
    boundary_B_plus,
    trace_dy,
    trace_values,
)

PAR = FluidParams()
SRC = Path(__file__).resolve().parents[1] / "src"


def fn(grid, func):
    return from_callable(grid, func)


def unit_pair(grid):
    return InterfacePair(constant_fn(grid, 0.0), constant_fn(grid, 1.0), -1.0)


def wavy_pair(grid):
    f = fn(grid, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x))
    h = fn(grid, lambda x: 1.0 + 0.1 * np.cos(x))
    return InterfacePair(f, h, -1.0)


def pinched_pair(grid):
    # the upper layer thins to a tenth of its mean thickness near x = pi/2
    f = fn(grid, lambda x: 0.45 * np.sin(x))
    h = fn(grid, lambda x: 1.0 - 0.45 * np.sin(x))
    return InterfacePair(f, h, -1.0)


def general_data(fh, params, n_y, F_plus=None, F_minus=None,
                 phi1=None, phi2=None, phi3=None, phi4=None):
    op = pulled_back_operator(fh, params, n_y)
    strip_p, strip_m = op.strips
    zero = constant_fn(fh.grid, 0.0)
    return DiffractionData(
        operator=op,
        F_plus=F_plus if F_plus is not None else StripField(strip_p, np.zeros(strip_p.shape)),
        F_minus=F_minus if F_minus is not None else StripField(strip_m, np.zeros(strip_m.shape)),
        phi1=phi1 if phi1 is not None else zero,
        phi2=phi2 if phi2 is not None else zero,
        phi3=phi3 if phi3 is not None else zero,
        phi4=phi4 if phi4 is not None else zero,
    )


def two_layer_exact(grid, strip_p, strip_m, params, c):
    t = (params.g * params.rho_plus - c) / (params.mu_plus + params.mu_minus)
    v_minus = c + params.mu_minus * t * (strip_m.y_nodes + 1.0)
    v_plus = params.g * params.rho_plus - params.mu_plus * t * (1.0 - strip_p.y_nodes)
    ones = np.ones(grid.n_x)
    return (np.outer(ones, v_plus), np.outer(ones, v_minus), t)


class TestSolveGeneral:
    def test_zero_data_zero_solution(self):
        g = make_grid(16)
        sol = solve_general(general_data(wavy_pair(g), PAR, 12))
        assert np.max(np.abs(sol.v_plus.values)) < 1e-10
        assert np.max(np.abs(sol.v_minus.values)) < 1e-10
        # the zero start already meets the epsilon stop
        assert sol.record == diffraction.SolveRecord("factored", 0)

    def test_manufactured_discrete_recovery(self):
        g = make_grid(32)
        n_y = 16
        fh = wavy_pair(g)
        strip_p = StripGrid(g, n_y, "plus")
        strip_m = StripGrid(g, n_y, "minus")
        yp, ym = strip_p.y_nodes, strip_m.y_nodes
        v_plus = StripField(strip_p, np.sin(g.nodes)[:, None] * np.exp(yp)[None, :]
                            + 0.3 * yp[None, :] ** 2)
        v_minus = StripField(strip_m, np.cos(2 * g.nodes)[:, None] * (1 + ym)[None, :] ** 2
                             + 0.1 * np.sin(g.nodes)[:, None])

        op = pulled_back_operator(fh, PAR, n_y)
        bc_p, bc_m = op.plus_bc, op.minus_bc

        data = DiffractionData(
            operator=op,
            F_plus=apply_operator(op.plus_coeffs, v_plus),
            F_minus=apply_operator(op.minus_coeffs, v_minus),
            phi1=PeriodicFn(g, bc_p.apply(v_plus) - bc_m.apply(v_minus)),
            phi2=PeriodicFn(g, v_plus.values[:, 0] - v_minus.values[:, -1]),
            phi3=PeriodicFn(g, v_plus.values[:, -1]),
            phi4=PeriodicFn(g, v_minus.values[:, 0]),
        )
        sol = solve_general(data)
        assert np.max(np.abs(sol.v_plus.values - v_plus.values)) < 1e-12
        assert np.max(np.abs(sol.v_minus.values - v_minus.values)) < 1e-12

    def test_flat_two_layer_closed_form(self):
        g = make_grid(16)
        n_y = 12
        c = 0.25
        fh = unit_pair(g)
        strip_p = StripGrid(g, n_y, "plus")
        strip_m = StripGrid(g, n_y, "minus")
        vp, vm, _ = two_layer_exact(g, strip_p, strip_m, PAR, c)
        data = general_data(fh, PAR, n_y,
                            phi3=constant_fn(g, PAR.g * PAR.rho_plus),
                            phi4=constant_fn(g, c))
        sol = solve_general(data)
        assert np.max(np.abs(sol.v_plus.values - vp)) < 1e-11
        assert np.max(np.abs(sol.v_minus.values - vm)) < 1e-11

    def test_condition_guard_near_collision(self):
        g = make_grid(16)
        f = constant_fn(g, 0.0)
        h = constant_fn(g, 1e-9)  # nearly touching
        fh = InterfacePair(f, h, -1.0)
        with pytest.raises(SolverFailure) as err:
            solve_general(general_data(fh, PAR, 12, phi3=constant_fn(g, 1.0)))
        assert err.value.condition_estimate is None or err.value.condition_estimate > 1e12

    def test_backward_error_guard_rejects_corrupted_solution(self, monkeypatch):
        # every triangular solve returns x + c with |c| = 1e-11 |x|: refinement
        # cannot remove a fixed offset, and the backward error lands near 1e-11
        g = make_grid(16)
        fh = wavy_pair(g)

        def data():
            return general_data(fh, PAR, 12, phi3=constant_fn(g, 1.0),
                                phi4=constant_fn(g, 0.5))

        exact = solve_general(data())
        x_max = max(np.max(np.abs(exact.v_plus.values)), np.max(np.abs(exact.v_minus.values)))
        n = exact.v_plus.values.size + exact.v_minus.values.size
        offset = 1e-11 * x_max * np.random.default_rng(7).choice((-1.0, 1.0), n)
        true_splu = diffraction.spla.splu

        class OffsetLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs, trans="N"):
                x = self.lu.solve(rhs, trans=trans)
                return x + offset.reshape((-1,) + (1,) * (x.ndim - 1))

        monkeypatch.setattr(diffraction.spla, "splu",
                            lambda matrix, **kwargs: OffsetLU(true_splu(matrix, **kwargs)))
        with pytest.raises(SolverFailure, match="backward error") as err:
            solve_general(data())
        assert err.value.condition_estimate < 1e12

    def test_backward_error_guard_judges_every_path(self, monkeypatch, solve_counts):
        # with no backward error allowed, the guard rejects the last residual
        # of a factored solve, of a direct one and of one refined on a base
        g = make_grid(16)
        b = constant_fn(g, 0.5)
        op = pulled_back_operator(wavy_pair(g), PAR, 8)
        near = wavy_pair(g)
        near = InterfacePair(near.f + fn(g, lambda x: 1e-3 * np.cos(3 * x)), near.h, near.d)
        monkeypatch.setattr(diffraction, "BACKWARD_ERROR_LIMIT", 0.0)
        for operator, base in ((op, None), (op, None), (pulled_back_operator(near, PAR, 8), op)):
            with pytest.raises(SolverFailure, match="backward error"):
                operator.potentials(b, base=base)
        assert solve_counts["splu"] == 1  # the direct and the refined solve factored nothing


class TestFactorization:
    """The equilibrated, minimum-degree, threshold-pivoted LU against dense references."""

    @pytest.mark.parametrize("amplitude", [0.0, 0.1, 0.3, 0.45])
    def test_matches_dense_solve_and_condition(self, amplitude):
        g = make_grid(16)
        f = fn(g, lambda x: amplitude * np.sin(x) + 0.2 * amplitude * np.cos(3 * x))
        fh = InterfacePair(f, fn(g, lambda x: 1.0 + 0.1 * np.cos(2 * x)), -1.0)
        rng = np.random.default_rng(11)
        strip_p, strip_m = StripGrid(g, 8, "plus"), StripGrid(g, 8, "minus")
        data = general_data(fh, PAR, 8,
                            F_plus=StripField(strip_p, rng.standard_normal(strip_p.shape)),
                            F_minus=StripField(strip_m, rng.standard_normal(strip_m.shape)),
                            phi1=PeriodicFn(g, rng.standard_normal(g.n_x)),
                            phi2=PeriodicFn(g, rng.standard_normal(g.n_x)),
                            phi3=PeriodicFn(g, rng.standard_normal(g.n_x)),
                            phi4=PeriodicFn(g, rng.standard_normal(g.n_x)))
        sol = solve_general(data)
        x = np.concatenate([sol.v_plus.values.ravel(), sol.v_minus.values.ravel()])
        dense = data.operator.matrix.toarray()
        reference = np.linalg.solve(dense, diffraction._rhs(data))
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
        exact = np.linalg.cond(dense, 1)
        cond = data.operator.factorization[-1]
        assert exact / 3 <= cond <= exact * (1 + 1e-8)

    def test_fill(self):
        g = make_grid(32)
        lu = pulled_back_operator(wavy_pair(g), PAR, 16).factorization[1]
        assert lu.L.nnz + lu.U.nnz <= 60_000

    def test_factored_operator_freed_without_cycle_collector(self):
        g = make_grid(16)
        gc.disable()
        try:
            data = general_data(wavy_pair(g), PAR, 12, phi3=constant_fn(g, 1.0))
            solve_general(data)
            ref = weakref.ref(data.operator)
            del data
            assert ref() is None
        finally:
            gc.enable()


class TestFactorSettings:
    """SuperLU's panel size and supernode relaxation change how the LU is
    computed, not which LU: the fill and the solution are those of SciPy's
    default settings, and the factors leave the heap intact."""

    STATES = [(pair, n_x, n_y) for pair in (unit_pair, wavy_pair, pinched_pair)
              for n_x, n_y in ((16, 8), (32, 16), (64, 32))]
    IDS = [f"{pair.__name__}-{n_x}x{n_y}" for pair, n_x, n_y in STATES]

    @pytest.mark.parametrize("pair, n_x, n_y", STATES, ids=IDS)
    def test_same_fill_and_solution_as_the_default_settings(self, monkeypatch, pair, n_x, n_y):
        op = pulled_back_operator(pair(make_grid(n_x)), PAR, n_y)
        calls = []
        true_splu = diffraction.spla.splu

        def recording_splu(matrix, **kwargs):
            calls.append((matrix, kwargs))
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", recording_splu)
        lu = op.factorization[1]
        ((scaled, kwargs),) = calls
        assert kwargs["relax"] <= kwargs["panel_size"]
        default = true_splu(scaled, **{name: value for name, value in kwargs.items()
                                       if name not in ("relax", "panel_size")})
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
        rhs = np.random.default_rng(5).standard_normal(scaled.shape[0])
        x, reference = lu.solve(rhs), default.solve(rhs)
        assert np.max(np.abs(x - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_factors_leave_the_heap_intact(self):
        # SuperLU settings outside its default regime (relax = 32) write past
        # their work arrays, which may show only as an abort at exit.  glibc's
        # checking allocator, with Python's objects on the same heap, makes
        # such an overrun fail every run instead of a few.
        script = (
            "import numpy as np\n"
            "from muskatlab.diffraction import pulled_back_operator\n"
            "from muskatlab.geometry import InterfacePair, from_callable, make_grid\n"
            "from muskatlab.operators import FluidParams\n"
            "operators = []\n"
            "for n_x in (16, 32, 64, 128):\n"
            "    g = make_grid(n_x)\n"
            "    f = from_callable(g, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x))\n"
            "    h = from_callable(g, lambda x: 1.0 + 0.1 * np.cos(x))\n"
            "    op = pulled_back_operator(InterfacePair(f, h, -1.0), FluidParams(), n_x // 2)\n"
            "    d, lu = op.factorization[:2]\n"
            "    operators.append(op)\n"
            "    assert np.all(np.isfinite(lu.solve(d)))\n")
        env = dict(os.environ, PYTHONMALLOC="malloc", MALLOC_CHECK_="3")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        checking = ctypes.util.find_library("c_malloc_debug")  # glibc >= 2.34 needs it
        if checking:
            env["LD_PRELOAD"] = " ".join(p for p in (checking, env.get("LD_PRELOAD")) if p)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "Fatal Python error" not in done.stderr


class TestConditionEstimate:
    """The one-column 1-norm estimate of the inverse, against a dense inverse."""

    STATES = [(pair, n_x, n_y) for pair in (unit_pair, wavy_pair, pinched_pair)
              for n_x, n_y in ((16, 8), (32, 16))]
    IDS = [f"{pair.__name__}-{n_x}x{n_y}" for pair, n_x, n_y in STATES]

    @pytest.mark.parametrize("pair, n_x, n_y", STATES, ids=IDS)
    def test_estimate_within_a_factor_three_of_the_inverse_norm(self, pair, n_x, n_y):
        op = pulled_back_operator(pair(make_grid(n_x)), PAR, n_y)
        matrix, cond = op.matrix, op.factorization[-1]
        estimate = cond / float(abs(matrix).sum(axis=0).max())
        dense = matrix.toarray()
        inverse = np.linalg.inv(dense)
        # one refinement step: the inverse alone is accurate to about kappa * eps
        inverse += inverse @ (np.eye(len(dense)) - dense @ inverse)
        exact = np.max(np.sum(np.abs(inverse), axis=0))
        assert exact / 3 <= estimate <= exact * (1 + 1e-12)

    @pytest.mark.parametrize("pair, n_x, n_y", STATES, ids=IDS)
    def test_estimate_draws_nothing_from_the_global_stream(self, pair, n_x, n_y):
        estimates = []
        for seed in (3, 2024):
            np.random.seed(seed)
            before = np.random.get_state()
            estimates.append(pulled_back_operator(pair(make_grid(n_x)), PAR, n_y)
                             .factorization[-1])
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            assert np.array_equal(before[1], after[1])
        assert estimates[0] == estimates[1]


class TestAssembledStructure:
    """The LU ordering and fill follow the sparsity pattern alone, so the
    assembled pattern is pinned; its rows are the operators' own stencils."""

    @staticmethod
    def assembled(fh, n_y):
        op = pulled_back_operator(fh, PAR, n_y)
        matrix = diffraction._assemble(op)
        matrix.sum_duplicates()
        return op, matrix

    def test_pattern_depends_on_the_shape_only(self):
        g = make_grid(32)
        _, flat = self.assembled(unit_pair(g), 16)
        _, wavy = self.assembled(wavy_pair(g), 16)
        assert np.array_equal(flat.indptr, wavy.indptr)
        assert np.array_equal(flat.indices, wavy.indices)
        assert np.count_nonzero(flat.data == 0.0) == 5824

    @pytest.mark.parametrize("n, n_y, nnz", [(32, 16, 10944), (16, 8, 2656)])
    def test_nonzero_count(self, n, n_y, nnz):
        assert self.assembled(wavy_pair(make_grid(n)), n_y)[1].nnz == nnz

    @pytest.mark.parametrize("n", [16, 32, 128])
    def test_rows_apply_the_operators(self, n):
        g = make_grid(n)
        op, matrix = self.assembled(wavy_pair(g), n // 2)
        strip_p, strip_m = op.strips
        rng = np.random.default_rng(8)
        v_plus = StripField(strip_p, rng.standard_normal(strip_p.shape))
        v_minus = StripField(strip_m, rng.standard_normal(strip_m.shape))
        product = matrix @ np.concatenate([v_plus.values.ravel(), v_minus.values.ravel()])
        plus, minus = np.split(product, [v_plus.values.size])
        plus, minus = plus.reshape(strip_p.shape), minus.reshape(strip_m.shape)
        for rows, coeffs, fld in ((plus, op.plus_coeffs, v_plus),
                                  (minus, op.minus_coeffs, v_minus)):
            interior = apply_operator(coeffs, fld).values[:, 1:-1]
            assert np.max(np.abs(rows[:, 1:-1] - interior)) <= 1e-13 * np.max(np.abs(interior))

        def fft_flux(bc, fld):  # the x-derivative by FFT, not by the matrix's own entries
            tr = PeriodicFn(g, trace_values(fld, bc.edge))
            return bc.beta1 * spectral_derivative(tr, 1).values + bc.beta2 * trace_dy(fld, bc.edge)

        flux = fft_flux(op.plus_bc, v_plus) - fft_flux(op.minus_bc, v_minus)
        assert np.max(np.abs(minus[:, -1] - flux)) <= 1e-13 * np.max(np.abs(flux))

    @pytest.mark.parametrize("pair, nnz, lu_nnz", [(unit_pair, 5120, 26896),
                                                   (wavy_pair, 10944, 47698)])
    def test_factored_matrix_is_the_equilibrated_product(self, monkeypatch, pair, nnz, lu_nnz):
        # the reference is D A formed as a sparse product, which drops the flat
        # state's 5824 stored zeros; factoring them would raise its fill to 40217
        op = pulled_back_operator(pair(make_grid(32)), PAR, 16)
        factored = []
        true_splu = diffraction.spla.splu

        def recording_splu(matrix, **kwargs):
            factored.append(matrix)
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", recording_splu)
        d, lu, norm_inf, norm_1, cond = op.factorization
        matrix = op.matrix
        magnitude = abs(matrix)
        scale = sp.diags(1.0 / magnitude.max(axis=1).toarray().ravel())
        reference = (scale @ matrix).tocsc()
        (scaled,) = factored
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(scaled, name), getattr(reference, name))
        assert np.array_equal(d, scale.diagonal())
        assert scaled.nnz == nnz
        # with no stored zero to drop, D A keeps A's (the layout's) index arrays
        assert np.shares_memory(scaled.indices, matrix.indices) == (nnz == matrix.nnz)
        assert lu.L.nnz + lu.U.nnz == lu_nnz

        inverse = spla.LinearOperator(matrix.shape, matvec=lambda x: lu.solve(scale @ x),
                                      rmatvec=lambda x: scale @ lu.solve(x, trans="T"))
        estimate = float(magnitude.sum(axis=0).max()) * float(spla.onenormest(inverse, t=1))
        assert cond == estimate  # the same start vector and the same column sums
        assert norm_inf == float(magnitude.sum(axis=1).max())
        assert norm_1 == float(magnitude.sum(axis=0).max())


class TestLayout:
    """The pattern is computed once per strip shape, by one COO to CSC
    conversion, and each state gathers its values into it."""

    STATES = [(pair, n_x, n_y) for n_x, n_y in ((16, 8), (32, 16), (32, 12), (64, 32))
              for pair in (unit_pair, wavy_pair, pinched_pair)]
    IDS = [f"{pair.__name__}-{n_x}x{n_y}" for pair, n_x, n_y in STATES]

    @pytest.mark.parametrize("pair, n_x, n_y", STATES, ids=IDS)
    def test_refill_is_the_states_own_conversion(self, pair, n_x, n_y):
        g = make_grid(n_x)
        # the layout is built for another state of the shape and refilled here
        other = pulled_back_operator((wavy_pair if pair is unit_pair else unit_pair)(g), PAR, n_y)
        op = pulled_back_operator(pair(g), PAR, n_y)
        assert op.layout is other.layout
        refilled = op.matrix
        rows, cols = diffraction._pattern(*op.strips)
        fresh = sp.csc_matrix((diffraction._values(op), (rows, cols)),
                              shape=refilled.shape)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(refilled, name), getattr(fresh, name))
        # the entries are unique, so the conversion summed nothing
        assert np.array_equal(np.sort(op.layout.gather), np.arange(len(rows)))

    def test_operators_of_one_shape_share_read_only_index_arrays(self):
        g = make_grid(16)
        operators = [pulled_back_operator(pair(g), PAR, 8) for pair in (unit_pair, wavy_pair)]
        flat, wavy = (op.matrix for op in operators)
        for name in ("indices", "indptr"):
            assert np.shares_memory(getattr(flat, name), getattr(wavy, name))
            assert not getattr(flat, name).flags.writeable
        assert not np.shares_memory(flat.data, wavy.data)

    def test_layout_freed_with_the_last_operator_of_its_shape(self):
        g = make_grid(18)  # a shape no other test keeps
        gc.disable()
        try:
            first, second = (pulled_back_operator(pair(g), PAR, 9)
                             for pair in (unit_pair, wavy_pair))
            strips, layout = first.strips, weakref.ref(first.layout)
            matrix = first.matrix
            del first
            assert layout() is second.layout
            del second
            assert layout() is None
            assert strips not in diffraction._LAYOUTS
            assert matrix.indices.size == matrix.nnz  # a matrix keeps its index arrays
        finally:
            gc.enable()

    def test_a_run_converts_its_pattern_once(self, monkeypatch):
        builds, conversions = [], []
        true_build, true_csc = diffraction._build_layout, sp.csc_matrix

        def counting_build(strips):
            builds.append(strips)
            return true_build(strips)

        def counting_csc(arg, *args, **kwargs):
            conversions.append(isinstance(arg, tuple) and isinstance(arg[1], tuple))
            return true_csc(arg, *args, **kwargs)

        monkeypatch.setattr(diffraction, "_LAYOUTS", weakref.WeakValueDictionary())
        monkeypatch.setattr(diffraction, "_build_layout", counting_build)
        monkeypatch.setattr(diffraction.sp, "csc_matrix", counting_csc)
        traj = simulate(SimConfig(n_x=16, n_y=8, params=PAR, f0=WaveSpec(modes=((1, 0.05, 0.0),)),
                                  b=WaveSpec(const=1.0), t_end=0.3, dt_init=0.05, dt_max=0.1))
        assert traj.reason == "t_end" and len(traj.times) - 1 >= 3
        assert len(builds) == 1
        assert sum(conversions) == 1  # the layout's, of (values, (rows, columns))
        assert len(conversions) > traj.solver["solves"]  # every state assembled its matrix


class TestTransmissionOperator:
    def test_problems_on_one_operator_share_its_factorization(self, monkeypatch):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.3, gamma_h=0.2)
        fh = wavy_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, par, n_y=12)
        st = solve_potentials(fh, b, par, n_y=12, surface_tension=True)

        factorizations = []
        true_splu = diffraction.spla.splu

        def counting_splu(matrix, **kwargs):
            factorizations.append(matrix.shape)
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
        op = pulled_back_operator(fh, par, 12)
        shared_plain = op.potentials(b)
        shared_st = op.potentials(b, surface_tension=True)
        assert len(factorizations) == 1
        assert np.array_equal(shared_plain.v_plus.values, plain.v_plus.values)
        assert np.array_equal(shared_st.v_minus.values, st.v_minus.values)

    def test_data_must_match_operator_strips(self):
        g = make_grid(16)
        op = pulled_back_operator(wavy_pair(g), PAR, 12)
        other = StripGrid(g, 10, "plus")
        zero = constant_fn(g, 0.0)
        with pytest.raises(ValueError):
            DiffractionData(op, StripField(other, np.zeros(other.shape)),
                            StripField(op.strips[1], np.zeros(op.strips[1].shape)),
                            zero, zero, zero, zero)


class TestRefinementOnABase:
    """An operator with a base solves by iterative refinement on the base's
    factorization and factors its own matrix only when that fails."""

    @staticmethod
    def counting_splu(monkeypatch) -> list:
        calls = []
        true_splu = diffraction.spla.splu

        def counting(matrix, **kwargs):
            calls.append(matrix.shape)
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", counting)
        return calls

    @staticmethod
    def stage_pair(grid, step):
        # a wavy state moved by O(step), as an RK stage moves its step's start
        base = wavy_pair(grid)
        return InterfacePair(base.f + step * fn(grid, lambda x: np.cos(3 * x)),
                             base.h + step * fn(grid, lambda x: np.sin(2 * x)), base.d)

    @pytest.mark.parametrize("n_x, n_y", [(16, 8), (32, 16)])
    @pytest.mark.parametrize("step", [1e-3, 3e-2])
    def test_refined_stage_matches_its_direct_solve(self, n_x, n_y, step, monkeypatch):
        g = make_grid(n_x)
        b = constant_fn(g, 0.5)
        base = pulled_back_operator(wavy_pair(g), PAR, n_y)
        base.potentials(b)
        stage_fh = self.stage_pair(g, step)
        calls = self.counting_splu(monkeypatch)
        refined = pulled_back_operator(stage_fh, PAR, n_y).potentials(b, base=base)
        assert calls == []
        direct = pulled_back_operator(stage_fh, PAR, n_y).potentials(b)
        scale = max(np.max(np.abs(direct.v_plus.values)), np.max(np.abs(direct.v_minus.values)))
        for got, want in ((refined.v_plus, direct.v_plus), (refined.v_minus, direct.v_minus)):
            assert np.max(np.abs(got.values - want.values)) <= 1e-12 * scale
        assert direct.condition_estimate / 2 <= refined.condition_estimate
        assert refined.condition_estimate <= 2 * direct.condition_estimate

    def test_far_base_falls_back_to_a_factorization(self, monkeypatch):
        g = make_grid(16)
        b = constant_fn(g, 0.5)
        far = InterfacePair(fn(g, lambda x: 0.02 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        stage_fh = InterfacePair(fn(g, lambda x: 0.4 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        base = pulled_back_operator(far, PAR, 8)
        base.potentials(b)
        calls = self.counting_splu(monkeypatch)
        op = pulled_back_operator(stage_fh, PAR, 8)
        fallback = op.potentials(b, base=base)
        later = op.potentials(b, surface_tension=True, base=base)
        assert later.record.method == "direct"  # later problems use its own factor
        assert len(calls) == 1
        direct = pulled_back_operator(stage_fh, PAR, 8).potentials(b)
        assert np.array_equal(fallback.v_plus.values, direct.v_plus.values)
        assert fallback.condition_estimate == direct.condition_estimate

    def test_estimate_over_the_limit_lets_the_stage_factorization_decide(self, monkeypatch):
        # the refined estimate of this stage is 1.10 times its factorization's:
        # with the limit between the two, the stage factors and then passes
        g = make_grid(16)
        b = constant_fn(g, 0.5)
        base = pulled_back_operator(wavy_pair(g), PAR, 8)
        base.potentials(b)
        stage_fh = self.stage_pair(g, 3e-2)
        refined = pulled_back_operator(stage_fh, PAR, 8).potentials(b, base=base)
        own = pulled_back_operator(stage_fh, PAR, 8).potentials(b)
        assert own.condition_estimate < refined.condition_estimate
        limit = (own.condition_estimate + refined.condition_estimate) / 2
        monkeypatch.setattr(diffraction, "CONDITION_LIMIT", limit)
        calls = self.counting_splu(monkeypatch)
        decided = pulled_back_operator(stage_fh, PAR, 8).potentials(b, base=base)
        assert len(calls) == 1
        assert decided.condition_estimate == own.condition_estimate

    def test_nearly_touching_stage_still_fails_the_condition_guard(self, monkeypatch):
        g = make_grid(16)
        base = pulled_back_operator(InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1e-3),
                                                  -1.0), PAR, 12)
        base.potentials(constant_fn(g, 1.0))
        touching = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1e-9), -1.0)
        calls = self.counting_splu(monkeypatch)
        with pytest.raises(SolverFailure, match="ill-conditioned") as err:
            pulled_back_operator(touching, PAR, 12).potentials(constant_fn(g, 1.0), base=base)
        assert err.value.condition_estimate > 1e12
        assert len(calls) == 1

    def test_an_unfactored_base_is_refused_without_a_factorization(self, solve_counts):
        # a solve never factors its base: its own operator, a stage's base and
        # a base whose factorization failed all raise before any splu
        g = make_grid(16)
        b = constant_fn(g, 0.5)
        op = pulled_back_operator(wavy_pair(g), PAR, 12)
        with pytest.raises(ValueError, match="hold its factorization"):
            op.potentials(b, base=op)
        base = pulled_back_operator(wavy_pair(g), PAR, 12)
        stage = pulled_back_operator(self.stage_pair(g, 1e-3), PAR, 12)
        with pytest.raises(ValueError, match="hold its factorization"):
            stage.potentials(b, base=base)
        assert solve_counts["splu"] == 0
        assert not any("factorization" in vars(o) for o in (op, base, stage))
        touching = pulled_back_operator(
            InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1e-9), -1.0), PAR, 12)
        with pytest.raises(SolverFailure, match="ill-conditioned"):
            touching.potentials(b)
        with pytest.raises(ValueError, match="hold its factorization"):
            stage.potentials(b, base=touching)
        assert solve_counts["splu"] == 1  # the failed factorization of touching

    def test_base_must_share_the_strips(self):
        g = make_grid(16)
        base = pulled_back_operator(wavy_pair(g), PAR, 12)
        op = pulled_back_operator(wavy_pair(g), PAR, 10)
        with pytest.raises(ValueError, match="same strips"):
            op.potentials(constant_fn(g, 0.5), base=base)


def vector(solution):
    """A solution's unknowns in the node ordering of the assembled system."""
    return np.concatenate([solution.v_plus.values.ravel(), solution.v_minus.values.ravel()])


class TestPredictedStarts:
    """A refinement on a base may start from a predicted solution; every
    solution records how it was solved, and its corrections are the
    triangular solves it made."""

    ST = FluidParams(gamma_f=0.5, gamma_h=1.0)
    DT = 0.2  # a step that moves the wavy state by a few percent of its amplitude

    @staticmethod
    def moved(grid, c):
        # the wavy state after the fraction c of a step along a fixed direction
        base = wavy_pair(grid)
        return InterfacePair(base.f + c * fn(grid, lambda x: 0.1 * np.cos(3 * x)),
                             base.h + c * fn(grid, lambda x: 0.1 * np.sin(2 * x)), base.d)

    def stage(self, grid, c):
        return pulled_back_operator(self.moved(grid, c * self.DT), self.ST, 16)

    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_predicted_start_matches_the_direct_solve(self, surface_tension, solve_counts):
        g = make_grid(32)
        b = constant_fn(g, 0.5)
        base = pulled_back_operator(self.moved(g, 0.0), self.ST, 16)
        x0 = vector(base.potentials(b, surface_tension))
        x1 = vector(self.stage(g, 1 / 4).potentials(b, surface_tension, x0, base))
        start = x0 + (3 / 8) / (1 / 4) * (x1 - x0)  # the Fehlberg stage at c = 3/8
        solves = solve_counts["solves"]
        predicted = self.stage(g, 3 / 8).potentials(b, surface_tension, start, base)
        assert solve_counts["solves"] - solves == predicted.record.corrections
        cold = self.stage(g, 3 / 8).potentials(b, surface_tension, base=base)
        assert predicted.record.method == cold.record.method == "refined"
        assert predicted.record.fallback is None
        assert 0 < predicted.record.corrections <= cold.record.corrections
        assert solve_counts["splu"] == 1
        direct = pulled_back_operator(self.moved(g, 3 / 8 * self.DT), self.ST, 16).potentials(
            b, surface_tension)
        want = vector(direct)
        assert np.max(np.abs(vector(predicted) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_start_is_the_cold_refinement(self, solve_counts):
        g = make_grid(32)
        b = constant_fn(g, 0.5)
        base = pulled_back_operator(self.moved(g, 0.0), self.ST, 16)
        base.potentials(b)
        cold = self.stage(g, 1.0).potentials(b, base=base)
        zero = self.stage(g, 1.0).potentials(b, start=np.zeros(len(vector(cold))), base=base)
        assert np.array_equal(vector(zero), vector(cold))
        assert zero.record == cold.record
        assert zero.condition_estimate == cold.condition_estimate

    def test_far_start_reaches_epsilon_or_falls_back_once(self, solve_counts):
        g = make_grid(32)
        b = constant_fn(g, 0.5)
        base = pulled_back_operator(self.moved(g, 0.0), self.ST, 16)
        base.potentials(b)
        far = vector(solve_potentials(pinched_pair(g), constant_fn(g, 3.0), self.ST, 16))
        solves, splus = solve_counts["solves"], solve_counts["splu"]
        solution = self.stage(g, 1.0).potentials(b, start=far, base=base)
        record = solution.record
        assert solve_counts["solves"] - solves == record.corrections
        if record.method == "refined":
            assert solve_counts["splu"] == splus
        else:
            assert (record.method, solve_counts["splu"]) == ("factored", splus + 1)
            assert record.fallback in diffraction.FALLBACK_CAUSES
        direct = pulled_back_operator(self.moved(g, self.DT), self.ST, 16).potentials(b)
        want = vector(direct)
        assert np.max(np.abs(vector(solution) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_own_factor_stops_at_the_first_iterate_within_epsilon(self, solve_counts):
        # the plain factored solve of this state meets the epsilon stop, so the
        # factored solve makes one correction: one triangular solve and the
        # one residual product that judges it (the zero start's residual is b)
        g = make_grid(16)
        solution = pulled_back_operator(wavy_pair(g), PAR, 8).potentials(constant_fn(g, 0.5))
        assert solution.record == diffraction.SolveRecord("factored", 1)
        assert solve_counts == {"splu": 1, "solves": 1, "products": 1}

    def test_records_name_the_method_and_the_fallback(self, solve_counts):
        g = make_grid(16)
        b = constant_fn(g, 0.5)
        op = pulled_back_operator(wavy_pair(g), PAR, 8)
        first = op.potentials(b)
        garbage = np.full(len(vector(first)), np.nan)
        second = op.potentials(b, start=garbage)  # the own factor ignores a start
        assert first.record == diffraction.SolveRecord("factored", 1)
        assert second.record == diffraction.SolveRecord("direct", 1)
        assert np.array_equal(vector(first), vector(second))
        assert solve_counts["solves"] == 2
        far = InterfacePair(fn(g, lambda x: 0.4 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        stage = pulled_back_operator(far, PAR, 8)
        fallback = stage.potentials(b, base=op)
        assert fallback.record.method == "factored"
        assert fallback.record.fallback == "contraction"
        assert fallback.record.contraction > diffraction.REFINE_CONTRACTION_LIMIT
        assert solve_counts["solves"] == 2 + fallback.record.corrections
        # a factored operator solves on its own factor, whatever base it is given
        assert stage.potentials(b, base=op).record == diffraction.SolveRecord("direct", 1)
        nan_start = pulled_back_operator(wavy_pair(g), PAR, 8).potentials(
            b, start=garbage, base=op)
        assert nan_start.record.fallback == "non_finite"
        assert np.array_equal(vector(nan_start), vector(first))
        assert solve_counts["splu"] == 3


class TestSolvePotentials:
    def test_flat_matches_two_layer(self):
        g = make_grid(16)
        c = -0.5
        fh = unit_pair(g)
        sol = solve_potentials(fh, constant_fn(g, c), PAR, n_y=12)
        vp, vm, _ = two_layer_exact(g, StripGrid(g, 12, "plus"), StripGrid(g, 12, "minus"),
                                    PAR, c)
        assert np.max(np.abs(sol.v_plus.values - vp)) < 1e-11
        assert np.max(np.abs(sol.v_minus.values - vm)) < 1e-11

    def test_equilibrium_constants(self):
        g = make_grid(16)
        fh = unit_pair(g)
        grho = PAR.g * PAR.rho_plus
        sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        assert np.max(np.abs(sol.v_plus.values - grho)) < 1e-11
        assert np.max(np.abs(sol.v_minus.values - grho)) < 1e-11

    def test_zero_gravity_zero_data(self):
        g = make_grid(16)
        par = FluidParams(g=0.0)
        sol = solve_potentials(wavy_pair(g), constant_fn(g, 0.0), par, n_y=12)
        assert np.max(np.abs(sol.v_plus.values)) < 1e-10
        assert np.max(np.abs(sol.v_minus.values)) < 1e-10

    def test_jump_condition_residual(self):
        g = make_grid(32)
        fh = wavy_pair(g)
        sol = solve_potentials(fh, fn(g, lambda x: 0.5 + 0.1 * np.sin(x)), PAR, n_y=16)
        jump = sol.tr0_vplus.values - sol.tr0_vminus.values
        target = PAR.g * (PAR.rho_plus - PAR.rho_minus) * fh.f.values
        scale = max(1.0, np.max(np.abs(sol.v_plus.values)))
        assert np.max(np.abs(jump - target)) < 1e-10 * scale

    def test_flux_continuity_residual(self):
        g = make_grid(32)
        fh = wavy_pair(g)
        sol = solve_potentials(fh, fn(g, lambda x: 0.5 + 0.1 * np.sin(x)), PAR, n_y=16)
        flux_p = boundary_B_plus(fh, PAR, sol.v_plus).values
        flux_m = boundary_B_minus(fh, PAR, sol.v_minus).values
        scale = max(1.0, np.max(np.abs(flux_p)))
        assert np.max(np.abs(flux_p - flux_m)) < 1e-12 * scale

    def test_maximum_principle_flat(self):
        g = make_grid(16)
        fh = unit_pair(g)
        sol = solve_potentials(fh, constant_fn(g, 0.3), PAR, n_y=16)
        top = PAR.g * PAR.rho_plus
        vmax = max(np.max(sol.v_plus.values), np.max(sol.v_minus.values))
        vmin = min(np.min(sol.v_plus.values), np.min(sol.v_minus.values))
        assert vmax <= max(top, 0.3) + 1e-8
        assert vmin >= min(top, 0.3) - 1e-8

    def test_grid_convergence_manufactured_smooth(self):
        # continuum-manufactured harmonic pair: error decays at order 2
        errs = []
        for n in (16, 32, 64):
            g = make_grid(n)
            fh = InterfacePair(fn(g, lambda x: 0.2 * np.sin(x)), constant_fn(g, 1.0), -1.0)
            strip_p = StripGrid(g, n, "plus")
            strip_m = StripGrid(g, n, "minus")
            from muskatlab.operators import strip_heights
            m = 2
            up = np.exp(m * strip_heights(fh, strip_p)) * np.cos(m * g.nodes)[:, None]
            um = np.exp(m * strip_heights(fh, strip_m)) * np.cos(m * g.nodes)[:, None]
            v_plus = StripField(strip_p, up)
            v_minus = StripField(strip_m, um)
            op = pulled_back_operator(fh, PAR, n)
            bc_p, bc_m = op.plus_bc, op.minus_bc
            data = DiffractionData(
                operator=op,
                F_plus=StripField(strip_p, np.zeros(strip_p.shape)),
                F_minus=StripField(strip_m, np.zeros(strip_m.shape)),
                phi1=PeriodicFn(g, bc_p.apply(v_plus) - bc_m.apply(v_minus)),
                phi2=PeriodicFn(g, v_plus.values[:, 0] - v_minus.values[:, -1]),
                phi3=PeriodicFn(g, v_plus.values[:, -1]),
                phi4=PeriodicFn(g, v_minus.values[:, 0]),
            )
            sol = solve_general(data)
            errs.append(max(np.max(np.abs(sol.v_plus.values - up)),
                            np.max(np.abs(sol.v_minus.values - um))))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 2.0) < 0.4)

    def test_traces_recomputable(self):
        g = make_grid(16)
        fh = wavy_pair(g)
        sol = solve_potentials(fh, constant_fn(g, 0.5), PAR, n_y=12)
        from muskatlab.operators import trace_dy, trace_values
        assert np.array_equal(sol.tr0_vminus.values, trace_values(sol.v_minus, "top"))
        assert np.array_equal(sol.tr0_dy_vplus.values, trace_dy(sol.v_plus, "bottom"))


class TestSolvePotentialsST:
    def test_solution_records_surface_tension(self):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0)
        op = pulled_back_operator(wavy_pair(g), par, 12)
        assert op.potentials(constant_fn(g, 0.4), surface_tension=True).surface_tension
        assert not op.potentials(constant_fn(g, 0.4)).surface_tension

    def test_zero_gamma_reduces(self):
        g = make_grid(16)
        fh = wavy_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, PAR, n_y=12)
        st = solve_potentials(fh, b, PAR, n_y=12, surface_tension=True)
        assert np.max(np.abs(plain.v_plus.values - st.v_plus.values)) < 1e-12

    def test_flat_interfaces_reduce(self):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.5, gamma_h=0.2)
        fh = unit_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, par, n_y=12)
        st = solve_potentials(fh, b, par, n_y=12, surface_tension=True)
        assert np.max(np.abs(plain.v_plus.values - st.v_plus.values)) < 1e-11

    def test_small_amplitude_perturbation_matches_linearization(self):
        g = make_grid(32)
        par = FluidParams(gamma_f=0.3, gamma_h=0.0)
        base = unit_pair(g)
        b = constant_fn(g, 0.4)
        eps = 1e-4
        direction = fn(g, np.sin)
        pert = InterfacePair(base.f + eps * direction, base.h, -1.0)
        base_sol = solve_potentials(base, b, par, n_y=16, surface_tension=True)
        pert_sol = solve_potentials(pert, b, par, n_y=16, surface_tension=True)
        w_plus, w_minus = solve_linearized(base_sol, direction, constant_fn(g, 0.0))
        resid = np.max(np.abs(pert_sol.v_plus.values - base_sol.v_plus.values
                              - eps * w_plus.values))
        scale = eps * max(1.0, np.max(np.abs(w_plus.values)))
        assert resid < 50 * eps * scale  # O(eps^2) remainder


class TestLinearizedSolves:
    @pytest.mark.parametrize("with_st", [False, True])
    def test_zero_direction(self, with_st):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.2, gamma_h=0.1) if with_st else PAR
        fh = wavy_pair(g)
        solver = partial(solve_potentials, surface_tension=with_st)
        base_sol = solver(fh, constant_fn(g, 0.5), par, n_y=12)
        zero = constant_fn(g, 0.0)
        wp, wm = solve_linearized(base_sol, zero, zero)
        assert np.max(np.abs(wp.values)) < 1e-10
        assert np.max(np.abs(wm.values)) < 1e-10

    def test_flat_equilibrium_pure_jump(self):
        g = make_grid(16)
        fh = unit_pair(g)
        grho = PAR.g * PAR.rho_plus
        base_sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        direction = fn(g, np.sin)
        wp, wm = solve_linearized(base_sol, direction, constant_fn(g, 0.0))
        # interface jump imposed, outer data zero
        jump = wp.values[:, 0] - wm.values[:, -1]
        target = PAR.g * (PAR.rho_plus - PAR.rho_minus) * direction.values
        assert np.max(np.abs(jump - target)) < 1e-10
        assert np.max(np.abs(wp.values[:, -1])) < 1e-12
        assert np.max(np.abs(wm.values[:, 0])) < 1e-12

    @pytest.mark.parametrize("which", ["f", "h"])
    @pytest.mark.parametrize("with_st", [False, True])
    def test_finite_difference_oracle(self, which, with_st):
        g = make_grid(32)
        rng = np.random.default_rng(41)
        par = FluidParams(gamma_f=0.25, gamma_h=0.15) if with_st else PAR
        fh = wavy_pair(g)
        b = fn(g, lambda x: 0.5 + 0.2 * np.cos(x))
        direction = PeriodicFn(g, rng.standard_normal(g.n_x))
        solver = partial(solve_potentials, surface_tension=with_st)
        base_sol = solver(fh, b, par, n_y=16)
        zero = constant_fn(g, 0.0)
        delta = (direction, zero) if which == "f" else (zero, direction)
        wp, wm = solve_linearized(base_sol, *delta)

        def perturbed(eps):
            if which == "f":
                pert = InterfacePair(fh.f + eps * direction, fh.h, fh.d)
            else:
                pert = InterfacePair(fh.f, fh.h + eps * direction, fh.d)
            return solver(pert, b, par, n_y=16)

        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            sol = perturbed(eps)
            err_p = np.max(np.abs((sol.v_plus.values - base_sol.v_plus.values) / eps
                                  - wp.values))
            err_m = np.max(np.abs((sol.v_minus.values - base_sol.v_minus.values) / eps
                                  - wm.values))
            errs.append(max(err_p, err_m))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 1.0) < 0.25)

    def test_flat_equilibrium_h_direction(self):
        g = make_grid(16)
        fh = unit_pair(g)
        grho = PAR.g * PAR.rho_plus
        base_sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        direction = fn(g, np.cos)
        wp, wm = solve_linearized(base_sol, constant_fn(g, 0.0), direction)
        assert np.max(np.abs(wp.values[:, -1] - grho * direction.values)) < 1e-11
        assert np.max(np.abs(wm.values[:, 0])) < 1e-12


class TestComplementing:
    def test_laplacian_pair_tau0(self):
        rep = check_complementing((1, 1), (0, 0), (1, 1), (0, 0), (1, 1), xi=1.0, tau=0.0)
        assert np.array_equal(rep.delta2, (1.0, 1.0))
        assert abs(rep.quantity - 2.0) < 1e-14
        assert rep.satisfied

    def test_laplacian_pair_tau1(self):
        rep = check_complementing((1, 1), (0, 0), (1, 1), (0, 0), (1, 1), xi=1.0, tau=1.0)
        assert abs(rep.quantity - 2.0) < 1e-14

    @staticmethod
    def random_elliptic_cases(rng, n):
        a11 = rng.uniform(0.1, 5.0, (n, 2))
        a22 = rng.uniform(0.1, 5.0, (n, 2))
        a12 = rng.uniform(-0.99, 0.99, (n, 2)) * np.sqrt(a11 * a22)
        beta2 = rng.uniform(0.05, 5.0, (n, 2))
        beta1 = rng.uniform(-3.0, 3.0, (n, 2))
        xi = rng.uniform(-4.0, 4.0, n)
        xi[xi == 0] = 1.0
        tau = rng.uniform(0.0, 1.0, n)
        return a11, a12, a22, beta1, beta2, xi, tau

    def test_random_elliptic_sweep(self):
        rep = check_complementing(*self.random_elliptic_cases(np.random.default_rng(53), 2000))
        assert rep.quantity.shape == (2000,)
        assert np.all(rep.quantity > 0)

    def test_batch_matches_single_cases(self):
        cases = self.random_elliptic_cases(np.random.default_rng(59), 50)
        batch = check_complementing(*cases)
        for i in range(50):
            single = check_complementing(*(c[i] for c in cases))
            assert abs(batch.quantity[i] - single.quantity) <= 1e-15 * single.quantity
            assert np.all(np.abs(batch.delta2[i] - single.delta2) <= 1e-15 * single.delta2)

    @pytest.mark.parametrize("case", [
        dict(a12=(2, 0)),
        dict(beta2=(-1, 1)),
        dict(xi=0.0),
        dict(xi=np.nan),
        dict(xi=np.inf),
        dict(beta2=(1, np.inf)),
        dict(beta2=(np.nan, 1)),
        dict(xi=[1.0, -2.0, 0.0, 3.0]),
        dict(beta2=[(1, 1), (1, 1), (1, np.inf)], xi=[1.0, 2.0, 3.0]),
    ], ids=["mixed-term", "negative-beta2", "zero-xi", "nan-xi", "inf-xi", "inf-beta2",
            "nan-beta2", "zero-xi-in-batch", "inf-beta2-in-batch"])
    def test_non_elliptic_rejected(self, case):
        args = dict(a11=(1, 1), a12=(0, 0), a22=(1, 1), beta1=(0, 0), beta2=(1, 1),
                    xi=1.0, tau=0.0)
        with pytest.raises(ValueError):
            check_complementing(**{**args, **case})
