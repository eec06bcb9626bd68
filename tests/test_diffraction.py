import gc
import weakref

import numpy as np
import pytest

import muskatlab.diffraction as diffraction
from muskatlab.diffraction import (
    DiffractionData,
    SolverFailure,
    check_complementing,
    pulled_back_operator,
    solve_general,
    solve_linearized,
    solve_potentials,
    solve_potentials_st,
)
from muskatlab.geometry import (
    InterfacePair,
    PeriodicFn,
    constant_fn,
    from_callable,
    make_grid,
)
from muskatlab.operators import (
    FluidParams,
    StripField,
    StripGrid,
    apply_operator,
    boundary_B_minus,
    boundary_B_plus,
)

PAR = FluidParams()


def fn(grid, func):
    return from_callable(grid, func)


def unit_pair(grid):
    return InterfacePair(constant_fn(grid, 0.0), constant_fn(grid, 1.0), -1.0)


def wavy_pair(grid):
    f = fn(grid, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x))
    h = fn(grid, lambda x: 1.0 + 0.1 * np.cos(x))
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
        dense = data.operator.factorization[0].toarray()
        reference = np.linalg.solve(dense, diffraction._rhs(data))
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
        exact = np.linalg.cond(dense, 1)
        cond = data.operator.factorization[-1]
        assert exact / 3 <= cond <= exact * (1 + 1e-8)

    def test_fill(self):
        g = make_grid(32)
        lu = pulled_back_operator(wavy_pair(g), PAR, 16).factorization[2]
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

    def test_rows_apply_the_operators(self):
        g = make_grid(32)
        op, matrix = self.assembled(wavy_pair(g), 16)
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
        flux = op.plus_bc.apply(v_plus) - op.minus_bc.apply(v_minus)
        assert np.max(np.abs(minus[:, -1] - flux)) <= 1e-13 * np.max(np.abs(flux))


class TestTransmissionOperator:
    def test_problems_on_one_operator_share_its_factorization(self, monkeypatch):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.3, gamma_h=0.2)
        fh = wavy_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, par, n_y=12)
        st = solve_potentials_st(fh, b, par, n_y=12)

        factorizations = []
        true_splu = diffraction.spla.splu

        def counting_splu(matrix, **kwargs):
            factorizations.append(matrix.shape)
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
        op = pulled_back_operator(fh, par, 12)
        pose = diffraction._potential_data
        shared_plain = solve_general(pose(op, fh, b, par))
        shared_st = solve_general(pose(op, fh, b, par, surface_tension=True))
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
    def test_zero_gamma_reduces(self):
        g = make_grid(16)
        fh = wavy_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, PAR, n_y=12)
        st = solve_potentials_st(fh, b, PAR, n_y=12)
        assert np.max(np.abs(plain.v_plus.values - st.v_plus.values)) < 1e-12

    def test_flat_interfaces_reduce(self):
        g = make_grid(16)
        par = FluidParams(gamma_f=0.5, gamma_h=0.2)
        fh = unit_pair(g)
        b = constant_fn(g, 0.4)
        plain = solve_potentials(fh, b, par, n_y=12)
        st = solve_potentials_st(fh, b, par, n_y=12)
        assert np.max(np.abs(plain.v_plus.values - st.v_plus.values)) < 1e-11

    def test_small_amplitude_perturbation_matches_linearization(self):
        g = make_grid(32)
        par = FluidParams(gamma_f=0.3, gamma_h=0.0)
        base = unit_pair(g)
        b = constant_fn(g, 0.4)
        eps = 1e-4
        direction = fn(g, np.sin)
        pert = InterfacePair(base.f + eps * direction, base.h, -1.0)
        base_sol = solve_potentials_st(base, b, par, n_y=16)
        pert_sol = solve_potentials_st(pert, b, par, n_y=16)
        w_plus, w_minus = solve_linearized(base, base_sol, direction, constant_fn(g, 0.0), par,
                                           with_surface_tension=True)
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
        solver = solve_potentials_st if with_st else solve_potentials
        base_sol = solver(fh, constant_fn(g, 0.5), par, n_y=12)
        zero = constant_fn(g, 0.0)
        wp, wm = solve_linearized(fh, base_sol, zero, zero, par, with_st)
        assert np.max(np.abs(wp.values)) < 1e-10
        assert np.max(np.abs(wm.values)) < 1e-10

    def test_flat_equilibrium_pure_jump(self):
        g = make_grid(16)
        fh = unit_pair(g)
        grho = PAR.g * PAR.rho_plus
        base_sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        direction = fn(g, np.sin)
        wp, wm = solve_linearized(fh, base_sol, direction, constant_fn(g, 0.0), PAR)
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
        solver = solve_potentials_st if with_st else solve_potentials
        base_sol = solver(fh, b, par, n_y=16)
        zero = constant_fn(g, 0.0)
        delta = (direction, zero) if which == "f" else (zero, direction)
        wp, wm = solve_linearized(fh, base_sol, *delta, par, with_st)

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
        wp, wm = solve_linearized(fh, base_sol, constant_fn(g, 0.0), direction, PAR)
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
