import numpy as np
import pytest
from scipy.integrate import solve_ivp

import muskatlab.diffraction as diffraction
import muskatlab.evolution as evolution
from muskatlab.config import SimConfig, WaveSpec
from muskatlab.diffraction import solve_potentials
from muskatlab.evolution import (
    SimState,
    StepRejected,
    dealias,
    fit_mode_rate,
    linearized_matrix,
    mode_amplitude,
    phi,
    pressures,
    rayleigh_taylor,
    simulate,
    step,
)
from muskatlab.geometry import InterfacePair, PeriodicFn, constant_fn, from_callable, make_grid
from muskatlab.operators import FluidParams, strip_heights

PAR = FluidParams()


def fn(grid, func):
    return from_callable(grid, func)


def flat_pair(grid, f0=0.0, h0=1.0, d=-1.0):
    return InterfacePair(constant_fn(grid, f0), constant_fn(grid, h0), d)


class TestPhi:
    def test_flat_constant_pressure(self):
        g = make_grid(32)
        fh = flat_pair(g)
        c = 0.25
        df, dh = phi(fh, constant_fn(g, c), PAR, n_y=16)
        target = -PAR.k * (PAR.g * PAR.rho_plus - c) / (PAR.mu_plus + PAR.mu_minus)
        assert np.max(np.abs(df.values - target)) < 1e-11
        assert np.max(np.abs(dh.values - target)) < 1e-11

    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_flat_equilibrium(self, surface_tension):
        g = make_grid(64)
        par = FluidParams(gamma_f=0.5, gamma_h=0.5) if surface_tension else PAR
        fh = flat_pair(g)
        b = constant_fn(g, par.g * par.rho_plus)
        df, dh = phi(fh, b, par, surface_tension, n_y=24)
        assert np.max(np.abs(df.values)) < 1e-9
        assert np.max(np.abs(dh.values)) < 1e-9

    def test_zero_gravity_zero_pressure(self):
        g = make_grid(32)
        par = FluidParams(g=0.0)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        df, dh = phi(fh, constant_fn(g, 0.0), par, n_y=16)
        assert np.max(np.abs(df.values)) < 1e-10
        assert np.max(np.abs(dh.values)) < 1e-10

    def test_translation_equivariance(self):
        g = make_grid(32)
        fh = InterfacePair(fn(g, lambda x: 0.15 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(2 * x)), -1.0)
        b = fn(g, lambda x: 0.4 + 0.1 * np.sin(x))
        df, dh = phi(fh, b, PAR, n_y=16)
        shifted = InterfacePair(PeriodicFn(g, np.roll(fh.f.values, 1)),
                                PeriodicFn(g, np.roll(fh.h.values, 1)), -1.0)
        df_s, dh_s = phi(shifted, PeriodicFn(g, np.roll(b.values, 1)), PAR, n_y=16)
        assert np.max(np.abs(df_s.values - np.roll(df.values, 1))) < 1e-9
        assert np.max(np.abs(dh_s.values - np.roll(dh.values, 1))) < 1e-9

    def test_reflection_symmetry(self):
        g = make_grid(32)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.cos(x)),
                           fn(g, lambda x: 1.0 + 0.05 * np.cos(2 * x)), -1.0)
        b = fn(g, lambda x: 0.3 + 0.2 * np.cos(x))
        df, dh = phi(fh, b, PAR, n_y=16)
        for vals in (df.values, dh.values):
            mirrored = np.concatenate(([vals[0]], vals[1:][::-1]))
            assert np.max(np.abs(vals - mirrored)) < 1e-9

    def test_time_dependent_bottom_pressure_rejected(self):
        g = make_grid(16)
        with pytest.raises(TypeError, match="evaluate a time-dependent b"):
            phi(flat_pair(g), lambda t: constant_fn(g, 0.2 + t), PAR, n_y=12)


class TestPressures:
    def test_zero_gravity(self):
        g = make_grid(16)
        par = FluidParams(g=0.0)
        fh = flat_pair(g)
        sol = solve_potentials(fh, constant_fn(g, 0.5), par, n_y=12)
        p_plus, p_minus = pressures(sol, fh, par)
        assert np.array_equal(p_plus.values, sol.v_plus.values)
        assert np.array_equal(p_minus.values, sol.v_minus.values)

    def test_flat_equilibrium_hydrostatic(self):
        g = make_grid(16)
        fh = flat_pair(g)
        grho = PAR.g * PAR.rho_plus
        sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        p_plus, _ = pressures(sol, fh, PAR)
        y_phys = strip_heights(fh, sol.v_plus.strip)
        assert np.max(np.abs(p_plus.values - grho * (1.0 - y_phys))) < 1e-10
        assert np.min(p_plus.values) > -1e-10


class TestRayleighTaylor:
    def test_flat_closed_form(self):
        g = make_grid(32)
        rep = rayleigh_taylor(flat_pair(g), constant_fn(g, 0.0), PAR, n_y=16)
        assert abs(rep.margin_f - 1.0) < 1e-10
        assert abs(rep.margin_h - 0.5) < 1e-10
        assert rep.satisfied

    def test_equal_viscosity_density_ordering(self):
        g = make_grid(32)
        par = FluidParams(rho_minus=1.0, rho_plus=1.5)
        b = constant_fn(g, par.g * par.rho_plus)
        rep = rayleigh_taylor(flat_pair(g), b, par, n_y=16)
        assert rep.margin_f <= 1e-10
        assert not rep.satisfied

    def test_large_negative_bottom_pressure(self):
        g = make_grid(32)
        par = FluidParams(mu_minus=0.5, mu_plus=2.0)
        c = -10.0  # g rho_+ < -c mu_+ / mu_- = 20 -> top margin negative
        rep = rayleigh_taylor(flat_pair(g), constant_fn(g, c), par, n_y=16)
        t = (par.g * par.rho_plus - c) / (par.mu_plus + par.mu_minus)
        assert abs(rep.margin_h - (par.g * par.rho_plus - par.mu_plus * t)) < 1e-9
        assert rep.margin_h < 0

    def test_random_draws_match_closed_form(self):
        rng = np.random.default_rng(113)
        g = make_grid(16)
        done = 0
        while done < 50:
            par = FluidParams(k=rng.uniform(0.2, 4.0), mu_minus=rng.uniform(0.2, 4.0),
                              mu_plus=rng.uniform(0.2, 4.0), rho_minus=rng.uniform(0, 3),
                              rho_plus=rng.uniform(0, 3), g=rng.uniform(0.1, 2.0))
            c = rng.uniform(-3.0, 3.0)
            t = (par.g * par.rho_plus - c) / (par.mu_plus + par.mu_minus)
            mf = par.g * (par.rho_minus - par.rho_plus) - (par.mu_minus - par.mu_plus) * t
            mh = par.g * par.rho_plus - par.mu_plus * t
            if min(abs(mf), abs(mh)) < 1e-4:
                continue  # avoid sign tests on the boundary of the regime
            rep = rayleigh_taylor(flat_pair(g), constant_fn(g, c), par, n_y=12)
            assert abs(rep.margin_f - mf) < 1e-6
            assert abs(rep.margin_h - mh) < 1e-6
            assert np.sign(rep.margin_f) == np.sign(mf)
            assert np.sign(rep.margin_h) == np.sign(mh)
            done += 1

    def test_bottom_height_read_from_the_pair(self):
        # FluidParams() has d = -1; the lower layer of this pair is 2 thick
        g = make_grid(16)
        c = 0.25
        rep = rayleigh_taylor(flat_pair(g, d=-2.0), constant_fn(g, c), PAR, n_y=12)
        t = (PAR.g * PAR.rho_plus - c) / (PAR.mu_plus * 1.0 + PAR.mu_minus * 2.0)
        assert abs(rep.margin_h - (PAR.g * PAR.rho_plus - PAR.mu_plus * t)) < 1e-9
        assert abs(rep.margin_h - 0.75) < 1e-9
        mf = PAR.g * (PAR.rho_minus - PAR.rho_plus) - (PAR.mu_minus - PAR.mu_plus) * t
        assert abs(rep.margin_f - mf) < 1e-9

    def test_time_dependent_bottom_pressure_evaluated_by_caller(self):
        g = make_grid(16)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)), constant_fn(g, 1.0), -1.0)

        def b(t):
            return fn(g, lambda x: 0.2 + t + 0.1 * np.cos(x))

        with pytest.raises(TypeError):
            rayleigh_taylor(fh, b, PAR, n_y=12)
        assert rayleigh_taylor(fh, b(0.5), PAR, n_y=12) != rayleigh_taylor(fh, b(0.0), PAR, n_y=12)


class TestStep:
    def test_zero_dt_identity(self):
        g = make_grid(16)
        state = SimState(0.0, flat_pair(g))
        new_state, err = step(state, 0.0, constant_fn(g, 0.3), PAR, n_y=12)
        assert np.array_equal(new_state.fh.f.values, state.fh.f.values)
        assert err == 0.0

    def test_equilibrium_unchanged(self):
        g = make_grid(32)
        state = SimState(0.0, flat_pair(g))
        b = constant_fn(g, PAR.g * PAR.rho_plus)
        new_state, err = step(state, 0.1, b, PAR, n_y=16)
        assert np.max(np.abs(new_state.fh.f.values)) < 1e-12
        assert np.max(np.abs(new_state.fh.h.values - 1.0)) < 1e-12
        assert err < 1e-12

    def test_fifth_order_against_scalar_oracle(self):
        # flat interfaces move rigidly; the reduced scalar law is integrated
        # to high accuracy with an independent solver
        g = make_grid(16)
        c = 0.25
        b = constant_fn(g, c)

        def sigma(offset):
            num = PAR.g * PAR.rho_plus * (1.0 + offset) - c + offset
            den = PAR.mu_plus * 1.0 + PAR.mu_minus * (1.0 + offset)
            return PAR.k * num / den

        errs = []
        dts = (0.4, 0.2, 0.1)
        for dt in dts:
            state = SimState(0.0, flat_pair(g))
            new_state, _ = step(state, dt, b, PAR, n_y=12)
            oracle = solve_ivp(lambda t, y: -sigma(y[0]), (0, dt), [0.0],
                               rtol=1e-12, atol=1e-14)
            errs.append(abs(new_state.fh.f.values[0] - oracle.y[0, -1]))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(slopes > 4.3)

    def test_stage_leaving_admissible_set_rejected(self):
        g = make_grid(16)
        par = FluidParams(rho_minus=0.0, rho_plus=5.0, g=2.0)
        state = SimState(0.0, InterfacePair(constant_fn(g, 0.0),
                                            constant_fn(g, 0.02), -1.0))
        # strong downward drive collapses the thin upper layer within one
        # large step
        with pytest.raises(StepRejected):
            step(state, 50.0, constant_fn(g, -40.0), par, n_y=12)

    def test_nonfinite_stage_rejected(self):
        g = make_grid(16)
        huge = constant_fn(g, 1e308)
        state = SimState(0.0, flat_pair(g), slope=(huge, huge))
        with np.errstate(over="ignore"), pytest.raises(StepRejected):
            step(state, 10.0, constant_fn(g, 1.0), PAR, n_y=12)


class TestDealias:
    def test_zeroes_high_modes_only(self):
        g = make_grid(32)
        u = fn(g, lambda x: np.sin(2 * x) + 0.5 * np.cos(13 * x))
        out = dealias(u)
        assert mode_amplitude(out.values, 2) == pytest.approx(1.0, abs=1e-12)
        assert mode_amplitude(out.values, 13) < 1e-14


class TestSimulate:
    def test_flat_equilibrium_trajectory(self):
        cfg = SimConfig(n_x=64, n_y=16, params=PAR, h0=WaveSpec(const=1.0),
                        b=WaveSpec(const=PAR.g * PAR.rho_plus), t_end=1.0,
                        dt_init=0.05, dt_max=0.25)
        traj = simulate(cfg)
        assert traj.reason == "t_end"
        assert max(np.max(np.abs(f)) for f in traj.f_values) < 1e-8
        assert max(np.max(np.abs(h - 1.0)) for h in traj.h_values) < 1e-8
        assert all(r.satisfied for r in traj.rt_reports)
        assert np.all(np.diff(traj.times) > 0)

    def test_rt_violated_stops_immediately(self):
        par = FluidParams(rho_minus=1.0, rho_plus=2.0)
        cfg = SimConfig(n_x=32, n_y=12, params=par,
                        b=WaveSpec(const=par.g * par.rho_plus), t_end=1.0,
                        stop_on_rt=True)
        traj = simulate(cfg)
        assert traj.reason == "rt_violated"
        assert len(traj.times) == 1 and traj.times[0] == 0.0

    @pytest.mark.parametrize("m", [3, 4])
    def test_single_mode_decay_rate(self, m):
        rate_target = -m / (2 * np.tanh(m))
        t_end = 1.3 / abs(rate_target)
        cfg = SimConfig(n_x=64, n_y=32, params=PAR,
                        f0=WaveSpec(modes=((m, 0.0, 1e-4),)),
                        b=WaveSpec(const=PAR.g * PAR.rho_plus),
                        t_end=t_end, rtol=1e-7, atol=1e-12, dt_init=0.01,
                        dt_max=0.1)
        traj = simulate(cfg)
        assert traj.reason == "t_end"
        amps = [mode_amplitude(f, m) for f in traj.f_values]
        rate, r2 = fit_mode_rate(traj.times, amps)
        assert r2 > 0.999
        assert abs(rate - rate_target) < 0.05 * abs(rate_target)

    def test_reversed_density_growth(self):
        par = FluidParams(rho_minus=1.0, rho_plus=2.0)
        m = 2
        cfg = SimConfig(n_x=32, n_y=16, params=par,
                        f0=WaveSpec(modes=((m, 0.0, 1e-4),)),
                        b=WaveSpec(const=par.g * par.rho_plus),
                        t_end=0.4, rtol=1e-7, atol=1e-12, dt_init=0.01, dt_max=0.1)
        traj = simulate(cfg)
        amps = [mode_amplitude(f, m) for f in traj.f_values]
        assert amps[-1] > 1.3 * amps[0]
        rate, _ = fit_mode_rate(traj.times, amps, efolds=0.25)
        assert rate > 0


    def test_fingering_not_stopped_by_backward_stable_solve(self):
        # near t = 0.337 the solves are backward stable (backward error ~1e-16)
        # but their residual exceeds 1e-10 of max(|b|, |x|): ||A|| ~ 1e6 here
        par = FluidParams(rho_minus=1.0, rho_plus=3.0, g=5.0)
        cfg = SimConfig(n_x=16, n_y=8, params=par, f0=WaveSpec(modes=((2, 0.0, 0.05),)),
                        b=WaveSpec(const=15.0), t_end=0.35, dt_max=0.5)
        traj = simulate(cfg)
        assert traj.reason == "t_end"


class TestSurfaceTension:
    def test_equilibrium_stationary_with_gamma(self):
        par = FluidParams(gamma_f=0.5, gamma_h=1.0)
        cfg = SimConfig(n_x=32, n_y=12, params=par,
                        b=WaveSpec(const=par.g * par.rho_plus), t_end=0.02,
                        dt_init=1e-3, dt_max=0.01, surface_tension=True)
        traj = simulate(cfg)
        assert traj.reason == "t_end"
        assert max(np.max(np.abs(f)) for f in traj.f_values) < 1e-10
        assert max(np.max(np.abs(h - 1.0)) for h in traj.h_values) < 1e-10

    def test_h_mode_cubic_scaling(self):
        # pure surface tension: gravity off, lower tension off, so the upper
        # interface decouples and decays at the cubic-symbol rate
        par = FluidParams(g=0.0, gamma_f=0.0, gamma_h=1.0)
        rates = {}
        for m in (2, 4, 8):
            predicted = m**3 / np.tanh(2 * m)
            t_end = 1.3 / predicted
            cfg = SimConfig(n_x=32, n_y=24, params=par,
                            h0=WaveSpec(const=1.0, modes=((m, 0.0, 1e-4),)),
                            b=WaveSpec(const=0.0), t_end=t_end, rtol=1e-7,
                            atol=1e-13, dt_init=t_end / 100, dt_max=t_end / 10,
                            cfl_st=2.0, surface_tension=True)
            traj = simulate(cfg)
            assert traj.reason == "t_end"
            amps = [mode_amplitude(h, m) for h in traj.h_values]
            rate, r2 = fit_mode_rate(traj.times, amps)
            assert r2 > 0.999
            rates[m] = -rate
        slope_24 = np.log2(rates[4] / rates[2]) / np.log2(2.0)
        slope_48 = np.log2(rates[8] / rates[4]) / np.log2(2.0)
        assert abs(slope_24 - 3.0) < 0.2
        assert abs(slope_48 - 3.0) < 0.2


class TestLinearizedMatrix:
    def test_first_diagonal_matches_symbol(self):
        g = make_grid(64)
        fh = flat_pair(g)
        b = constant_fn(g, PAR.g * PAR.rho_plus)
        for m in (1, 2):
            mat = linearized_matrix(fh, b, PAR, [m], n_y=32)[0]
            target = -m / (2 * np.tanh(m))
            assert abs(mat[0, 0] - target) < 0.02 * abs(target)

    def test_cross_coupling_matches_transmission_solution(self):
        # both off-diagonal entries equal -m/(2 sinh m) for these parameters
        g = make_grid(64)
        fh = flat_pair(g)
        b = constant_fn(g, PAR.g * PAR.rho_plus)
        for m in (1, 3):
            mat = linearized_matrix(fh, b, PAR, [m], n_y=32)[0]
            target = -m / (2 * np.sinh(m))
            assert abs(mat[0, 1] - target) < 0.02 * max(abs(target), 0.01)
            assert abs(mat[1, 0] - target) < 0.02 * max(abs(target), 0.01)

    def test_second_diagonal_carries_strip_coupling(self):
        # the top interface couples through the lower strip: the full-depth
        # combination tanh(2m) replaces tanh(m) of the decoupled model
        g = make_grid(64)
        fh = flat_pair(g)
        b = constant_fn(g, PAR.g * PAR.rho_plus)
        for m in (1, 2, 3):
            mat = linearized_matrix(fh, b, PAR, [m], n_y=32)[0]
            target = -PAR.g * PAR.rho_plus * m / np.tanh(2 * m)
            assert abs(mat[1, 1] - target) < 0.02 * abs(target)

    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_matches_central_difference_of_phi(self, surface_tension):
        g = make_grid(32)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0) if surface_tension else PAR
        fh = flat_pair(g)
        b = constant_fn(g, 0.25)  # off equilibrium: the base flow moves both interfaces
        modes = (1, 8)
        mats = linearized_matrix(fh, b, par, modes, surface_tension, n_y=16)
        assert mats.shape == (2, 2, 2)
        eps = 1e-6
        for m, mat in zip(modes, mats):
            sine = np.sin(m * g.nodes)
            oracle = np.empty((2, 2))
            for col in range(2):
                moved = [constant_fn(g, 0.0), constant_fn(g, 0.0)]
                moved[col] = PeriodicFn(g, eps * sine)
                up = phi(InterfacePair(fh.f + moved[0], fh.h + moved[1], fh.d), b, par,
                         surface_tension, n_y=16)
                down = phi(InterfacePair(fh.f - moved[0], fh.h - moved[1], fh.d), b, par,
                           surface_tension, n_y=16)
                for row in range(2):
                    rate = (up[row].values - down[row].values) / (2 * eps)
                    oracle[row, col] = 2.0 / g.n_x * float(rate @ sine)
            assert np.max(np.abs(mat - oracle)) <= 1e-6 * np.max(np.abs(oracle))

    def test_one_factorization_for_all_modes(self, monkeypatch):
        g = make_grid(32)
        fh = flat_pair(g)
        b = constant_fn(g, PAR.g * PAR.rho_plus)
        factorizations = []
        true_splu = diffraction.spla.splu

        def counting_splu(matrix, **kwargs):
            factorizations.append(matrix.shape)
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
        with pytest.raises(ValueError):
            linearized_matrix(fh, b, PAR, [1, 16], n_y=16)
        assert factorizations == []  # every mode is checked before the first solve
        mats = linearized_matrix(fh, b, PAR, range(1, 9), n_y=16)
        assert mats.shape == (8, 2, 2)
        assert len(factorizations) == 1

        base = solve_potentials(fh, b, PAR, n_y=16)
        assert len(factorizations) == 2
        direction = fn(g, np.sin)
        zero = constant_fn(g, 0.0)
        diffraction.solve_linearized(fh, base, direction, zero, PAR)
        diffraction.solve_linearized(fh, base, zero, direction, PAR)
        assert len(factorizations) == 2

    def test_nonflat_base_rejected(self):
        g = make_grid(32)
        fh = InterfacePair(fn(g, lambda x: 0.01 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        with pytest.raises(ValueError):
            linearized_matrix(fh, constant_fn(g, 1.0), PAR, [1])

    def test_bad_mode_rejected(self):
        g = make_grid(32)
        fh = flat_pair(g)
        b = constant_fn(g, 1.0)
        with pytest.raises(ValueError):
            linearized_matrix(fh, b, PAR, [0])
        with pytest.raises(ValueError):
            linearized_matrix(fh, b, PAR, [16])

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_sign_dichotomy_matches_symbols(self, m):
        g = make_grid(32)
        b_eq = PAR.g * PAR.rho_plus
        mat = linearized_matrix(flat_pair(g), constant_fn(g, b_eq), PAR, [m], n_y=16)[0]
        assert mat[0, 0] < 0 and mat[1, 1] < 0
        par_rev = FluidParams(rho_minus=1.0, rho_plus=2.0)
        mat_rev = linearized_matrix(flat_pair(g), constant_fn(g, par_rev.g * par_rev.rho_plus),
                                    par_rev, [m], n_y=16)[0]
        assert mat_rev[0, 0] > 0


class TestGeometryReuse:
    def test_interface_derivatives_taken_once_per_pair(self, monkeypatch):
        import muskatlab.geometry as geometry
        import muskatlab.operators as operators

        g = make_grid(16)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
        derived, differentiated = [], []
        true_derivative = geometry.spectral_derivative

        def counting(record):
            def spectral_derivative(u, order):
                record.append(u)
                return true_derivative(u, order)
            return spectral_derivative

        monkeypatch.setattr(geometry, "spectral_derivative", counting(derived))
        monkeypatch.setattr(operators, "spectral_derivative", counting(differentiated))
        diffraction.pulled_back_operator(fh, PAR, 12)
        assert len(derived) == 4
        assert all(u is fh.f or u is fh.h for u in derived + differentiated)

        derived.clear()
        differentiated.clear()
        diffraction.pulled_back_operator(fh, PAR, 12)
        rayleigh_taylor(fh, constant_fn(g, 0.5), PAR, n_y=12)
        assert derived == []
        assert differentiated  # the solution's traces are still differentiated
        assert not any(u is fh.f or u is fh.h for u in differentiated)

    def test_surface_tension_linearization_reads_the_pair(self, monkeypatch):
        import muskatlab.geometry as geometry

        g = make_grid(16)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0)
        base = diffraction.solve_potentials_st(fh, constant_fn(g, 0.5), par, n_y=12)
        direction = fn(g, lambda x: np.cos(2 * x))
        differentiated = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            differentiated.append(u)
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        zero = constant_fn(g, 0.0)
        diffraction.solve_linearized(fh, base, direction, zero, par, with_surface_tension=True)
        diffraction.solve_linearized(fh, base, zero, direction, par, with_surface_tension=True)
        assert any(u is direction for u in differentiated)
        assert not any(u is fh.f or u is fh.h for u in differentiated)


    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_linearized_directions_differentiated_once(self, monkeypatch, surface_tension):
        import muskatlab.geometry as geometry
        import muskatlab.operators as operators

        g = make_grid(16)
        fh = flat_pair(g)
        modes = (1, 2, 3)
        differentiated = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            differentiated.append((u, order))
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        monkeypatch.setattr(operators, "spectral_derivative", spectral_derivative)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0) if surface_tension else PAR
        linearized_matrix(fh, constant_fn(g, 1.0), par, modes, surface_tension, n_y=8)
        # traces take first derivatives only, so second derivatives mark the directions
        directions = [u for u, order in differentiated
                      if order == 2 and u is not fh.f and u is not fh.h]
        for m in modes:
            sines = [u for u in directions if np.array_equal(u.values, np.sin(m * g.nodes))]
            assert len(sines) == 1
            assert sum(u is sines[0] for u, _ in differentiated) == 2
        if not surface_tension:
            assert len(directions) == len(modes)


class TestFactorizationReuse:
    """simulate factorizes each accepted state once, for its RT margins and
    the first stage of the step from it; every step attempt factorizes its
    five later stages.  Each factorization serves one solve, except that a
    surface-tension state solves its first stage apart from the monitor."""

    CONFIGS = {
        "gravity": SimConfig(n_x=16, n_y=8, params=PAR, f0=WaveSpec(modes=((1, 0.05, 0.0),)),
                             b=WaveSpec(const=1.0), t_end=0.3, dt_init=0.05, dt_max=0.1),
        "surface_tension": SimConfig(n_x=16, n_y=8, params=FluidParams(gamma_f=0.5, gamma_h=1.0),
                                     f0=WaveSpec(modes=((2, 0.0, 0.02),)), b=WaveSpec(const=1.0),
                                     t_end=0.01, dt_init=1e-3, surface_tension=True),
        "rejected_step": SimConfig(n_x=16, n_y=8, params=PAR,
                                   f0=WaveSpec(modes=((1, 0.05, 0.0),)), b=WaveSpec(const=1.0),
                                   t_end=0.6, dt_init=0.5, dt_max=0.5, rtol=1e-8, atol=1e-10),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_factorizations_per_step(self, name, monkeypatch):
        factorizations, solves, attempts = [], [], []
        true_splu, true_rhs, true_step = diffraction.spla.splu, diffraction._rhs, evolution.step

        def counting_splu(matrix, **kwargs):
            factorizations.append(matrix.shape)
            return true_splu(matrix, **kwargs)

        def counting_rhs(data):
            solves.append(data.operator)
            return true_rhs(data)

        def counting_step(*args, **kwargs):
            attempts.append(args[1])
            return true_step(*args, **kwargs)

        monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
        monkeypatch.setattr(diffraction, "_rhs", counting_rhs)
        monkeypatch.setattr(evolution, "step", counting_step)
        config = self.CONFIGS[name]
        traj = simulate(config)
        assert traj.reason == "t_end"
        accepted = len(traj.times) - 1
        rejected = len(attempts) - accepted
        assert accepted > 0
        if name == "rejected_step":
            assert rejected > 0
        assert len(factorizations) == (accepted + 1) + 5 * (accepted + rejected)
        # Without surface tension the monitor's solve is the first stage's.
        extra = accepted if config.surface_tension else 0
        assert len(solves) == len(factorizations) + extra

    def test_step_reuses_a_given_slope(self, monkeypatch):
        g = make_grid(16)
        b = constant_fn(g, 0.3)
        fh = InterfacePair(fn(g, lambda x: 0.05 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        plain = step(SimState(0.0, fh), 0.05, b, PAR, n_y=12)
        with_slope = SimState(0.0, fh, phi(fh, b, PAR, n_y=12))
        calls = []
        true_phi = evolution.phi

        def counting_phi(*args, **kwargs):
            calls.append(args[0])
            return true_phi(*args, **kwargs)

        monkeypatch.setattr(evolution, "phi", counting_phi)
        reused = step(with_slope, 0.05, b, PAR, n_y=12)
        assert len(calls) == 5
        assert np.array_equal(reused[0].fh.f.values, plain[0].fh.f.values)
        assert reused[1] == plain[1]
