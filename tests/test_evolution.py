import weakref
from dataclasses import replace

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
from muskatlab.operators import FluidParams, boundary_B1, strip_heights
from muskatlab.symbols import frozen_constants

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
        p_plus, p_minus = pressures(sol)
        assert np.array_equal(p_plus.values, sol.v_plus.values)
        assert np.array_equal(p_minus.values, sol.v_minus.values)

    def test_flat_equilibrium_hydrostatic(self):
        g = make_grid(16)
        fh = flat_pair(g)
        grho = PAR.g * PAR.rho_plus
        sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=12)
        p_plus, _ = pressures(sol)
        y_phys = strip_heights(fh, sol.v_plus.strip)
        assert np.max(np.abs(p_plus.values - grho * (1.0 - y_phys))) < 1e-10
        assert np.min(p_plus.values) > -1e-10

    def test_readers_use_the_solutions_own_state(self):
        # the pair's bottom (d = -2) and the fluid differ from FluidParams'
        # defaults, so a reader falling back on either gives other numbers
        g = make_grid(16)
        par = FluidParams(g=3.0, rho_plus=0.5)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -2.0)
        sol = solve_potentials(fh, constant_fn(g, 0.5), par, n_y=12)
        p_plus, p_minus = pressures(sol)
        y_plus = strip_heights(fh, sol.v_plus.strip)
        y_minus = strip_heights(fh, sol.v_minus.strip)
        assert np.array_equal(p_plus.values, sol.v_plus.values - par.g * par.rho_plus * y_plus)
        assert np.array_equal(p_minus.values,
                              sol.v_minus.values - par.g * par.rho_minus * y_minus)
        x = 0.7
        assert frozen_constants(sol, x).gap_minus == fh.f.at(x) + 2.0


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

    def test_curved_state_with_viscosity_contrast_matches_the_traces(self):
        # the margins read off the velocities against the three co-normal
        # traces they stand for: the jump B_+ v_+ - B_- v_- across Gamma_0
        # and B_1 v_+ on Gamma_1, at a curved state whose viscosity term moves
        # margin_f
        g = make_grid(32)
        par = FluidParams(k=1.7, mu_minus=2.0, mu_plus=0.5)
        fh = InterfacePair(fn(g, lambda x: 0.15 * np.sin(x) + 0.05 * np.cos(2 * x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.5)
        b = fn(g, lambda x: 0.3 + 0.2 * np.cos(x))
        sol = solve_potentials(fh, b, par, n_y=16)
        operator = sol.operator
        co_minus = par.mu_minus / par.k * operator.minus_bc.apply(sol.v_minus)
        co_plus = par.mu_plus / par.k * operator.plus_bc.apply(sol.v_plus)
        co_top = par.mu_plus / par.k * boundary_B1(fh, par, sol.v_plus).values
        # the operator's B_1, which the velocities read, is the function's bit for bit
        assert np.array_equal(operator.top_bc.apply(sol.v_plus),
                              boundary_B1(fh, par, sol.v_plus).values)
        drho = par.g * (par.rho_minus - par.rho_plus)
        slope_f = np.sqrt(1.0 + fh.f.derivatives[0] ** 2)
        slope_h = np.sqrt(1.0 + fh.h.derivatives[0] ** 2)
        rep = rayleigh_taylor(fh, b, par, n_y=16)
        assert abs(rep.margin_f - np.min((drho - co_minus + co_plus) / slope_f)) <= 1e-12
        assert abs(rep.margin_h - np.min((par.g * par.rho_plus - co_top) / slope_h)) <= 1e-12
        assert abs(rep.margin_f - np.min(drho / slope_f)) > 0.1

    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_simulate_records_the_rtcheck_margins(self, surface_tension):
        # a run's first report is rtcheck's at its initial state, bit for bit
        config = SimConfig(n_x=16, n_y=8,
                           params=FluidParams(k=1.7, mu_minus=2.0, mu_plus=0.5,
                                              gamma_f=0.5, gamma_h=1.0),
                           f0=WaveSpec(modes=((1, 0.05, 0.02),)), b=WaveSpec(const=0.3),
                           t_end=2e-3, surface_tension=surface_tension)
        traj = simulate(config)
        assert traj.reason == "t_end"
        assert traj.rt_reports[0] == rayleigh_taylor(*config.initial_state(), config.params,
                                                     n_y=config.n_y)


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


class TestModeAmplitude:
    def test_amplitudes_up_to_below_nyquist(self):
        g = make_grid(16)
        for m in range(1, 8):
            u = fn(g, lambda x: 0.5 * np.cos(m * x) - 2.0 * np.sin(m * x) + 3.0)
            assert mode_amplitude(u.values, m) == pytest.approx(np.hypot(0.5, 2.0), abs=1e-13)

    @pytest.mark.parametrize("m", [-1, 0, 8, 9, 1.5, float("nan")])
    def test_outside_one_to_below_nyquist_rejected(self, m):
        g = make_grid(16)
        with pytest.raises(ValueError):
            mode_amplitude(np.cos(8 * g.nodes) + 1.0, m)


class TestFitModeRate:
    def test_nan_amplitude_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        amps = np.exp(-t)
        amps[4] = np.nan
        with pytest.raises(ValueError):
            fit_mode_rate(t, amps)


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

    FINGERING = SimConfig(n_x=16, n_y=8, params=FluidParams(rho_minus=1.0, rho_plus=3.0, g=5.0),
                          f0=WaveSpec(modes=((2, 0.0, 0.05),)), b=WaveSpec(const=15.0),
                          t_end=0.35, dt_max=0.5)

    def test_fingering_not_stopped_by_backward_stable_solve(self):
        # near t = 0.337 the solves are backward stable (backward error ~1e-16)
        # but their residual exceeds 1e-10 of max(|b|, |x|): ||A|| ~ 1e6 here
        traj = simulate(self.FINGERING)
        assert traj.reason == "t_end"
        assert traj.failure is None

    def test_fingering_stop_names_the_condition_guard(self):
        traj = simulate(replace(self.FINGERING, t_end=0.6))
        assert traj.reason == "step_failure"
        failure = traj.failure
        assert failure["kind"] == "solver_failure"
        assert failure["message"].startswith("system too ill-conditioned (estimate 2.070e+14")
        assert failure["condition_estimate"] == pytest.approx(2.07e14, rel=1e-3)
        assert failure["t"] == traj.times[-1] == pytest.approx(0.35358, abs=1e-5)
        assert 0.0 < failure["dt"] <= 0.6 - failure["t"]

    def test_fingering_failure_records_the_gaps(self):
        # the guard fires because the finger reaches the bottom
        failure = simulate(replace(self.FINGERING, t_end=0.6)).failure
        assert 0.0 < failure["gap_minus"] < 0.01
        assert failure["gap_plus"] > 0.0


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
                            surface_tension=True)
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

    def test_error_controller_alone_sets_the_step(self):
        # no surface-tension step cap: the embedded error estimate finds the
        # stability limit of the cubic symbol, without chattering
        par = FluidParams(gamma_f=0.5, gamma_h=1.0)

        def run(**tolerances):
            return simulate(SimConfig(
                n_x=32, n_y=16, params=par,
                f0=WaveSpec(modes=((1, 0.0, 0.02), (3, 0.0, 0.01), (5, 0.0, 0.005))),
                h0=WaveSpec(const=1.0, modes=((2, 0.0, 0.01),)),
                b=WaveSpec(const=par.g * par.rho_plus), t_end=0.05, dt_max=0.01,
                surface_tension=True, **tolerances))

        rtol = 1e-6
        traj, ref = run(rtol=rtol), run(rtol=1e-10, atol=1e-13)
        assert traj.reason == ref.reason == "t_end"
        f, h = traj.f_values[-1], traj.h_values[-1]
        scale = max(np.max(np.abs(f)), np.max(np.abs(h)), 1.0)
        error = max(np.max(np.abs(f - ref.f_values[-1])), np.max(np.abs(h - ref.h_values[-1])))
        assert error <= 10 * rtol * scale
        accepted = len(traj.times) - 1
        assert sum(traj.steps_rejected.values()) <= max(3, 0.15 * accepted)


class TestRejectionCounts:
    def test_rejections_counted_by_cause(self, monkeypatch):
        attempts = []
        true_step = evolution.step

        def first_stage_rejected(*args, **kwargs):
            attempts.append(args[1])
            if len(attempts) == 1:
                raise StepRejected("stage 1 left the admissible set (forced)")
            return true_step(*args, **kwargs)

        monkeypatch.setattr(evolution, "step", first_stage_rejected)
        traj = simulate(TestFactorizationReuse.CONFIGS["rejected_step"])
        assert traj.reason == "t_end"
        assert attempts[1] == attempts[0] / 2
        error_rejections = len(attempts) - (len(traj.times) - 1) - 1
        assert error_rejections > 0
        assert traj.steps_rejected == {"error": error_rejections, "stage": 1}

    def test_step_size_collapse_recorded(self, monkeypatch):
        def always_rejected(*args, **kwargs):
            raise StepRejected("stage 1 left the admissible set (forced)")

        monkeypatch.setattr(evolution, "step", always_rejected)
        traj = simulate(TestFactorizationReuse.CONFIGS["rejected_step"])
        assert traj.reason == "step_failure"
        # dt_init = 0.5 halves 39 times before it drops below 1e-12
        assert traj.steps_rejected == {"error": 0, "stage": 39}
        assert traj.failure == {"kind": "min_dt", "message": "step size 9.095e-13 below 1e-12",
                                "t": 0.0, "dt": 0.5 ** 40, "condition_estimate": None,
                                "gap_minus": pytest.approx(0.95), "gap_plus": pytest.approx(0.95)}

    def test_lost_admissibility_records_the_step_result(self, monkeypatch):
        # de-aliasing that pushes f below the bottom: the record reads the
        # gaps of the step result it was given, which are still positive
        results = []

        def sinking_dealias(u):
            results.append(u.values)
            return PeriodicFn(u.grid, u.values - 5.0)

        monkeypatch.setattr(evolution, "dealias", sinking_dealias)
        config = TestFactorizationReuse.CONFIGS["gravity"]
        traj = simulate(config)
        assert traj.reason == "admissibility_lost"
        f, h = results
        assert traj.failure["t"] == config.dt_init
        assert traj.failure["gap_minus"] == np.min(f - config.params.d)
        assert traj.failure["gap_plus"] == np.min(h - f)
        assert traj.failure["gap_minus"] > 0.0 and traj.failure["gap_plus"] > 0.0


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
        diffraction.solve_linearized(base, direction, zero)
        diffraction.solve_linearized(base, zero, direction)
        assert len(factorizations) == 2

    def test_lower_derivatives_built_once_and_only_along_f(self, monkeypatch):
        # B_minus and the lower strip see f alone: per mode one derivative of
        # each, for the f column, shared by its flux data and its velocity
        g = make_grid(16)
        along = []

        def recording(func, name):
            def recorded(*args):
                along.append((name, args[0] if name == "B" else args[-1].side))
                return func(*args)
            return recorded

        monkeypatch.setattr(evolution, "frechet_B_along",
                            recording(evolution.frechet_B_along, "B"))
        monkeypatch.setattr(diffraction, "frechet_B_along",
                            recording(diffraction.frechet_B_along, "B"))
        monkeypatch.setattr(diffraction, "frechet_A_along",
                            recording(diffraction.frechet_A_along, "A"))
        modes = (1, 2, 3)
        linearized_matrix(flat_pair(g), constant_fn(g, 1.0), PAR, modes, n_y=8)
        counts = {key: along.count(key) for key in set(along)}
        assert counts == {("B", "B_minus"): 3, ("B", "B_plus"): 6, ("B", "B1"): 6,
                          ("A", "minus"): 3, ("A", "plus"): 6}

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
        with pytest.raises(ValueError):  # sin(1.5 x) is not periodic on the grid
            linearized_matrix(fh, b, PAR, [1.5])

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

        g = make_grid(16)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
        derived = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            derived.append(u)
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        diffraction.pulled_back_operator(fh, PAR, 12)
        assert len(derived) == 4
        assert all(u is fh.f or u is fh.h for u in derived)

        derived.clear()
        diffraction.pulled_back_operator(fh, PAR, 12)
        rayleigh_taylor(fh, constant_fn(g, 0.5), PAR, n_y=12)
        # the velocities' edge traces are differentiated by the grid's matrix, not by FFT
        assert derived == []

    def test_surface_tension_linearization_reads_the_pair(self, monkeypatch):
        import muskatlab.geometry as geometry

        g = make_grid(16)
        fh = InterfacePair(fn(g, lambda x: 0.1 * np.sin(x)),
                           fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0)
        base = diffraction.solve_potentials(fh, constant_fn(g, 0.5), par, n_y=12,
                                            surface_tension=True)
        direction = fn(g, lambda x: np.cos(2 * x))
        differentiated = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            differentiated.append(u)
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        zero = constant_fn(g, 0.0)
        diffraction.solve_linearized(base, direction, zero)
        diffraction.solve_linearized(base, zero, direction)
        assert any(u is direction for u in differentiated)
        assert not any(u is fh.f or u is fh.h for u in differentiated)

    def test_pair_reads_the_derivatives_cached_on_its_functions(self, monkeypatch):
        import muskatlab.geometry as geometry

        g = make_grid(16)
        f = fn(g, lambda x: 0.1 * np.sin(x))
        f.derivatives  # taken before f becomes part of a pair
        fh = InterfacePair(f, fn(g, lambda x: 1.0 + 0.1 * np.cos(x)), -1.0)
        differentiated = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            differentiated.append(u)
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        diffraction.pulled_back_operator(fh, PAR, 12)
        assert not any(u is f for u in differentiated)
        assert sum(u is fh.h for u in differentiated) == 2

    @pytest.mark.parametrize("surface_tension", [False, True])
    def test_linearized_directions_differentiated_once(self, monkeypatch, surface_tension):
        import muskatlab.geometry as geometry

        g = make_grid(16)
        fh = flat_pair(g)
        modes = (1, 2, 3)
        differentiated = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            differentiated.append((u, order))
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0) if surface_tension else PAR
        linearized_matrix(fh, constant_fn(g, 1.0), par, modes, surface_tension, n_y=8)
        # each function takes its first and second derivative: the second ones
        # that are not the interfaces' mark the directions
        directions = [u for u, order in differentiated
                      if order == 2 and u is not fh.f and u is not fh.h]
        for m in modes:
            sines = [u for u in directions if np.array_equal(u.values, np.sin(m * g.nodes))]
            assert len(sines) == 1
            assert sum(u is sines[0] for u, _ in differentiated) == 2
        if not surface_tension:
            assert len(directions) == len(modes)

    @pytest.mark.parametrize("surface_tension, base_calls", [(False, 4), (True, 6)])
    def test_edge_traces_take_no_fft(self, monkeypatch, surface_tension, base_calls):
        import muskatlab.geometry as geometry

        g = make_grid(16)
        modes = (1, 2, 3)
        calls = []
        true_derivative = geometry.spectral_derivative

        def spectral_derivative(u, order):
            calls.append(order)
            return true_derivative(u, order)

        monkeypatch.setattr(geometry, "spectral_derivative", spectral_derivative)
        par = FluidParams(gamma_f=0.5, gamma_h=1.0) if surface_tension else PAR
        linearized_matrix(flat_pair(g), constant_fn(g, 1.0), par, modes, surface_tension, n_y=8)
        # base_calls for the interfaces' derivatives (and, with surface tension,
        # the zero direction's) and per mode two for its sine; the edge traces
        # of the base and of the linearized fields take none
        assert len(calls) == base_calls + 2 * len(modes)


class TestFactorizationReuse:
    """simulate factors its initial state and refines every later solve on
    that factorization while the stages refined on it stay cheap: on these
    configs no stage needs more than REFACTOR_AFTER corrections, so each run
    makes one factorization.  Each stage is one solve, and so is each
    state's first stage, except that a surface-tension state solves its first
    stage apart from the monitor."""

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
    # triangular solves of each run, condition estimates excluded: the cost
    # of its refinements, pinned so that a change to it shows
    TRIANGULAR_SOLVES = {"gravity": 109, "surface_tension": 63, "rejected_step": 186}
    # residual products A x of each run: one per correction, and one for each
    # refinement's start unless it is cold (a zero start's residual is b);
    # the backward-error guard reads the last residual instead of forming one
    RESIDUAL_PRODUCTS = {"gravity": 133, "surface_tension": 80, "rejected_step": 221}

    def counted_run(self, name, monkeypatch, solve_counts):
        """(trajectory, solves, accepted, rejected) of a config, with
        solve_counts holding the run's factorizations and triangular solves."""
        solves, attempts = [], []
        true_rhs, true_step = diffraction._rhs, evolution.step

        def counting_rhs(data):
            solves.append(data.operator)
            return true_rhs(data)

        def counting_step(*args, **kwargs):
            attempts.append(args[1])
            return true_step(*args, **kwargs)

        monkeypatch.setattr(diffraction, "_rhs", counting_rhs)
        monkeypatch.setattr(evolution, "step", counting_step)
        solve_counts.update(splu=0, solves=0, products=0)
        traj = simulate(self.CONFIGS[name])
        assert traj.reason == "t_end"
        accepted = len(traj.times) - 1
        rejected = len(attempts) - accepted
        assert accepted > 0
        if name == "rejected_step":
            assert rejected > 0
        assert traj.steps_rejected == {"error": rejected, "stage": 0}
        # Without surface tension the monitor's solve is the first stage's.
        extra = accepted if self.CONFIGS[name].surface_tension else 0
        assert len(solves) == (accepted + 1) + 5 * (accepted + rejected) + extra
        # the run's own count of how it solved is what was counted
        assert traj.solver["solves"] == len(solves)
        assert traj.solver["factorizations"] == solve_counts["splu"]
        assert traj.solver["corrections"] == solve_counts["solves"]
        return traj, solves, accepted, rejected

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_factorizations_per_step(self, name, monkeypatch, solve_counts):
        traj, solves, _, _ = self.counted_run(name, monkeypatch, solve_counts)
        assert solve_counts["splu"] == 1  # the initial state's, every later solve's base
        # the initial state's solves are on its own factor, and no refinement falls back
        assert traj.solver["refined"] == len(solves) - (1 + self.CONFIGS[name].surface_tension)
        assert not any(traj.solver["fallbacks"].values())
        assert solve_counts["solves"] == self.TRIANGULAR_SOLVES[name]
        assert solve_counts["products"] == self.RESIDUAL_PRODUCTS[name]

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_stage_factors_without_refinement(self, name, monkeypatch, solve_counts):
        refined = simulate(self.CONFIGS[name])
        monkeypatch.setattr(diffraction, "REFINE_MAX_ITERATIONS", 0)
        traj, _, accepted, rejected = self.counted_run(name, monkeypatch, solve_counts)
        assert solve_counts["splu"] == (accepted + 1) + 5 * (accepted + rejected)
        assert traj.steps_rejected == refined.steps_rejected
        for direct, refinement in ((traj.f_values, refined.f_values),
                                   (traj.h_values, refined.h_values)):
            assert np.max(np.abs(np.subtract(direct, refinement))) <= 1e-10
        # the controller's ratio**(-1/5) carries the rounding-level change of
        # the error estimate into dt: 3.2e-10 on rejected_step (rtol 1e-8),
        # while its states agree to 6.5e-12
        assert np.max(np.abs(np.subtract(traj.times, refined.times))) <= 1e-9

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_every_state_factors_without_a_kept_base(self, name, monkeypatch, solve_counts):
        kept = simulate(self.CONFIGS[name])
        monkeypatch.setattr(evolution, "REFACTOR_AFTER", -1)
        traj, _, accepted, _ = self.counted_run(name, monkeypatch, solve_counts)
        assert solve_counts["splu"] == accepted + 1  # each step's stages refine on its state
        assert traj.steps_rejected == kept.steps_rejected
        for own, base in ((traj.f_values, kept.f_values), (traj.h_values, kept.h_values)):
            assert np.max(np.abs(np.subtract(own, base))) <= 1e-10
        # the controller's ratio**(-1/5) carries the rounding-level change of
        # the error estimate into dt: 1.9e-10 on rejected_step (rtol 1e-8),
        # while its states agree to 3.8e-12
        assert np.max(np.abs(np.subtract(traj.times, kept.times))) <= 1e-9

    @pytest.mark.parametrize("max_iterations, refactor_after", [
        pytest.param(diffraction.REFINE_MAX_ITERATIONS, evolution.REFACTOR_AFTER,
                     id=str(diffraction.REFINE_MAX_ITERATIONS)),
        pytest.param(0, evolution.REFACTOR_AFTER, id="0"),
        pytest.param(diffraction.REFINE_MAX_ITERATIONS, -1, id="no_kept_base")])
    def test_one_factorization_alive_besides_the_base(self, max_iterations, refactor_after,
                                                      monkeypatch):
        # A factorization is made only while the other live factored operators
        # are bases of a solve in progress, which falls back to its operator's
        # own: simulate must drop a base it does not keep before factoring the
        # next state, or two LUs coexist.
        operators, bases, live_at_factorization = [], [], []
        true_post_init, true_solve, true_splu = (diffraction.TransmissionOperator.__post_init__,
                                                 diffraction.solve_general,
                                                 diffraction.spla.splu)

        def tracked_post_init(self):
            true_post_init(self)
            operators.append(weakref.ref(self))

        def tracked_solve(data, start=None, base=None):
            bases.append(base)
            try:
                return true_solve(data, start, base)
            finally:
                bases.pop()

        def checking_splu(matrix, **kwargs):
            live = [op for op in (ref() for ref in operators) if op is not None]
            factored = {id(op) for op in live if "factorization" in vars(op)}
            live_at_factorization.append(len(factored))
            assert factored <= {id(base) for base in bases if base is not None}
            return true_splu(matrix, **kwargs)

        monkeypatch.setattr(diffraction.TransmissionOperator, "__post_init__", tracked_post_init)
        monkeypatch.setattr(diffraction, "solve_general", tracked_solve)
        monkeypatch.setattr(diffraction.spla, "splu", checking_splu)
        monkeypatch.setattr(diffraction, "REFINE_MAX_ITERATIONS", max_iterations)
        monkeypatch.setattr(evolution, "REFACTOR_AFTER", refactor_after)
        assert simulate(self.CONFIGS["rejected_step"]).reason == "t_end"
        assert max(live_at_factorization) == (1 if max_iterations == 0 else 0)
        assert len(live_at_factorization) > (refactor_after < 0)

    def test_step_without_a_run_factors_every_solve(self, monkeypatch, solve_counts):
        # the reference RKF45 path: no run, so no base, and each solve factors
        g = make_grid(16)
        b = constant_fn(g, 0.3)
        fh = InterfacePair(fn(g, lambda x: 0.05 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        slope = phi(fh, b, PAR, n_y=8)
        methods = []
        true_solve = diffraction.solve_general

        def recording_solve(*args, **kwargs):
            solution = true_solve(*args, **kwargs)
            methods.append(solution.record.method)
            return solution

        monkeypatch.setattr(diffraction, "solve_general", recording_solve)
        for state, solves in ((SimState(0.0, fh), 6), (SimState(0.0, fh, slope), 5)):
            methods.clear()
            factorizations = solve_counts["splu"]
            step(state, 0.05, b, PAR, n_y=8)
            assert methods == ["factored"] * solves
            assert solve_counts["splu"] - factorizations == solves

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
