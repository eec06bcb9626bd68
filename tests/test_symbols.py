import numpy as np
import pytest

from muskatlab.diffraction import solve_potentials
from muskatlab.geometry import InterfacePair, constant_fn, from_callable, make_grid
from muskatlab.operators import FluidParams
from muskatlab.symbols import (
    frozen_constants,
    frozen_from_local_data,
    lambda_st_symbol,
    lambda_symbol,
    marcinkiewicz_check,
    ode_oracle_lambda,
    ode_oracle_phi,
    phi_st_symbol,
    phi_symbol,
    region_check_R,
    region_check_S,
)
from muskatlab.verify import check_symbols_oracle_at, random_frozen_point

PAR = FluidParams()  # k=mu=1, rho=(2,1), g=1, d=-1


def flat_equilibrium_fp(params=PAR):
    return frozen_from_local_data(0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, params)


class TestFrozenConstants:
    def test_flat_unit_geometry(self):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        sol = solve_potentials(fh, constant_fn(g, 0.0), PAR, n_y=16)
        fp = frozen_constants(sol, x=0.7)
        assert fp.params is sol.operator.params
        assert abs(fp.a_plus) < 1e-12 and abs(fp.a_minus) < 1e-12
        assert abs(fp.b_plus - 1) < 1e-12 and abs(fp.b_minus - 1) < 1e-12
        assert abs(fp.D_plus - 1) < 1e-12 and abs(fp.D_minus - 1) < 1e-12
        assert abs(fp.beta2_plus - 1) < 1e-12 and abs(fp.beta2_minus - 1) < 1e-12
        assert abs(fp.beta1_plus) < 1e-12 and abs(fp.beta1_minus) < 1e-12
        # b = 0 two-layer flow: t = 0.5, both trace ratios equal 0.5
        assert abs(fp.A_minus - 0.5) < 1e-10
        assert abs(fp.A_plus - 0.5) < 1e-10
        assert abs(fp.Delta_A) < 1e-10
        assert abs(fp.V - 0.5) < 1e-10

    def test_flat_equilibrium_traces_vanish(self):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        grho = PAR.g * PAR.rho_plus
        sol = solve_potentials(fh, constant_fn(g, grho), PAR, n_y=16)
        fp = frozen_constants(sol, x=2.0)
        for val in (fp.A_plus, fp.A_minus, fp.B, fp.V, fp.Delta_A):
            assert abs(val) < 1e-10
        assert abs(fp.Delta_rho - 1.0) < 1e-14

    def test_gap_two_constants(self):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 2.0), -1.0)
        sol = solve_potentials(fh, constant_fn(g, 0.0), PAR, n_y=16)
        fp = frozen_constants(sol, x=0.0)
        assert abs(fp.D_plus - 2.0) < 1e-12
        assert abs(fp.beta2_plus - 0.5) < 1e-12

    @pytest.mark.parametrize("position", range(10))
    def test_nonfinite_local_data_rejected(self, position):
        data = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        data[position] = np.nan
        with pytest.raises(ValueError):
            frozen_from_local_data(*data, PAR)

    @pytest.mark.parametrize("gaps", [(1e-170, 1.0), (1.0, 1e-170)])
    def test_underflowing_gap_rejected(self, gaps):
        # positive, but b - a^2 = (gap / s)^2 underflows to 0, so D would vanish
        with pytest.raises(ValueError, match=r"b - a\^2 > 0"):
            frozen_from_local_data(0.0, 0.0, *gaps, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, PAR)

    @pytest.mark.parametrize("slopes", [(1e8, 0.0), (0.0, 1e8)])
    def test_steep_slope_rejected_before_any_root(self, slopes):
        # b - a^2 = (gap / s)^2 rounds to zero or below, which is refused before
        # a square root of it could warn (the suite turns warnings into errors)
        with pytest.raises(ValueError, match=r"b - a\^2 > 0"):
            frozen_from_local_data(*slopes, 1, 1, 0, 0, 0, 0, 0, 0, FluidParams())

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_nonfinite_point_rejected(self, x):
        g = make_grid(16)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        sol = solve_potentials(fh, constant_fn(g, 0.0), PAR, n_y=8)
        with pytest.raises(ValueError):
            frozen_constants(sol, x=x)

    def test_invariants_on_random_points(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            fp = random_frozen_point(rng)
            assert fp.b_plus - fp.a_plus**2 > 0
            assert fp.b_minus - fp.a_minus**2 > 0
            assert fp.beta2_plus > 0 and fp.beta2_minus > 0
            # geometric identities that make the symbols real at tau = 0
            assert abs(fp.beta1_plus - fp.beta2_plus * fp.a_plus) < 1e-12
            assert abs(fp.beta1_minus - fp.beta2_minus * fp.a_minus) < 1e-12


class TestClosedFormSymbols:
    def test_flat_equilibrium_lambda(self):
        fp = flat_equilibrium_fp()
        for tau in (0.0, 0.4, 1.0):
            val = lambda_symbol(fp, 1, tau)
            assert abs(val - (-1.0 / (2 * np.tanh(1.0)))) < 1e-12

    def test_flat_equilibrium_phi(self):
        fp = flat_equilibrium_fp()
        val = phi_symbol(fp, 1, 0.0)
        assert abs(val - (-1.0 / np.tanh(1.0))) < 1e-12

    def test_phi_reads_the_fluid_of_its_point(self):
        # a point frozen under a non-default fluid is evaluated under that fluid
        par = FluidParams(mu_minus=2.0, mu_plus=3.0, rho_plus=0.5)
        fp = frozen_from_local_data(0.2, -0.3, 0.8, 1.2, 0.1, -0.2, 0.3, 0.1, 0.4, -0.1, par)
        for m in (1, 3, 8):
            val = phi_symbol(fp, m, 0.0)
            target = (-(par.k / par.mu_plus) * (par.g * par.rho_plus - fp.V)
                      * m / np.tanh(fp.D1 * m))
            assert abs(val - target) < 1e-12 * abs(target)
            assert abs(ode_oracle_phi(fp, m, 0.0).symbol_value - val) < 1e-12

    def test_tau_zero_is_real(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            fp = random_frozen_point(rng)
            m = int(rng.integers(1, 20))
            assert lambda_symbol(fp, m, 0.0).imag == 0.0
            assert phi_symbol(fp, m, 0.0).imag == 0.0

    def test_v_zero_kills_phi_imaginary_and_nu(self):
        rng = np.random.default_rng(71)
        params = random_frozen_point(rng).params
        fp = frozen_from_local_data(0.0, 0.0, 1.0, 1.5, 0.4, -0.2, 0.1, 0.3, 0.0, 0.0,
                                    params)
        for tau in (0.0, 0.5, 1.0):
            val = phi_symbol(fp, 3, tau)
            assert val.imag == 0.0

    def test_large_m_asymptote(self):
        rng = np.random.default_rng(73)
        fp = random_frozen_point(rng)
        if fp.Delta_rho + fp.Delta_A == 0:
            pytest.skip("degenerate draw")
        m = 200
        val = lambda_symbol(fp, m, 0.0).real / m
        target = -(fp.Delta_rho + fp.Delta_A) / (
            1.0 / (fp.beta2_plus * fp.D_plus) + 1.0 / (fp.beta2_minus * fp.D_minus))
        assert abs(val - target) < 1e-6 * max(1.0, abs(target))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(79)
        fp = random_frozen_point(rng)
        for m in (1, 4, 9):
            for tau in (0.0, 0.6, 1.0):
                lam_p = lambda_symbol(fp, m, tau)
                lam_n = lambda_symbol(fp, -m, tau)
                assert abs(lam_p - np.conj(lam_n)) < 1e-12 * max(1.0, abs(lam_p))
                phi_p = phi_symbol(fp, m, tau)
                phi_n = phi_symbol(fp, -m, tau)
                assert abs(phi_p - np.conj(phi_n)) < 1e-12 * max(1.0, abs(phi_p))
            assert lambda_st_symbol(fp, m) == lambda_st_symbol(fp, -m)
            assert phi_st_symbol(fp, m) == phi_st_symbol(fp, -m)

    def test_zero_mode_rejected(self):
        fp = flat_equilibrium_fp()
        for func in (lambda: lambda_symbol(fp, 0, 0.0),
                     lambda: phi_symbol(fp, 0, 0.0),
                     lambda: lambda_st_symbol(fp, 0),
                     lambda: phi_st_symbol(fp, 0)):
            with pytest.raises(ValueError):
                func()

    def test_parabolic_signs_flat_states(self):
        # RT-satisfied flat state (two-layer flow with b = 0)
        fp = frozen_from_local_data(0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, PAR)
        for m in range(1, 65):
            assert lambda_symbol(fp, m, 0.0).real < 0
            assert phi_symbol(fp, m, 0.0).real < 0
        # reversed densities at equilibrium: growth at every mode
        par_rev = FluidParams(rho_minus=1.0, rho_plus=2.0)
        fp_rev = flat_equilibrium_fp(par_rev)
        for m in range(1, 65):
            assert lambda_symbol(fp_rev, m, 0.0).real > 0


class TestSurfaceTensionSymbols:
    def test_flat_values(self):
        par = FluidParams(gamma_f=1.0, gamma_h=1.0)
        fp = flat_equilibrium_fp(par)
        assert abs(phi_st_symbol(fp, 2) - (-8.0 / np.tanh(2.0))) < 1e-12
        assert abs(lambda_st_symbol(fp, 1) - (-1.0 / (2 * np.tanh(1.0)))) < 1e-12

    def test_zero_gamma(self):
        fp = flat_equilibrium_fp(FluidParams(gamma_f=0.0, gamma_h=0.0))
        assert lambda_st_symbol(fp, 3) == 0.0
        assert phi_st_symbol(fp, 3) == 0.0

    def test_algebraic_identities_exact(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            fp = random_frozen_point(rng)
            for m in (1, 2, 5, 17, 64):
                denom = (np.tanh(fp.D_plus * m) / (fp.beta2_plus * fp.D_plus * m)
                         + np.tanh(fp.D_minus * m) / (fp.beta2_minus * fp.D_minus * m))
                lhs = lambda_st_symbol(fp, m) * denom / m**2
                assert abs(lhs - (-fp.V_f)) < 1e-12 * max(1.0, abs(fp.V_f))
                lhs2 = phi_st_symbol(fp, m) * np.tanh(fp.D1 * m) / m**3
                target2 = -fp.params.k * fp.V_h / fp.params.mu_plus
                assert abs(lhs2 - target2) < 1e-12 * max(1.0, abs(target2))


class TestODEOracle:
    def test_flat_equilibrium_any_tau(self):
        fp = flat_equilibrium_fp()
        for tau in (0.0, 0.31, 0.77, 1.0):
            lam = ode_oracle_lambda(fp, 1, tau)
            assert abs(lam.symbol_value - (-1.0 / (2 * np.tanh(1.0)))) < 1e-12
            assert lam.residual < 1e-12
            phi = ode_oracle_phi(fp, 1, tau)
            assert abs(phi.symbol_value - (-1.0 / np.tanh(1.0))) < 1e-12

    def test_tau_zero_equivalence_random(self):
        result, _ = check_symbols_oracle_at(89, 100)
        assert result.passed, result.detail

    def test_boundary_residuals_small(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            fp = random_frozen_point(rng)
            for m in (1, 8, 32):
                for tau in (0.0, 0.5, 1.0):
                    assert ode_oracle_lambda(fp, m, tau).residual < 1e-10
                    assert ode_oracle_phi(fp, m, tau).residual < 1e-10

    def test_phi_top_boundary_value_imposed(self):
        # reconstructed B_m carries B(0) = 0 and B(1) = g rho_+ - (1-tau) V
        rng = np.random.default_rng(101)
        fp = random_frozen_point(rng)
        tau = 0.6
        sol = ode_oracle_phi(fp, 5, tau)
        zeta = np.array(sol.zeta)
        assert abs(zeta[0] + tau * fp.V) < 1e-12  # B(0) real part
        assert abs(zeta[2]) < 1e-12               # B(0) imag part

    def test_phi_boundary_values_reconstructed(self):
        # independent evaluation of the basis at y = 1 reproduces the
        # imposed boundary values to near machine precision
        rng = np.random.default_rng(109)
        fp = random_frozen_point(rng)
        for m in (1, 2, 4):
            for tau in (0.0, 0.6, 1.0):
                zeta = np.array(ode_oracle_phi(fp, m, tau).zeta)
                a, dd = fp.a1, fp.D1
                c, s = np.cos(a * m), np.sin(a * m)
                ch, sh = np.cosh(dd * m), np.sinh(dd * m)
                r = a / dd
                u = np.array([c * ch + r * s * sh, c * sh / (dd * m),
                              s * ch - r * c * sh, s * sh / (dd * m)])
                v = np.array([-s * ch + r * c * sh, -s * sh / (dd * m),
                              c * ch + r * s * sh, c * sh / (dd * m)])
                top = complex(zeta @ u + tau * fp.V, zeta @ v)
                g_top = fp.params.g * fp.params.rho_plus - (1.0 - tau) * fp.V
                assert abs(top - g_top) < 1e-12 * max(1.0, abs(g_top))
                bottom = complex(zeta[0] + tau * fp.V, zeta[2])
                assert abs(bottom) < 1e-12

    def test_oracle_conjugate_symmetry(self):
        rng = np.random.default_rng(103)
        fp = random_frozen_point(rng)
        for tau in (0.3, 1.0):
            a = ode_oracle_lambda(fp, 6, tau).symbol_value
            b = ode_oracle_lambda(fp, -6, tau).symbol_value
            assert abs(a - np.conj(b)) < 1e-10 * max(1.0, abs(a))

    def test_tau_positive_printed_formulas_disagree_off_equilibrium(self):
        # the printed tau-dependent terms do not match the boundary value
        # problem away from equilibrium; the oracle is the reference
        rng = np.random.default_rng(107)
        fp = random_frozen_point(rng)
        diff = abs(ode_oracle_lambda(fp, 2, 1.0).symbol_value
                   - lambda_symbol(fp, 2, 1.0))
        assert np.isfinite(diff)


class TestMarcinkiewicz:
    def test_monotone_example(self):
        m_max = 64
        seq = -np.arange(1, m_max + 1, dtype=float)
        rep = marcinkiewicz_check(seq, lam=1.0, order_gain=1)
        assert abs(rep.s1 - m_max / (1.0 + m_max)) < 1e-12
        assert rep.s1 < 1.0

    def test_flat_equilibrium_sequences_stable(self):
        fp = flat_equilibrium_fp()
        for make in (lambda m: lambda_symbol(fp, m, 0.0),
                     lambda m: phi_symbol(fp, m, 0.0)):
            seq_256 = np.array([make(m) for m in range(1, 257)])
            seq_512 = np.array([make(m) for m in range(1, 513)])
            r1 = marcinkiewicz_check(seq_256, lam=10.0)
            r2 = marcinkiewicz_check(seq_512, lam=10.0)
            assert np.isfinite(r1.s1) and np.isfinite(r1.s2)
            assert r2.s1 < 2.0 * r1.s1 + 1e-12
            assert r2.s2 < 2.0 * r1.s2 + 1e-12

    def test_pole_guard(self):
        fp = flat_equilibrium_fp()
        seq = np.array([lambda_symbol(fp, m, 0.0) for m in range(1, 65)])
        top = np.max(seq.real)
        with pytest.raises(ValueError):
            marcinkiewicz_check(seq, lam=complex(top, 0.3))

    def test_divergence_near_spectrum(self):
        fp = flat_equilibrium_fp()
        seq = np.array([lambda_symbol(fp, m, 0.0) for m in range(1, 65)])
        top = np.max(seq.real)
        close = marcinkiewicz_check(seq, lam=top + 1e-8)
        far = marcinkiewicz_check(seq, lam=top + 1.0)
        assert close.s1 > 1e6 * far.s1


class TestRegionChecks:
    def _flat_state(self, b_val, params=PAR, h_val=1.0):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, h_val), -1.0)
        sol = solve_potentials(fh, constant_fn(g, b_val), params, n_y=16)
        return sol

    def test_flat_rt_satisfied_in_both_regions(self):
        sol = self._flat_state(0.0)
        rep_s = region_check_S(sol, sigma=0.1)
        rep_r = region_check_R(sol, sigma=0.1)
        assert rep_s.ok and rep_r.ok
        assert rep_s.worst_margin > 0 and rep_r.worst_margin > 0

    def test_large_sigma_fails(self):
        sol = self._flat_state(0.0)
        rep = region_check_S(sol, sigma=1.5)
        assert not rep.ok
        assert rep.worst_margin < 0

    def test_sigma_zero_ok(self):
        sol = self._flat_state(0.0)
        assert region_check_S(sol, sigma=0.0).ok
        assert region_check_R(sol, sigma=0.0).ok

    def test_both_pairings_reported(self):
        # unequal gaps distinguish the two readings of the trace condition
        sol = self._flat_state(0.0, h_val=2.0)
        rep = region_check_S(sol, sigma=0.0)
        assert "jump_printed" in rep.margins and "jump_delta_a" in rep.margins
        assert abs(rep.margins["jump_printed"] - rep.margins["jump_delta_a"]) > 0.1
