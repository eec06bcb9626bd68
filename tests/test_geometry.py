import numpy as np
import pytest

from muskatlab.geometry import (
    AdmissibilityError,
    InterfacePair,
    PeriodicFn,
    check_admissible,
    constant_fn,
    curvature,
    curvature_frechet,
    from_callable,
    make_grid,
    spectral_derivative,
    spectral_diff_matrix,
)


def fn(grid, func):
    return from_callable(grid, func)


class TestGrid:
    def test_nodes_small(self):
        g = make_grid(8)
        assert np.allclose(g.nodes, np.pi / 4 * np.arange(8))

    def test_spacing(self):
        g = make_grid(64)
        assert np.allclose(np.diff(g.nodes), 2 * np.pi / 64)

    @pytest.mark.parametrize("bad", [7, 6, 9, 0, -8])
    def test_invalid_sizes(self, bad):
        with pytest.raises(ValueError):
            make_grid(bad)


class TestSpectralDerivative:
    def test_sin_to_cos(self):
        g = make_grid(32)
        d = spectral_derivative(fn(g, np.sin), 1)
        assert np.max(np.abs(d.values - np.cos(g.nodes))) < 1e-13

    def test_constant(self):
        g = make_grid(16)
        for order in (1, 2, 3, 4):
            d = spectral_derivative(constant_fn(g, 3.7), order)
            assert np.max(np.abs(d.values)) < 1e-13

    def test_bandlimited_second_derivative(self):
        # modes <= n/4, analytic oracle assembled term by term
        g = make_grid(64)
        rng = np.random.default_rng(7)
        modes = range(1, 17)
        amps = rng.standard_normal((len(modes), 2))
        u = np.zeros(g.n_x)
        upp = np.zeros(g.n_x)
        for (m, (ac, bs)) in zip(modes, amps):
            u += ac * np.cos(m * g.nodes) + bs * np.sin(m * g.nodes)
            upp += -m**2 * (ac * np.cos(m * g.nodes) + bs * np.sin(m * g.nodes))
        d2 = spectral_derivative(PeriodicFn(g, u), 2)
        assert np.max(np.abs(d2.values - upp)) < 1e-10

    def test_invalid_order(self):
        g = make_grid(16)
        with pytest.raises(ValueError):
            spectral_derivative(constant_fn(g, 0.0), 5)

    def test_linearity(self):
        g = make_grid(32)
        rng = np.random.default_rng(3)
        u = PeriodicFn(g, rng.standard_normal(g.n_x))
        v = PeriodicFn(g, rng.standard_normal(g.n_x))
        lhs = spectral_derivative(2.5 * u + v * (-1.25), 1).values
        rhs = 2.5 * spectral_derivative(u, 1).values - 1.25 * spectral_derivative(v, 1).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_commutes_with_node_shift(self):
        g = make_grid(32)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(g.n_x)
        shifted_then_diff = spectral_derivative(PeriodicFn(g, np.roll(u, 1)), 1).values
        diff_then_shifted = np.roll(spectral_derivative(PeriodicFn(g, u), 1).values, 1)
        assert np.max(np.abs(shifted_then_diff - diff_then_shifted)) < 1e-12

    def test_second_order_equals_twice_first_on_bandlimited(self):
        g = make_grid(64)
        rng = np.random.default_rng(5)
        u = np.zeros(g.n_x)
        for m in range(1, g.n_x // 4 + 1):
            a, b = rng.standard_normal(2)
            u += a * np.cos(m * g.nodes) + b * np.sin(m * g.nodes)
        u = PeriodicFn(g, u)
        once_twice = spectral_derivative(spectral_derivative(u, 1), 1).values
        direct = spectral_derivative(u, 2).values
        assert np.max(np.abs(once_twice - direct)) < 1e-10

    def test_diff_matrix_matches_fft(self):
        g = make_grid(32)
        rng = np.random.default_rng(6)
        u = rng.standard_normal(g.n_x)
        dmat = spectral_diff_matrix(g)
        assert np.max(np.abs(dmat @ u - spectral_derivative(PeriodicFn(g, u), 1).values)) < 1e-11

    def test_grid_keeps_its_diff_matrix(self):
        g = make_grid(32)
        assert g.diff_matrix is g.diff_matrix  # built once per grid
        assert np.array_equal(g.diff_matrix, spectral_diff_matrix(g))
        assert not g.diff_matrix.flags.writeable

    def test_interpolant_at_nodes_and_between(self):
        g = make_grid(32)
        u = fn(g, lambda x: 0.3 * np.cos(2 * x) - 0.1 * np.sin(5 * x))
        assert np.max(np.abs(u.at(g.nodes) - u.values)) < 1e-13
        x = np.array([0.123, 2.3, 5.1])
        exact = 0.3 * np.cos(2 * x) - 0.1 * np.sin(5 * x)
        assert np.max(np.abs(u.at(x) - exact)) < 1e-13


class TestCurvature:
    def test_zero_line(self):
        g = make_grid(32)
        assert np.max(np.abs(curvature(constant_fn(g, 0.0)).values)) < 1e-14

    def test_sin_at_crest(self):
        g = make_grid(64)
        kappa = curvature(fn(g, np.sin))
        i = g.n_x // 4  # x = pi/2
        assert abs(kappa.values[i] - (-1.0)) < 1e-12

    def test_small_amplitude_linearization(self):
        g = make_grid(64)
        zeta = fn(g, lambda x: 0.01 * np.sin(2 * x))
        kappa = curvature(zeta)
        target = -0.04 * np.sin(2 * g.nodes)
        mask = np.abs(target) > 1e-3
        rel = np.abs(kappa.values[mask] - target[mask]) / np.abs(target[mask])
        assert np.max(rel) < 1e-3

    def test_invariant_under_constant_shift(self):
        g = make_grid(32)
        rng = np.random.default_rng(11)
        zeta = PeriodicFn(g, 0.2 * rng.standard_normal(g.n_x))
        for c in (-2.0, 0.5, 10.0):
            diff = curvature(zeta + c).values - curvature(zeta).values
            assert np.max(np.abs(diff)) < 1e-12


class TestCurvatureFrechet:
    def test_flat_base_is_second_derivative(self):
        g = make_grid(32)
        h = fn(g, lambda x: np.cos(3 * x))
        out = curvature_frechet(constant_fn(g, 0.0), h)
        assert np.max(np.abs(out.values - spectral_derivative(h, 2).values)) < 1e-12

    def test_zero_direction(self):
        g = make_grid(32)
        zeta = fn(g, lambda x: 0.3 * np.sin(x))
        assert np.max(np.abs(curvature_frechet(zeta, constant_fn(g, 0.0)).values)) < 1e-14

    def test_finite_difference_oracle(self):
        g = make_grid(64)
        rng = np.random.default_rng(13)
        zeta = PeriodicFn(g, 0.3 * rng.standard_normal(g.n_x))
        h = PeriodicFn(g, rng.standard_normal(g.n_x))
        lin = curvature_frechet(zeta, h).values
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            fd = (curvature(zeta + eps * h).values - curvature(zeta).values) / eps
            errs.append(np.max(np.abs(fd - lin)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 1.0) < 0.2)

    def test_linear_in_direction(self):
        g = make_grid(32)
        rng = np.random.default_rng(17)
        zeta = PeriodicFn(g, 0.2 * rng.standard_normal(g.n_x))
        u = PeriodicFn(g, rng.standard_normal(g.n_x))
        v = PeriodicFn(g, rng.standard_normal(g.n_x))
        lhs = curvature_frechet(zeta, 2.0 * u - 3.0 * v).values
        rhs = 2.0 * curvature_frechet(zeta, u).values - 3.0 * curvature_frechet(zeta, v).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestAdmissibility:
    def test_simple_ok(self):
        g = make_grid(16)
        rep = check_admissible(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        assert rep.ok and rep.gap_fd == 1.0 and rep.gap_hf == 1.0

    def test_touching_interfaces(self):
        g = make_grid(16)
        rep = check_admissible(constant_fn(g, 0.0), constant_fn(g, 0.0), -1.0)
        assert not rep.ok and rep.gap_hf == 0.0

    def test_sine_gaps(self):
        g = make_grid(64)
        rep = check_admissible(fn(g, lambda x: 0.5 * np.sin(x)), constant_fn(g, 1.0), -1.0)
        assert rep.ok
        assert abs(rep.gap_fd - 0.5) < 1e-12
        assert abs(rep.gap_hf - 0.5) < 1e-12

    def test_interface_pair_rejects_bad(self):
        g = make_grid(16)
        with pytest.raises(AdmissibilityError):
            InterfacePair(constant_fn(g, 0.0), constant_fn(g, 0.0), -1.0)
        with pytest.raises(ValueError):
            InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), 1.0)

    def test_mixed_grids_rejected(self):
        u = constant_fn(make_grid(16), 1.0)
        v = constant_fn(make_grid(32), 1.0)
        with pytest.raises(ValueError):
            _ = u + v
        with pytest.raises(ValueError):
            check_admissible(u, v, -1.0)
