import numpy as np
import pytest
import sympy as sy

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
    boundary_B1,
    boundary_B_minus,
    boundary_B_plus,
    coeffs_A_minus,
    coeffs_A_plus,
    frechet_A_along,
    frechet_B_along,
    strip_heights,
    trace_dx,
    trace_values,
)
from muskatlab.verify import check_harmonic_pullback_at

PAR = FluidParams()


def fn(grid, func):
    return from_callable(grid, func)


def pair(f, h=None, d=-1.0):
    """InterfacePair of f and h; h defaults to a flat interface 1 above max(f)."""
    if h is None:
        h = constant_fn(f.grid, float(np.max(f.values)) + 1.0)
    return InterfacePair(f, h, d)


def plus_strip(grid, n_y=16):
    return StripGrid(grid, n_y, "plus")


def minus_strip(grid, n_y=16):
    return StripGrid(grid, n_y, "minus")


class TestMaps:
    """The reference-strip maps, as the physical heights of the strip nodes."""

    def test_minus_bottom_maps_to_d(self):
        g = make_grid(16)
        for d in (-1.0, -2.5):
            y_phys = strip_heights(pair(constant_fn(g, 0.0), d=d), minus_strip(g))
            assert np.max(np.abs(y_phys[:, 0] - d)) < 1e-14

    def test_minus_top_maps_to_graph(self):
        g = make_grid(32)
        f = fn(g, lambda x: 0.3 * np.sin(x))
        y_phys = strip_heights(pair(f), minus_strip(g))
        assert np.max(np.abs(y_phys[:, -1] - 0.3 * np.sin(g.nodes))) < 1e-13

    def test_minus_formula(self):
        g = make_grid(32)
        f = fn(g, lambda x: 0.3 * np.sin(x))
        strip, d = minus_strip(g), -1.5
        x, y = g.nodes[:, None], strip.y_nodes[None, :]
        y_phys = strip_heights(pair(f, d=d), strip)
        assert np.max(np.abs(y_phys - (-d * y + (1 + y) * 0.3 * np.sin(x)))) < 1e-13

    def test_plus_edges(self):
        g = make_grid(32)
        f = fn(g, lambda x: 0.1 * np.cos(x))
        h = fn(g, lambda x: 1.0 + 0.2 * np.sin(x))
        y_phys = strip_heights(pair(f, h), plus_strip(g))
        assert np.max(np.abs(y_phys[:, 0] - f.values)) < 1e-13
        assert np.max(np.abs(y_phys[:, -1] - h.values)) < 1e-13

    def test_plus_identity_for_unit_layer(self):
        g = make_grid(16)
        strip = plus_strip(g, 10)
        y_phys = strip_heights(pair(constant_fn(g, 0.0), constant_fn(g, 1.0)), strip)
        assert np.max(np.abs(y_phys - strip.y_nodes)) < 1e-14

    def test_strips_meet_on_the_lower_interface_and_increase(self):
        g = make_grid(32)
        f = fn(g, lambda x: 0.3 * np.sin(x))
        h = fn(g, lambda x: 1.0 + 0.2 * np.cos(2 * x))
        fh = pair(f, h)
        minus, plus = strip_heights(fh, minus_strip(g)), strip_heights(fh, plus_strip(g))
        assert np.array_equal(minus[:, -1], plus[:, 0])
        assert np.all(np.diff(minus, axis=1) > 0) and np.all(np.diff(plus, axis=1) > 0)


def chain_rule_coeffs_minus(f_expr, d, x_nodes, y_nodes):
    """Independent symbolic oracle: push the Laplacian through the inverse map.

    With q(x, Y) = (Y - f)/(f - d) the pullback satisfies
    Lap(v o inverse) o map = v_xx + 2 q_x v_xy + (q_x^2 + q_Y^2) v_yy + q_xx v_y,
    coefficients evaluated at Y = -d*y + (1+y) f.
    """
    x, y_s, big_y = sy.symbols("x y Y", real=True)
    q = (big_y - f_expr) / (f_expr - d)
    q_x = sy.diff(q, x)
    q_xx = sy.diff(q, x, 2)
    q_y = sy.diff(q, big_y)
    subs_y = -d * y_s + (1 + y_s) * f_expr
    exprs = [2 * q_x, q_x**2 + q_y**2, q_xx]
    funcs = [sy.lambdify((x, y_s), e.subs(big_y, subs_y), "numpy") for e in exprs]
    xx, yy = np.meshgrid(x_nodes, y_nodes, indexing="ij")
    return [np.asarray(fun(xx, yy), dtype=float) + np.zeros_like(xx) for fun in funcs]


def chain_rule_coeffs_plus(f_expr, h_expr, x_nodes, y_nodes):
    x, y_s, big_y = sy.symbols("x y Y", real=True)
    q = (big_y - f_expr) / (h_expr - f_expr)
    q_x = sy.diff(q, x)
    q_xx = sy.diff(q, x, 2)
    q_y = sy.diff(q, big_y)
    subs_y = y_s * h_expr + (1 - y_s) * f_expr
    exprs = [2 * q_x, q_x**2 + q_y**2, q_xx]
    funcs = [sy.lambdify((x, y_s), e.subs(big_y, subs_y), "numpy") for e in exprs]
    xx, yy = np.meshgrid(x_nodes, y_nodes, indexing="ij")
    return [np.asarray(fun(xx, yy), dtype=float) + np.zeros_like(xx) for fun in funcs]


class TestCoefficients:
    def test_flat_minus_is_laplacian(self):
        g = make_grid(16)
        c = coeffs_A_minus(pair(constant_fn(g, 0.0)), minus_strip(g))
        assert np.allclose(c.c_xx, 1.0) and np.allclose(c.c_yy, 1.0)
        assert np.max(np.abs(c.c_xy)) < 1e-14 and np.max(np.abs(c.c_y)) < 1e-14

    def test_constant_offset_minus(self):
        g = make_grid(16)
        cval, d = 0.5, -2.0
        c = coeffs_A_minus(pair(constant_fn(g, cval), d=d), minus_strip(g))
        assert np.allclose(c.c_yy, 1.0 / (cval - d) ** 2)
        assert np.max(np.abs(c.c_xy)) < 1e-14 and np.max(np.abs(c.c_y)) < 1e-14

    def test_flat_plus_unit_gap(self):
        g = make_grid(16)
        c = coeffs_A_plus(pair(constant_fn(g, 0.0), constant_fn(g, 1.0)), plus_strip(g))
        assert np.allclose(c.c_xx, 1.0) and np.allclose(c.c_yy, 1.0)
        assert np.max(np.abs(c.c_xy)) < 1e-14

    def test_flat_plus_gap_two(self):
        g = make_grid(16)
        c = coeffs_A_plus(pair(constant_fn(g, 0.0), constant_fn(g, 2.0)), plus_strip(g))
        assert np.allclose(c.c_yy, 0.25)
        assert np.max(np.abs(c.c_xy)) < 1e-14

    def test_chain_rule_oracle_minus(self):
        g = make_grid(32)
        strip = minus_strip(g)
        x = sy.Symbol("x", real=True)
        c = coeffs_A_minus(pair(fn(g, lambda t: 0.2 * np.sin(t))), strip)
        c_xy, c_yy, c_y = chain_rule_coeffs_minus(sy.Rational(1, 5) * sy.sin(x), -1.0,
                                                  g.nodes, strip.y_nodes)
        assert np.max(np.abs(c.c_xy - c_xy)) < 1e-10
        assert np.max(np.abs(c.c_yy - c_yy)) < 1e-10
        assert np.max(np.abs(c.c_y - c_y)) < 1e-10

    def test_chain_rule_oracle_plus(self):
        g = make_grid(32)
        strip = plus_strip(g)
        x = sy.Symbol("x", real=True)
        f = fn(g, lambda t: 0.2 * np.sin(t) - 0.1 * np.cos(2 * t))
        h = fn(g, lambda t: 1.0 + 0.15 * np.cos(t))
        c = coeffs_A_plus(pair(f, h), strip)
        f_expr = sy.Rational(1, 5) * sy.sin(x) - sy.Rational(1, 10) * sy.cos(2 * x)
        h_expr = 1 + sy.Rational(3, 20) * sy.cos(x)
        c_xy, c_yy, c_y = chain_rule_coeffs_plus(f_expr, h_expr, g.nodes, strip.y_nodes)
        assert np.max(np.abs(c.c_xy - c_xy)) < 1e-10
        assert np.max(np.abs(c.c_yy - c_yy)) < 1e-10
        assert np.max(np.abs(c.c_y - c_y)) < 1e-10

    def test_ellipticity_random_interfaces(self):
        rng = np.random.default_rng(23)
        g = make_grid(32)
        for _ in range(10):
            f_vals = 0.2 * rng.uniform(-1, 1, 3)
            h_vals = 0.2 * rng.uniform(-1, 1, 2)
            f = fn(g, lambda t: f_vals[0] * np.sin(t) + f_vals[1] * np.cos(2 * t) + f_vals[2])
            h = fn(g, lambda t: 1.5 + h_vals[0] * np.sin(t) + h_vals[1] * np.cos(3 * t))
            cm = coeffs_A_minus(pair(f, h), minus_strip(g))
            cp = coeffs_A_plus(pair(f, h), plus_strip(g))
            for c in (cm, cp):
                assert np.all(4 * c.c_xx * c.c_yy - c.c_xy**2 > 0)

    def test_inadmissible_raises(self):
        g = make_grid(16)
        from muskatlab.geometry import AdmissibilityError
        with pytest.raises(AdmissibilityError):
            InterfacePair(constant_fn(g, -2.0), constant_fn(g, 1.0), -1.0)
        with pytest.raises(AdmissibilityError):
            InterfacePair(constant_fn(g, 1.0), constant_fn(g, 0.5), -1.0)


class TestApplyOperator:
    def test_laplacian_on_fourier_mode(self):
        g = make_grid(64)
        strip = plus_strip(g, 16)
        c = coeffs_A_plus(pair(constant_fn(g, 0.0), constant_fn(g, 1.0)), strip)
        k = 3
        u = np.cos(k * g.nodes)[:, None] * (0.5 + 0.25 * strip.y_nodes)[None, :]
        out = apply_operator(c, StripField(strip, u)).values
        target = -k**2 * u
        # x-discretization error of the centered stencil, affine-in-y exact
        expected_err = abs(-(2 - 2 * np.cos(k * g.dx)) / g.dx**2 + k**2) * np.max(np.abs(u))
        assert np.max(np.abs(out - target)) < 1.2 * expected_err + 1e-12

    def test_constant_field_zero(self):
        g = make_grid(16)
        strip = minus_strip(g)
        c = coeffs_A_minus(pair(fn(g, lambda t: 0.1 * np.sin(t))), strip)
        out = apply_operator(c, StripField(strip, np.full(strip.shape, 4.2))).values
        assert np.max(np.abs(out)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_harmonic_pullback_second_order(self, m):
        result = check_harmonic_pullback_at((16, 32, 64), (m,))
        assert result.passed, result.detail

    def test_harmonic_pullback_plus_strip(self):
        result = check_harmonic_pullback_at((16, 32, 64), (2,))
        assert result.passed, result.detail


class TestBoundaryOperators:
    @pytest.mark.parametrize("edge", ["bottom", "top"])
    @pytest.mark.parametrize("n", [8, 32, 128, 256])
    def test_trace_dx_is_the_fft_derivative(self, n, edge):
        g = make_grid(n)
        strip = plus_strip(g, 8)
        fld = StripField(strip, np.random.default_rng(n).standard_normal(strip.shape))
        fft = spectral_derivative(PeriodicFn(g, trace_values(fld, edge)), 1).values
        assert np.max(np.abs(trace_dx(fld, edge) - fft)) <= 1e-13 * np.max(np.abs(fft))

    def test_minus_linear_field(self):
        g = make_grid(16)
        strip = minus_strip(g)
        f = constant_fn(g, 0.0)
        u = np.broadcast_to(strip.y_nodes + 1.0, strip.shape).copy()
        out = boundary_B_minus(pair(f), PAR, StripField(strip, u)).values
        assert np.max(np.abs(out - PAR.k / PAR.mu_minus)) < 1e-12

    def test_constant_field_zero(self):
        g = make_grid(16)
        f = fn(g, lambda t: 0.2 * np.cos(t))
        strip = minus_strip(g)
        out = boundary_B_minus(pair(f), PAR, StripField(strip, np.full(strip.shape, 2.0))).values
        assert np.max(np.abs(out)) < 1e-13

    def test_normal_derivative_identity_minus(self):
        # field = pullback of the physical height Y; B(f) Y = k/mu exactly
        g = make_grid(64)
        strip = minus_strip(g, 32)
        f = fn(g, lambda t: 0.3 * np.cos(t))
        fh = InterfacePair(f, constant_fn(g, 1.0), -1.0)
        u = strip_heights(fh, strip)
        out = boundary_B_minus(fh, PAR, StripField(strip, u)).values
        assert np.max(np.abs(out - PAR.k / PAR.mu_minus)) < 1e-6

    def test_normal_derivative_identity_top(self):
        g = make_grid(64)
        strip = plus_strip(g, 32)
        f = constant_fn(g, 0.0)
        h = fn(g, lambda t: 1.0 + 0.2 * np.sin(t))
        fh = InterfacePair(f, h, -1.0)
        u = strip_heights(fh, strip)
        out = boundary_B1(fh, PAR, StripField(strip, u)).values
        assert np.max(np.abs(out - PAR.k / PAR.mu_plus)) < 1e-6

    def test_plus_linear_field(self):
        g = make_grid(16)
        strip = plus_strip(g)
        f, h = constant_fn(g, 0.0), constant_fn(g, 1.0)
        u = np.broadcast_to(strip.y_nodes, strip.shape).copy()
        out_b = boundary_B_plus(pair(f, h), PAR, StripField(strip, u)).values
        out_b1 = boundary_B1(pair(f, h), PAR, StripField(strip, u)).values
        assert np.max(np.abs(out_b - PAR.k / PAR.mu_plus)) < 1e-12
        assert np.max(np.abs(out_b1 - PAR.k / PAR.mu_plus)) < 1e-12

    def test_harmonic_oracle_convergence(self):
        # co-normal trace of a pulled-back harmonic vs the analytic value
        m = 2
        errs = []
        for n in (16, 32, 64):
            g = make_grid(n)
            strip = StripGrid(g, n, "minus")
            f = fn(g, lambda t: 0.3 * np.cos(t))
            fh = InterfacePair(f, constant_fn(g, 1.0), -1.0)
            y_phys = strip_heights(fh, strip)
            u = np.exp(m * y_phys) * np.cos(m * g.nodes)[:, None]
            out = boundary_B_minus(fh, PAR, StripField(strip, u)).values
            fp = 0.3 * -np.sin(g.nodes) * 0 - 0.3 * np.sin(g.nodes)
            exact = (PAR.k / PAR.mu_minus) * m * np.exp(m * f.values) * (
                fp * np.sin(m * g.nodes) + np.cos(m * g.nodes))
            errs.append(np.max(np.abs(out - exact)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 1.6)


def random_pair(grid, rng, scale=0.2, d=-1.0):
    f = fn(grid, lambda t: scale * (np.sin(t) * rng.uniform(0.5, 1.0)
                                    + np.cos(2 * t) * rng.uniform(-0.5, 0.5)))
    h = fn(grid, lambda t: 1.2 + scale * np.cos(t) * rng.uniform(0.3, 1.0))
    return InterfacePair(f, h, d)


def coeff_stack(c):
    return np.stack([c.c_xx, c.c_xy, c.c_yy, c.c_y])


def along(moved, direction):
    """(delta_f, delta_h) that moves the interface moved ('f' or 'h') along direction."""
    return (direction, None) if moved == "f" else (None, direction)


def moved_pair(fh, moved, eps, direction):
    """fh with the interface moved ('f' or 'h') shifted by eps * direction."""
    if moved == "f":
        return pair(fh.f + eps * direction, fh.h, fh.d)
    return pair(fh.f, fh.h + eps * direction, fh.d)


BOUNDARY = {"B_minus": boundary_B_minus, "B_plus": boundary_B_plus, "B1": boundary_B1}


class TestFrechetA:
    def test_zero_direction(self):
        g = make_grid(16)
        fh = random_pair(g, np.random.default_rng(1))
        for strip, moved in ((minus_strip(g), "f"), (plus_strip(g), "f"), (plus_strip(g), "h")):
            out = frechet_A_along(fh, *along(moved, constant_fn(g, 0.0)), strip)
            assert np.max(np.abs(coeff_stack(out))) < 1e-14

    def test_flat_base_minus_f(self):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        direction = fn(g, lambda t: np.sin(2 * t))
        strip = minus_strip(g)
        out = frechet_A_along(fh, direction, None, strip)
        y = strip.y_nodes[None, :]
        dp = 2 * np.cos(2 * g.nodes)[:, None]
        dpp = -4 * np.sin(2 * g.nodes)[:, None]
        dvals = np.sin(2 * g.nodes)[:, None]
        assert np.max(np.abs(out.c_xy - (-2 * (1 + y) * dp))) < 1e-12
        assert np.max(np.abs(out.c_yy - (-2 * dvals))) < 1e-12
        assert np.max(np.abs(out.c_y - (-(1 + y) * dpp))) < 1e-12
        assert np.max(np.abs(out.c_xx)) == 0.0

    @pytest.mark.parametrize("coeffs,side,moved,d", [
        pytest.param(coeffs_A_minus, "minus", "f", -1.0, id="minus_f-minus"),
        pytest.param(coeffs_A_plus, "plus", "f", -1.0, id="plus_f-plus"),
        pytest.param(coeffs_A_plus, "plus", "h", -1.0, id="plus_h-plus"),
        # d comes from the pair, not from FluidParams (whose d is -1)
        pytest.param(coeffs_A_minus, "minus", "f", -2.0, id="minus_f-minus-deep"),
    ])
    def test_finite_difference_oracle(self, coeffs, side, moved, d):
        g = make_grid(32)
        rng = np.random.default_rng(29)
        fh = random_pair(g, rng, d=d)
        direction = PeriodicFn(g, rng.standard_normal(g.n_x))
        strip = StripGrid(g, 16, side)
        lin = coeff_stack(frechet_A_along(fh, *along(moved, direction), strip))

        def coeffs_at(eps):
            return coeff_stack(coeffs(moved_pair(fh, moved, eps, direction), strip))

        base = coeffs_at(0.0)
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            errs.append(np.max(np.abs((coeffs_at(eps) - base) / eps - lin)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 1.0) < 0.2)

    def test_linear_in_direction(self):
        g = make_grid(32)
        rng = np.random.default_rng(31)
        fh = random_pair(g, rng)
        u = PeriodicFn(g, rng.standard_normal(g.n_x))
        v = PeriodicFn(g, rng.standard_normal(g.n_x))
        strip = plus_strip(g)
        lhs = coeff_stack(frechet_A_along(fh, 1.5 * u - 0.5 * v, None, strip))
        rhs = (1.5 * coeff_stack(frechet_A_along(fh, u, None, strip))
               - 0.5 * coeff_stack(frechet_A_along(fh, v, None, strip)))
        assert np.max(np.abs(lhs - rhs)) < 1e-11


class TestFrechetB:
    def test_zero_direction(self):
        g = make_grid(16)
        rng = np.random.default_rng(2)
        fh = random_pair(g, rng)
        strip = minus_strip(g)
        field = StripField(strip, rng.standard_normal(strip.shape))
        out = frechet_B_along("B_minus", fh, constant_fn(g, 0.0), None, PAR, field)
        assert np.max(np.abs(out.values)) < 1e-14

    def test_plus_h_flat_base(self):
        g = make_grid(32)
        fh = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        direction = fn(g, lambda t: np.cos(t))
        strip = plus_strip(g)
        # field with unit dy at y = 0
        u = np.broadcast_to(strip.y_nodes, strip.shape).copy()
        out = frechet_B_along("B_plus", fh, None, direction, PAR, StripField(strip, u))
        target = -(PAR.k / PAR.mu_plus) * direction.values
        assert np.max(np.abs(out.values - target)) < 1e-12

    @pytest.mark.parametrize("name,side,moved,d", [
        pytest.param("B_minus", "minus", "f", -1.0, id="B_minus_f-minus"),
        pytest.param("B_plus", "plus", "f", -1.0, id="B_plus_f-plus"),
        pytest.param("B_plus", "plus", "h", -1.0, id="B_plus_h-plus"),
        pytest.param("B1", "plus", "f", -1.0, id="B1_f-plus"),
        pytest.param("B1", "plus", "h", -1.0, id="B1_h-plus"),
        # d enters only through the lower layer's gap, read from the pair
        pytest.param("B_minus", "minus", "f", -2.0, id="B_minus_f-minus-deep"),
    ])
    def test_finite_difference_oracle(self, name, side, moved, d):
        g = make_grid(32)
        rng = np.random.default_rng(37)
        fh = random_pair(g, rng, d=d)
        direction = PeriodicFn(g, rng.standard_normal(g.n_x))
        strip = StripGrid(g, 16, side)
        field = StripField(strip, rng.standard_normal(strip.shape))
        lin = frechet_B_along(name, fh, *along(moved, direction), PAR, field).values

        def boundary_at(eps):
            return BOUNDARY[name](moved_pair(fh, moved, eps, direction), PAR, field).values

        base = boundary_at(0.0)
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            errs.append(np.max(np.abs((boundary_at(eps) - base) / eps - lin)))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(slopes - 1.0) < 0.2)
