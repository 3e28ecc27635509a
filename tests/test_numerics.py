import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

from subfbm.numerics import _power_poly_integral, gamma, normal_cdf
from subfbm.validation import _rk4_solve


class TestGamma:
    def test_against_math_gamma(self):
        # math.gamma is an independent implementation; cover the reflection
        # branch (x < 0.5), half-integers, and large arguments
        xs = [0.05, 0.1, 0.3, 0.49, 0.5, 0.51, 0.7, 0.9, 1.0, 1.5, 2.0,
              3.7, 5.0, 10.5, 20.0, 50.0]
        for x in xs:
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)

    def test_integer_factorials(self):
        for n in range(1, 15):
            assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-14)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_frozen_value(self):
        # Gamma(0.9) enters every default-market price through 1/Gamma(alpha)
        assert gamma(0.9) == pytest.approx(1.0686287021193193, rel=1e-13)

    def test_nonpositive_raises(self):
        # domain is x > 0; nothing in the pricers needs the left half-line
        for x in (0.0, -0.5, -1.0, math.nan):
            with pytest.raises(ValueError):
                gamma(x)

    @given(st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)


class TestNormalCdf:
    def test_frozen_values(self):
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-15)
        assert normal_cdf(-1.96) == pytest.approx(0.0249978951482205, abs=1e-15)

    def test_limits(self):
        assert normal_cdf(40.0) == 1.0
        assert normal_cdf(-40.0) == 0.0
        assert normal_cdf(math.inf) == 1.0
        assert normal_cdf(-math.inf) == 0.0

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


class TestSingularQuadrature:
    """_power_poly_integral(t, T, e, c) = int_t^T u^(e-1) sum_k c[k] (T-u)^k du:
    a polynomial against the weight u^(e-1), singular at u = 0 for e < 1,
    in closed form."""

    def test_pure_weight(self):
        # integral of u^(alpha-1) over [0, b] is b^alpha / alpha
        for alpha in (0.6, 0.9, 1.0):
            got = _power_poly_integral(0.0, 2.0, alpha, (1.0,))
            assert got == pytest.approx(2.0 ** alpha / alpha, rel=1e-14)

    def test_linear_against_beta(self):
        # integral of (b-u) u^(alpha-1) over [0, b] = b^(alpha+1) B(2, alpha)
        alpha = 0.7
        got = _power_poly_integral(0.0, 1.5, alpha, (0.0, 1.0))
        beta = gamma(2.0) * gamma(alpha) / gamma(2.0 + alpha)
        assert got == pytest.approx(1.5 ** (alpha + 1.0) * beta, rel=1e-14)

    def test_against_scipy_weighted(self):
        # int_0.3^1.7 v^2 (1.7 - v)^(alpha-1) dv: with u = 1.7 - v the weight is
        # u^(alpha-1) on [0, 1.4] and v^2 = (0.3 + (1.4 - u))^2
        alpha = 0.8
        got = _power_poly_integral(0.0, 1.4, alpha, (0.09, 0.6, 1.0))
        want, err = sp_integrate.quad(
            lambda v: v ** 2, 0.3, 1.7, weight="alg", wvar=(0.0, alpha - 1.0),
        )
        assert got == pytest.approx(want, abs=max(1e-13, 10 * err))
        # lower limits t > 0 cut the singular end off: the power-sum branch
        # runs at t = 0.9, the series branch at t = 1.3
        for t in (0.9, 1.3):
            got = _power_poly_integral(t, 1.4, alpha, (0.09, 0.6, 1.0))
            want, err = sp_integrate.quad(
                lambda v: v ** 2 * (1.7 - v) ** (alpha - 1.0), 0.3, 1.7 - t)
            assert got == pytest.approx(want, abs=max(1e-13, 10 * err))

    def test_alpha_one_is_plain_quadrature(self):
        # e = 1: no weight, int_0^1 (1-u)^3 du = 1/4
        got = _power_poly_integral(0.0, 1.0, 1.0, (0.0, 0.0, 0.0, 1.0))
        assert got == pytest.approx(0.25, rel=1e-14)


class TestSeriesBranches:
    """The scalar series of _power_poly_integral (pure Python, stopped early)
    against its array branch (numpy, all _SERIES_TERMS terms)."""

    # the exponents 2 alpha H and alpha of the vol and drift terms
    EXPONENTS = sorted({e for alpha in (0.56, 0.7, 0.9, 1.0) for hurst in (0.5, 0.7, 0.75, 0.94)
                        for e in (2.0 * alpha * hurst, alpha)})

    # at T = 1 and e = 1.5, g_1 = -1/2 and g_2 = -1/8, so with (4, 1, 1) (the
    # variance's coefficients at sigma_v = 2, sigma_r = 1, rho = 0.25) the x^3
    # term 4 g_2 + g_1 + 1 is exactly 0 while the x^4 term is not
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.0, 1.0), (1.0, 0.3, 0.2),
                                        (4.0, 1.0, 1.0)])
    def test_scalar_matches_array(self, coeffs):
        for maturity in (0.5, 1.0, 5.0):
            for frac in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.2499):
                t = maturity - frac * maturity
                for e in self.EXPONENTS:
                    got = _power_poly_integral(t, maturity, e, coeffs)
                    want = _power_poly_integral(np.array([t]), maturity, e, coeffs)[0]
                    assert type(got) is float
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0), (maturity, frac, e)

    def test_scalar_series_rejects_cubic(self):
        # f1 and the variance integrate at most a quadratic in T - u
        with pytest.raises(ValueError, match="at most 3 coefficients"):
            _power_poly_integral(0.9, 1.0, 0.7, (0.0, 0.0, 0.0, 1.0))
        # nor an exponent of 2 or more, for which |g_n| can grow
        with pytest.raises(ValueError, match="0 < e < 2"):
            _power_poly_integral(0.9, 1.0, 2.5, (1.0,))


class TestRk4:
    # the integrator of validate's ODE cross-check of f1
    def test_exponential(self):
        grid = np.linspace(0.0, 1.0, 201)
        y = _rk4_solve(lambda t, y: y, 1.0, grid)
        assert y[-1] == pytest.approx(math.e, rel=1e-9)

    def test_nonautonomous(self):
        grid = np.linspace(0.0, 2.0, 401)
        y = _rk4_solve(lambda t, y: -2.0 * t * y, 1.0, grid)
        assert y[-1] == pytest.approx(math.exp(-4.0), rel=1e-8)

    def test_fourth_order(self):
        def err(n):
            grid = np.linspace(0.0, 1.0, n + 1)
            return abs(_rk4_solve(lambda t, y: y, 1.0, grid)[-1] - math.e)

        assert err(40) / err(80) == pytest.approx(16.0, rel=0.1)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            _rk4_solve(lambda t, y: y, 1.0, np.array([0.0, 0.5, 0.4]))
