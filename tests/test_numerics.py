import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sp_integrate

from subfbm import ModelParams
from subfbm.numerics import _power_poly_integral, gamma, normal_cdf
from subfbm import validation
from subfbm.validation import _simpson


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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="normal_cdf is undefined for nan"):
            normal_cdf(math.nan)

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
        # e = 1: no weight, int_0^1 (1-u)^2 du = 1/3
        got = _power_poly_integral(0.0, 1.0, 1.0, (0.0, 0.0, 1.0))
        assert got == pytest.approx(1.0 / 3.0, rel=1e-14)


def _binomial_power_sums(t, maturity, exponent, coeffs):
    """The power-sum branch of _power_poly_integral with its weights built
    from the binomial expansion by math.comb, for any number of coefficients."""
    c = [ck * maturity ** k for k, ck in enumerate(coeffs)]
    ratio = 1.0 - (maturity - t) / maturity
    total = 0.0
    for i in range(len(c)):
        w = (-1) ** i * sum(math.comb(k, i) * c[k] for k in range(i, len(c)))
        total = total + w / (exponent + i) * (1.0 - ratio ** (exponent + i))
    return maturity ** exponent * total


class TestPowerSums:
    """The closed-form weights of the power-sum branch (tau/T >= 1/4) give
    the binomial expansion's results to the last bit."""

    @staticmethod
    def _cases(n):
        rng = random.Random(17)
        for _ in range(n):
            maturity = rng.choice((0.5, 1.0, 5.0, rng.uniform(0.01, 10.0)))
            coeffs = tuple(rng.choice((0.0, 1.0, rng.uniform(-3.0, 3.0)))
                           for _ in range(rng.randint(1, 3)))
            yield maturity, rng.uniform(0.01, 1.99), coeffs

    def test_float_t(self):
        for maturity, e, coeffs in self._cases(2000):
            for t in (0.0, 0.3 * maturity, 0.7 * maturity):
                got = _power_poly_integral(t, maturity, e, coeffs)
                assert got == _binomial_power_sums(t, maturity, e, coeffs), (t, maturity, e, coeffs)

    def test_array_t(self):
        for maturity, e, coeffs in self._cases(500):
            t = np.array([0.0, 0.1, 0.5, 0.7]) * maturity
            got = _power_poly_integral(t, maturity, e, coeffs)
            assert np.array_equal(got, _binomial_power_sums(t, maturity, e, coeffs))


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
        # f1 and the variance integrate at most a quadratic in T - u; the
        # series (t = 0.9), the power sums (t = 0) and an array t reject more
        for t in (0.9, 0.0, np.array([0.0, 0.9])):
            with pytest.raises(ValueError, match="at most 3 coefficients"):
                _power_poly_integral(t, 1.0, 0.7, (0.0, 0.0, 0.0, 1.0))
        # nor an exponent of 2 or more, for which |g_n| can grow
        with pytest.raises(ValueError, match="0 < e < 2"):
            _power_poly_integral(0.9, 1.0, 2.5, (1.0,))


class TestSimpson:
    # the quadrature of validate's cross-check of f1: the RK4 step of a
    # right-hand side free of y, summed over the grid
    def test_exact_for_a_cubic(self):
        grid = np.linspace(0.0, 2.0, 9)
        got = _simpson(lambda t: 4.0 * t ** 3 - 3.0 * t ** 2 + 1.0, grid)
        want = grid ** 4 - grid ** 3 + grid
        assert got[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_fourth_order(self):
        # exp is no polynomial: the error falls about 16x per halving of h
        def err(n):
            return abs(_simpson(np.exp, np.linspace(0.0, 1.0, n + 1))[-1] - (math.e - 1.0))

        assert err(20) / err(40) == pytest.approx(16.0, rel=0.05)
        assert err(40) / err(80) == pytest.approx(16.0, rel=0.05)

    @pytest.mark.parametrize("alpha,hurst", [(0.9, 0.9), (0.9, 0.7), (0.7, 0.9), (0.7, 0.7)])
    def test_matches_rk4_march(self, alpha, hurst):
        # validate's ODE check: Simpson's rule is the RK4 march of y' = rate(t)
        # on float64 elements, up to the last bits of the rate's powers
        params = ModelParams(alpha=alpha, hurst=hurst)
        ga = gamma(alpha)
        c_vol = params.sigma_r ** 2 * hurst / ga ** (2.0 * hurst)
        c_drift = params.mu_r / ga

        def rate(tau):
            rem = 1.0 - tau
            return (c_vol * rem ** (2.0 * alpha * hurst - 1.0) * tau ** 2
                    - c_drift * rem ** (alpha - 1.0) * tau)

        grid = np.linspace(0.0, 0.9, 721)
        want = np.empty_like(grid)
        want[0] = 0.0
        for i in range(grid.size - 1):
            h = grid[i + 1] - grid[i]
            ti, yi = grid[i], want[i]
            k1 = rate(ti)
            k2 = rate(ti + 0.5 * h)
            k3 = k2
            k4 = rate(ti + h)
            want[i + 1] = yi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.testing.assert_allclose(_simpson(rate, grid), want, rtol=0.0, atol=1e-16)

    def test_non_finite_rate_fails_the_ode_check(self, monkeypatch):
        # a NaN rate must fail the check: max(0.0, nan) is 0.0, so a running
        # max() over the gaps would report it as a pass
        monkeypatch.setattr(validation, "gamma", lambda a: math.nan)
        res = validation._check_bond_ode_cross(quick=True)
        assert not res.passed
        assert "nan" in res.observed
