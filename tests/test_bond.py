import math
import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from subfbm import ModelParams
from subfbm.bond import (
    F1_VARIANTS,
    BondQuote,
    bond_price,
    f1_general,
)
from subfbm.validation import _simpson


def f1_scipy_oracle(t, maturity, p):
    """Same exponent, evaluated with scipy's quadrature instead of the closed form.

    The integration variable runs over elapsed time v in [0, T - t]; for
    t = 0 the (T - v) factor is singular at the right endpoint, handled by
    scipy's algebraic-weight rule.
    """
    a, h = p.alpha, p.hurst
    ga = math.gamma(a)
    beta = 2.0 * a * h
    tau = maturity - t
    if t == 0.0:
        vol, _ = sp_integrate.quad(lambda v: v ** 2, 0.0, maturity,
                                   weight="alg", wvar=(0.0, beta - 1.0))
        drift, _ = sp_integrate.quad(lambda v: v, 0.0, maturity,
                                     weight="alg", wvar=(0.0, a - 1.0))
    else:
        vol, _ = sp_integrate.quad(
            lambda v: (maturity - v) ** (beta - 1.0) * v ** 2, 0.0, tau, limit=200)
        drift, _ = sp_integrate.quad(
            lambda v: (maturity - v) ** (a - 1.0) * v, 0.0, tau, limit=200)
    return (h * p.sigma_r ** 2 / ga ** (2.0 * h) * vol - p.mu_r / ga * drift)


def f1_terms_mpmath(t, maturity, p, variant):
    """(vol term, drift term) of f1 as exact power sums in 50-digit mpmath.

    With u = T - v the integrals are int_t^T u^(e-1) (T-u)^k du; expanding
    (T-u)^k leaves sums of (T^j - t^j) / j, whose cancellation near expiry
    costs at most 27 of the 50 digits at tau/T = 1e-9.
    """
    with mp.workdps(50):
        t, big = mp.mpf(t), mp.mpf(maturity)
        a, h = mp.mpf(p.alpha), mp.mpf(p.hurst)
        ga = mp.gamma(a)

        def power_sum(e, coeffs):  # int_t^T u^(e-1) sum_k coeffs[k] (T-u)^k du
            return sum(c * mp.binomial(k, i) * big ** (k - i) * (-1) ** i
                       * (big ** (e + i) - t ** (e + i)) / (e + i)
                       for k, c in enumerate(coeffs) for i in range(k + 1))

        vol = h * mp.mpf(p.sigma_r) ** 2 / ga ** (2 * h) * power_sum(2 * a * h, (0, 0, 1))
        if variant == "theorem_statement":
            coef = 2 * h * mp.mpf(p.mu_r) / ga ** (2 * h)
        else:
            coef = mp.mpf(p.mu_r) / ga
        return vol, -coef * power_sum(a, (0, 1))


class TestClassicalLimits:
    def test_exact_at_alpha_one_h_half(self):
        # alpha = 1, H = 1/2 collapses every integral to elementary calculus
        for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
            for mu, sg in ((1.0, 1.0), (0.05, 0.2), (0.0, 1.0), (1.0, 0.0)):
                p = ModelParams(alpha=1.0, hurst=0.5, mu_r=mu, sigma_r=sg)
                got = bond_price(1.0, 0.0, tau, p).price
                want = math.exp(-tau + sg ** 2 * tau ** 3 / 6.0 - mu * tau ** 2 / 2.0)
                assert got == pytest.approx(want, rel=1e-9)

    def test_classical_frozen_value(self):
        # unit parameters, tau = 1: exp(-1 + 1/6 - 1/2) = exp(-4/3)
        p = ModelParams(alpha=1.0, hurst=0.5, mu_r=1.0, sigma_r=1.0)
        assert bond_price(1.0, 0.0, 1.0, p).price == pytest.approx(
            0.2635971381157267, rel=1e-15)

    def test_cubic_limit_alpha_near_one(self):
        for tau in (0.25, 0.5, 1.0, 2.0):
            for mu in (0.1, 1.0):
                for sg in (0.1, 1.0):
                    p = ModelParams(alpha=1.0 - 1e-8, hurst=0.5, mu_r=mu, sigma_r=sg)
                    got = f1_general(0.0, tau, p)
                    want = sg ** 2 * tau ** 3 / 6.0 - mu * tau ** 2 / 2.0
                    assert got == pytest.approx(want, rel=1e-4)

    def test_fbs_limit_alpha_near_one(self):
        for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
            for maturity in (0.5, 1.0, 2.0):
                p = ModelParams(alpha=1.0 - 1e-8, hurst=hurst)
                got = bond_price(1.0, 0.0, maturity, p).price
                # fBm rate without trapping, unit parameters:
                # f1 = T^(2H+2) / ((2H+1)(2H+2)) - T^2 / 2
                h2 = 2.0 * hurst
                f1 = maturity ** (h2 + 2.0) / ((h2 + 1.0) * (h2 + 2.0)) - maturity ** 2 / 2.0
                assert got == pytest.approx(math.exp(-maturity + f1), rel=1e-4)


class TestQuadratureCrossOracles:
    @pytest.mark.parametrize("alpha,hurst", [(0.9, 0.7), (0.7, 0.9), (0.9, 0.5)])
    def test_t_zero_beta_closed_form(self, alpha, hurst):
        # at t = 0 both integrals are Beta functions
        p = ModelParams(alpha=alpha, hurst=hurst)
        for maturity in (0.5, 1.0, 2.0):
            beta = 2.0 * alpha * hurst
            ga = math.gamma(alpha)
            vol = 2.0 * maturity ** (beta + 2.0) / (beta * (beta + 1.0) * (beta + 2.0))
            drift = maturity ** (alpha + 1.0) / (alpha * (alpha + 1.0))
            want = hurst / ga ** (2.0 * hurst) * vol - drift / ga
            assert f1_general(0.0, maturity, p) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("variant", F1_VARIANTS)
    @pytest.mark.parametrize("alpha,hurst", [(0.9, 0.7), (1.0, 0.5), (1.002 / 1.7, 0.7)])
    def test_against_mpmath_power_sums(self, alpha, hurst, variant):
        # near expiry f1 is a small difference of large power sums, and the
        # series takes over below tau/T = 0.25; both sides of that switch and
        # tau/T down to 1e-9 must keep full relative accuracy
        for mu_r, sigma_r in ((1.0, 1.0), (1.0, 0.0), (0.0, 1.0)):
            p = ModelParams(alpha=alpha, hurst=hurst, mu_r=mu_r, sigma_r=sigma_r)
            for maturity in (0.5, 5.0):
                for x in (1.0, 0.3, 0.25 + 1e-12, 0.25 - 1e-12, 1e-2, 1e-4, 1e-6, 1e-9):
                    t = maturity - maturity * x
                    vol, drift = f1_terms_mpmath(t, maturity, p, variant)
                    err = abs(f1_general(t, maturity, p, variant=variant) - float(vol + drift))
                    assert err <= 1e-13 * float(abs(vol) + abs(drift)), (p, maturity, x)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.9])
    def test_against_scipy(self, t):
        p = ModelParams(alpha=0.9, hurst=0.7, mu_r=0.8, sigma_r=1.3)
        got = f1_general(t, 1.0, p)
        assert got == pytest.approx(f1_scipy_oracle(t, 1.0, p), abs=1e-10)

    def test_against_scipy_low_beta(self):
        # 2 alpha H < 1 makes even the t > 0 integral carry a steep weight
        p = ModelParams(alpha=0.9, hurst=0.52)
        got = f1_general(0.0, 1.5, p)
        assert got == pytest.approx(f1_scipy_oracle(0.0, 1.5, p), abs=1e-10)

    def test_ode_march(self):
        # d f1/d tau reproduces the integrand; Simpson's rule on it (the RK4
        # march of an ODE free of f1) is a wholly independent route to the same exponent
        maturity = 1.0
        grid = np.linspace(0.0, 0.9, 1441)
        for alpha in (0.9, 0.7):
            for hurst in (0.9, 0.7):
                p = ModelParams(alpha=alpha, hurst=hurst)
                ga = math.gamma(alpha)
                c_vol = p.sigma_r ** 2 * hurst / ga ** (2.0 * hurst)
                c_drift = p.mu_r / ga

                def rate(tau):
                    rem = maturity - tau
                    return (c_vol * rem ** (2.0 * alpha * hurst - 1.0) * tau ** 2
                            - c_drift * rem ** (alpha - 1.0) * tau)

                y = _simpson(rate, grid)
                for i in (240, 480, 720, 960, 1200, 1440):
                    got = f1_general(maturity - grid[i], maturity, p)
                    assert got == pytest.approx(y[i], abs=1e-6)


class TestBondPrice:
    def test_par_at_expiry(self, unit_params):
        q = bond_price(1.0, 1.0, 1.0, unit_params)
        assert q.price == 1.0
        assert q.f1 == 0.0 and q.f2 == 0.0

    def test_decreasing_in_rate(self, unit_params):
        prices = [bond_price(r, 0.0, 1.0, unit_params).price
                  for r in (-0.5, 0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_positive_over_sweep(self, unit_params):
        for maturity in np.linspace(0.05, 2.0, 40):
            q = bond_price(1.0, 0.0, maturity, unit_params)
            assert 0.0 < q.price < math.exp(-q.f2 + abs(q.f1)) + 1.0

    def test_quote_fields_consistent(self, unit_params):
        q = bond_price(0.7, 0.2, 1.3, unit_params)
        assert q.f2 == pytest.approx(1.1)
        assert q.price == pytest.approx(math.exp(-0.7 * q.f2 + q.f1), rel=1e-14)

    def test_quote_fields_are_frozen(self, unit_params):
        # bond_price builds its quote around the float price of _bond, which
        # warrant_price shares; the fields are those of the quote _bond built
        want = {
            "derivation_consistent": BondQuote(price=0.31741079541436457, f1=-0.3775584594506923,
                                               f2=1.1, t=0.2, maturity=1.3),
            "theorem_statement": BondQuote(price=0.2546398064546765, f1=-0.5979052560829032,
                                           f2=1.1, t=0.2, maturity=1.3),
        }
        for variant, quote in want.items():
            assert bond_price(0.7, 0.2, 1.3, unit_params, variant) == quote
            assert bond_price(0.7, 1.3, 1.3, unit_params, variant) == BondQuote(
                price=1.0, f1=0.0, f2=0.0, t=1.3, maturity=1.3)

    def test_overflow_message_is_frozen(self, unit_params):
        with pytest.raises(ValueError) as info:
            bond_price(-1000.0, 0.0, 1.0, unit_params)
        assert str(info.value) == ("bond price overflows: exponent -r (T - t) + f1 = "
                                   "999.5901885568239 at r=-1000.0, t=0.0, maturity=1.0")

    def test_rejects_bad_times(self, unit_params):
        with pytest.raises(ValueError):
            bond_price(1.0, 1.5, 1.0, unit_params)
        with pytest.raises(ValueError):
            bond_price(1.0, -0.1, 1.0, unit_params)

    def test_f1_needs_time_before_maturity(self, unit_params):
        # bond_price returns 1 at expiry; f1 itself is undefined there
        with pytest.raises(ValueError, match="f1_general needs t < maturity"):
            f1_general(1.0, 1.0, unit_params)

    def test_rejects_non_finite_inputs(self, unit_params):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t and maturity must be finite"):
                bond_price(1.0, bad, 1.0, unit_params)
            with pytest.raises(ValueError, match="t and maturity must be finite"):
                bond_price(1.0, 0.0, bad, unit_params)
            with pytest.raises(ValueError, match="rate must be finite"):
                bond_price(bad, 0.0, 1.0, unit_params)

    def test_overflow_is_a_value_error(self, unit_params):
        # exp(-r (T - t) + f1) past the largest float names its inputs
        msg = r"overflows: exponent .* = 999\.59.* at r=-1000\.0, t=0\.0, maturity=1\.0"
        with pytest.raises(ValueError, match=msg):
            bond_price(-1000.0, 0.0, 1.0, unit_params)
        # just below the limit the price is finite, and at r = 1000 it underflows to 0
        assert math.isfinite(bond_price(-700.0, 0.0, 1.0, unit_params).price)
        assert bond_price(1000.0, 0.0, 1.0, unit_params).price == 0.0

    @pytest.mark.parametrize("maturity,sigma_r", [(1.0, 1e200), (1e300, 1.0)])
    def test_float_overflow_in_f1_is_a_value_error(self, unit_params, maturity, sigma_r):
        # sigma_r ** 2 and maturity ** k overflow Python floats, which raise
        # OverflowError; callers catch ValueError only, as for every bad input
        params = replace(unit_params, sigma_r=sigma_r)
        msg = re.escape(f"f1 overflows at t=0.0, maturity={maturity!r}: the inputs are out of float range")
        with pytest.raises(ValueError, match=msg):
            f1_general(0.0, maturity, params)
        with pytest.raises(ValueError, match=msg):
            bond_price(1.0, 0.0, maturity, params)



class TestVariants:
    def test_variant_tokens(self):
        assert F1_VARIANTS == ("derivation_consistent", "theorem_statement")

    def test_unknown_variant_rejected(self, unit_params):
        with pytest.raises(ValueError):
            f1_general(0.0, 1.0, unit_params, variant="bogus")

    def test_drift_coefficient_relation(self, unit_params):
        # the two published drift coefficients differ by the exact factor
        # 2 H Gamma(alpha)^(1 - 2H); the vol term is shared
        p = unit_params
        ga = math.gamma(p.alpha)
        factor = 2.0 * p.hurst * ga ** (1.0 - 2.0 * p.hurst)
        base = f1_general(0.0, 1.0, p)
        thm = f1_general(0.0, 1.0, p, variant="theorem_statement")
        vol_only = f1_general(0.0, 1.0, replace(p, mu_r=0.0))
        drift_base = base - vol_only
        drift_thm = thm - vol_only
        assert drift_thm == pytest.approx(factor * drift_base, rel=1e-11)
        assert thm != base

    def test_variants_agree_when_driftless(self):
        p = ModelParams(mu_r=0.0)
        assert f1_general(0.0, 1.0, p) == f1_general(0.0, 1.0, p, variant="theorem_statement")
