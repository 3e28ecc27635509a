import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sp_integrate

from subfbm import ModelParams
from subfbm.bond import bond_price
from subfbm.warrant import (
    WARRANT_VARIANTS,
    WarrantTerms,
    dilution_payoff,
    variance_integral,
    warrant_price,
    warrant_value_forward,
)


def vi_closed_form(t, maturity, p):
    """Beta-function evaluation of the variance integral.

    int_t^T (a + b(T-v) + c(T-v)^2) v^(beta-1) dv expands into incomplete
    power integrals; at t = 0 each term is elementary.
    """
    beta = 2.0 * p.alpha * p.hurst
    a = p.sigma_v ** 2
    b = 2.0 * p.rho * p.sigma_r * p.sigma_v
    c = p.sigma_r ** 2
    T = maturity

    def power_piece(k):
        # int_t^T (T - v)^k v^(beta-1) dv via scipy for t > 0, exact at t = 0
        if t == 0.0:
            # B(k+1, beta) T^(k+beta) with B in factorial form
            num = math.gamma(k + 1.0) * math.gamma(beta) / math.gamma(k + 1.0 + beta)
            return num * T ** (k + beta)
        val, _ = sp_integrate.quad(
            lambda v: (T - v) ** k * v ** (beta - 1.0), t, T, limit=200)
        return val

    raw = a * power_piece(0) + b * power_piece(1) + c * power_piece(2)
    return 2.0 * p.hurst / math.gamma(p.alpha) ** (2.0 * p.hurst) * raw


class TestVarianceIntegral:
    def test_frozen_value_at_default_market(self, unit_params):
        # unit-parameter market at t = 0, T = 1, evaluated two independent ways
        got = variance_integral(0.0, 1.0, unit_params)
        assert got == pytest.approx(1.7353804448277368, rel=1e-11)
        assert got == pytest.approx(vi_closed_form(0.0, 1.0, unit_params), rel=1e-11)

    @pytest.mark.parametrize("t", [0.0, 0.2, 0.7, 1.0 - 1e-2, 1.0 - 1e-4])
    @pytest.mark.parametrize("alpha,hurst", [(0.9, 0.7), (0.9, 0.52), (0.7, 0.9),
                                             (1.002 / 1.7, 0.7)])
    def test_against_independent_route(self, t, alpha, hurst):
        # near expiry, without asset vol (sigma_hat^2 ~ (T-v)^2), at rho = -1
        # (sigma_hat^2 touches zero) and near alpha (1 + H) = 1
        for sigma_v, rho in ((0.8, -0.3), (0.0, -0.3), (0.8, -1.0)):
            p = ModelParams(alpha=alpha, hurst=hurst, sigma_v=sigma_v, sigma_r=1.2, rho=rho)
            got = variance_integral(t, 1.0, p)
            assert got == pytest.approx(vi_closed_form(t, 1.0, p), rel=1e-11)

    def test_rate_free_closed_form(self):
        # sigma_r = 0 leaves 2 H sigma_v^2 (T^beta - t^beta) / (beta Gamma^2H)
        p = ModelParams(sigma_r=0.0, sigma_v=0.4)
        beta = 2.0 * p.alpha * p.hurst
        for t, T in ((0.0, 1.0), (0.3, 1.0), (0.5, 2.0)):
            want = (2.0 * p.hurst * p.sigma_v ** 2 * (T ** beta - t ** beta)
                    / (beta * math.gamma(p.alpha) ** (2.0 * p.hurst)))
            assert variance_integral(t, T, p) == pytest.approx(want, rel=1e-11)

    def test_zero_when_vol_free(self):
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        assert variance_integral(0.0, 1.0, p) == 0.0

    def test_monotone_in_t(self, unit_params):
        ts = (0.0, 0.3, 0.6, 0.9)
        vals = [variance_integral(t, 1.0, unit_params) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # one call over an array of times, both branches of the closed form
        np.testing.assert_allclose(variance_integral(np.array(ts), 1.0, unit_params),
                                   vals, rtol=1e-15)

    @pytest.mark.parametrize("t", [0.5, 0, np.float64(0.5), np.array(0.5)],
                             ids=["float", "int", "float64", "0-d"])
    def test_scalar_gives_python_float(self, unit_params, t):
        got = variance_integral(t, 1.0, unit_params)
        assert type(got) is float
        assert got == variance_integral(float(t), 1.0, unit_params)

    def test_scalar_matches_array_through_a_cancelling_term(self):
        # sigma_hat^2 coefficients (4, 1, 1) at 2 alpha H = 1.5: the x^3 term
        # of the near-expiry series is exactly 0 (see test_numerics)
        p = ModelParams(alpha=1.0, hurst=0.75, sigma_v=2.0, sigma_r=1.0, rho=0.25)
        ts = [0.76, 0.8, 0.9, 0.999, 1.0 - 1e-7]
        np.testing.assert_allclose([variance_integral(t, 1.0, p) for t in ts],
                                   variance_integral(np.array(ts), 1.0, p), rtol=1e-15, atol=0)

    def test_array_gives_ndarray(self, unit_params):
        assert isinstance(variance_integral(np.array([0.0, 0.5]), 1.0, unit_params), np.ndarray)

    def test_rejects_bad_times(self, unit_params):
        with pytest.raises(ValueError):
            variance_integral(1.0, 1.0, unit_params)
        with pytest.raises(ValueError):
            variance_integral(-0.1, 1.0, unit_params)
        with pytest.raises(ValueError):
            variance_integral(np.array([0.5, 1.0]), 1.0, unit_params)


class TestBlackScholesLimit:
    def test_exact(self, bs_market, bs_call):
        terms, params = bs_market
        res = warrant_price(100.0, 0.05, 0.0, terms, params)
        want = bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
        assert res.price == pytest.approx(want, abs=1e-10)
        assert res.d1 == pytest.approx(0.35, abs=1e-12)
        assert res.d2 == pytest.approx(0.15, abs=1e-12)
        assert res.variance_integral == pytest.approx(0.04, rel=1e-12)

    def test_paper_literal_double_discounts_strike_leg(self, bs_market):
        terms, params = bs_market
        default = warrant_price(100.0, 0.05, 0.0, terms, params)
        literal = warrant_price(100.0, 0.05, 0.0, terms, params, variant="paper_literal")
        # the two prices differ by (1 - e^{-r tau}) times the strike leg
        from subfbm.numerics import normal_cdf
        p = bond_price(0.05, 0.0, 1.0, params).price
        leg = terms.strike * p * normal_cdf(default.d2)
        assert default.price - literal.price == pytest.approx(
            -leg * (1.0 - math.exp(-0.05)), rel=1e-12)
        assert literal.price > default.price


class TestWarrantPrice:
    def test_expiry_is_diluted_payoff(self, unit_params):
        terms = WarrantTerms(shares_outstanding=2.0, warrants_outstanding=1.0,
                             shares_per_warrant=1.0, strike=0.5, maturity=1.0)
        res = warrant_price(3.0, 1.0, 1.0, terms, unit_params)
        want = (1.0 * 3.0 - 2.0 * 0.5) / (2.0 + 1.0)
        assert res.price == pytest.approx(want, rel=1e-15)
        assert res.d1 == math.inf and res.d2 == math.inf
        out = warrant_price(0.1, 1.0, 1.0, terms, unit_params)
        assert out.price == 0.0
        assert out.d1 == -math.inf

    def test_degenerate_variance_is_discounted_intrinsic(self):
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        terms = WarrantTerms()
        res = warrant_price(2.0, 1.0, 0.0, terms, p)
        bond = bond_price(1.0, 0.0, 1.0, p).price
        assert res.variance_integral == 0.0
        assert res.price == pytest.approx(0.5 * max(2.0 - bond, 0.0), rel=1e-14)

    def test_degenerate_variance_out_of_the_money(self):
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        bond = bond_price(1.0, 0.0, 1.0, p).price
        for variant in WARRANT_VARIANTS:
            res = warrant_price(0.5 * bond, 1.0, 0.0, WarrantTerms(), p, variant=variant)
            assert res.price == 0.0
            assert res.d1 == res.d2 == -math.inf

    def test_degenerate_variance_paper_literal_in_the_money(self):
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        res = warrant_price(2.0, 1.0, 0.0, WarrantTerms(), p, variant="paper_literal")
        bond = bond_price(1.0, 0.0, 1.0, p).price
        assert res.price == pytest.approx(0.5 * (2.0 - math.exp(-1.0) * bond), rel=1e-14)
        assert res.d1 == res.d2 == math.inf

    def test_degenerate_variance_negative_literal_price(self):
        # with r < 0 the literal strike leg N X P exp(-r tau) can exceed k V
        # although k V > N X P; d1 and d2 keep their vi -> 0 limit, the sign
        # of log(k V / (N X P)), while the price goes negative
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        bond = bond_price(-0.5, 0.0, 1.0, p).price
        res = warrant_price(1.01 * bond, -0.5, 0.0, WarrantTerms(), p, variant="paper_literal")
        assert res.price == pytest.approx(0.5 * bond * (1.01 - math.exp(0.5)), rel=1e-14)
        assert res.price < 0.0
        assert res.d1 == res.d2 == math.inf

    def test_theta_consistency(self, unit_params):
        # W(V, r, t) = P(r, t, T) Theta(V / P, t): the forward-measure form
        # must price identically
        terms = WarrantTerms(shares_outstanding=1.5, warrants_outstanding=0.7,
                             shares_per_warrant=1.2, strike=0.8, maturity=1.0)
        for v, r, t in ((1.0, 1.0, 0.0), (0.6, 0.5, 0.4), (2.5, 1.5, 0.85)):
            p = bond_price(r, t, terms.maturity, unit_params).price
            direct = warrant_price(v, r, t, terms, unit_params).price
            via_theta = p * warrant_value_forward(v / p, t, terms, unit_params)
            assert direct == pytest.approx(via_theta, rel=1e-12)

    def test_forward_value_at_expiry_is_payoff(self, unit_params):
        terms = WarrantTerms(shares_outstanding=2.0, warrants_outstanding=3.0,
                             shares_per_warrant=1.5, strike=0.5, maturity=1.0)
        for z in (0.2, 2.0 / 3.0, 3.0):
            assert warrant_value_forward(z, 1.0, terms, unit_params) == dilution_payoff(z, terms)

    def test_forward_value_at_zero_variance_is_intrinsic(self):
        p = ModelParams(sigma_v=0.0, sigma_r=0.0)
        terms = WarrantTerms(shares_outstanding=2.0, warrants_outstanding=3.0,
                             shares_per_warrant=1.5, strike=0.5)
        for z in (0.2, 2.0 / 3.0, 3.0):
            want = terms.dilution_factor * max(1.5 * z - 2.0 * 0.5, 0.0)
            assert warrant_value_forward(z, 0.0, terms, p) == want

    def test_dilution_scaling(self, unit_params):
        # doubling N and X with M = 0 halves nothing; doubling M at fixed
        # N, k shrinks the per-warrant claim
        terms0 = WarrantTerms(warrants_outstanding=0.0)
        terms2 = WarrantTerms(warrants_outstanding=2.0)
        w0 = warrant_price(1.0, 1.0, 0.0, terms0, unit_params).price
        w2 = warrant_price(1.0, 1.0, 0.0, terms2, unit_params).price
        assert w2 == pytest.approx(w0 / 3.0, rel=1e-12)

    def test_rejects_nonpositive_value(self, unit_params):
        with pytest.raises(ValueError):
            warrant_price(0.0, 1.0, 0.0, WarrantTerms(), unit_params)

    def test_rejects_non_finite_inputs(self, unit_params):
        terms = WarrantTerms()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="firm value must be positive"):
                warrant_price(bad, 1.0, 0.0, terms, unit_params)
            with pytest.raises(ValueError, match="rate must be finite"):
                warrant_price(1.0, bad, 0.0, terms, unit_params)
            with pytest.raises(ValueError, match="need 0 <= t <= maturity"):
                warrant_price(1.0, 1.0, bad, terms, unit_params)
            with pytest.raises(ValueError, match="forward value must be positive"):
                warrant_value_forward(bad, 0.0, terms, unit_params)

    @pytest.mark.parametrize("variant", WARRANT_VARIANTS)
    def test_extreme_rates_are_value_errors(self, unit_params, variant):
        # P overflows at r = -1000 and underflows to 0 at r = 1000, where the
        # bond-forward value V/P would divide by zero
        terms = WarrantTerms()
        with pytest.raises(ValueError, match="bond price overflows"):
            warrant_price(1.0, -1000.0, 0.0, terms, unit_params, variant)
        with pytest.raises(ValueError, match="underflows to 0 at r=1000.0, t=0.0, maturity=1.0"):
            warrant_price(1.0, 1000.0, 0.0, terms, unit_params, variant)

    def test_float_overflow_is_a_value_error(self, unit_params):
        # a volatility whose square passes the largest float, as in the
        # variance integral and in f1, and the paper-literal discount
        # exp(-r (T - t)) past it while P itself stays finite
        big_vol = replace(unit_params, sigma_v=1e200)
        with pytest.raises(ValueError, match="variance integral overflows at maturity=1.0"):
            variance_integral(0.0, 1.0, big_vol)
        with pytest.raises(ValueError, match="variance integral overflows"):
            variance_integral(np.array([0.0, 0.5]), 1.0, big_vol)
        terms = WarrantTerms()
        with pytest.raises(ValueError, match="variance integral overflows"):
            warrant_price(1.0, 1.0, 0.0, terms, big_vol)
        with pytest.raises(ValueError, match="variance integral overflows"):
            warrant_price(1.0, 1.0, 0.0, terms, replace(unit_params, sigma_r=1e200))
        literal = replace(unit_params, mu_r=100.0)
        assert math.isfinite(bond_price(-710.0, 0.0, 1.0, literal).price)
        with pytest.raises(ValueError, match=r"discount exp\(-r \(T - t\)\) overflows at r=-710.0"):
            warrant_price(1.0, -710.0, 0.0, terms, literal, "paper_literal")
        assert math.isfinite(warrant_price(1.0, -710.0, 0.0, terms, literal).price)

    @pytest.mark.parametrize("field", ["shares_outstanding", "warrants_outstanding",
                                       "shares_per_warrant", "strike", "maturity"])
    def test_terms_reject_non_finite(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="warrant terms must be finite"):
                replace(WarrantTerms(), **{field: bad})

    def test_unknown_variant_rejected(self, unit_params):
        with pytest.raises(ValueError):
            warrant_price(1.0, 1.0, 0.0, WarrantTerms(), unit_params, variant="nope")

    def test_variant_tokens(self):
        assert WARRANT_VARIANTS == ("derivation_consistent", "paper_literal")


class TestDilutionPayoff:
    def test_scalar_and_array(self):
        terms = WarrantTerms(shares_outstanding=2.0, warrants_outstanding=1.0,
                             shares_per_warrant=1.0, strike=1.0, maturity=1.0)
        assert dilution_payoff(5.0, terms) == pytest.approx(1.0)
        assert dilution_payoff(1.0, terms) == 0.0
        np.testing.assert_allclose(dilution_payoff(np.array([5.0, 1.0, 2.0]), terms),
                                   [1.0, 0.0, 0.0])


_param_draws = st.fixed_dictionaries({
    "hurst": st.floats(min_value=0.5, max_value=0.95),
    "alpha_frac": st.floats(min_value=0.0, max_value=1.0),
    "sigma_v": st.floats(min_value=0.05, max_value=2.0),
    "sigma_r": st.floats(min_value=0.0, max_value=2.0),
    "rho": st.floats(min_value=-1.0, max_value=1.0),
    "mu_r": st.floats(min_value=-1.0, max_value=2.0),
    "value": st.floats(min_value=0.05, max_value=5.0),
    "r": st.floats(min_value=-0.5, max_value=2.0),
    "t_frac": st.floats(min_value=0.0, max_value=0.95),
    "maturity": st.floats(min_value=0.1, max_value=2.0),
    "n_shares": st.floats(min_value=0.5, max_value=10.0),
    "m_warrants": st.floats(min_value=0.0, max_value=5.0),
    "k_ratio": st.floats(min_value=0.2, max_value=3.0),
    "strike": st.floats(min_value=0.2, max_value=3.0),
})


def _materialize(draw):
    lo = max(0.501, 1.0 / (1.0 + draw["hurst"]) + 1e-3)
    alpha = lo + draw["alpha_frac"] * (1.0 - lo)
    params = ModelParams(alpha=alpha, hurst=draw["hurst"], sigma_v=draw["sigma_v"],
                         sigma_r=draw["sigma_r"], rho=draw["rho"], mu_r=draw["mu_r"])
    terms = WarrantTerms(shares_outstanding=draw["n_shares"],
                         warrants_outstanding=draw["m_warrants"],
                         shares_per_warrant=draw["k_ratio"],
                         strike=draw["strike"], maturity=draw["maturity"])
    return params, terms, draw["value"], draw["r"], draw["t_frac"] * draw["maturity"]


class TestPriceInvariants:
    @given(_param_draws)
    @settings(max_examples=150, deadline=None)
    # far out of the money both legs are subnormal and their difference
    # rounded to -5e-324 before the price was clamped at zero
    @example(dict(hurst=0.92578125, alpha_frac=0.080078125, sigma_v=0.05,
                  sigma_r=0.048828125, rho=-0.619140625, mu_r=-0.921875, value=4.9375,
                  r=0.0, t_frac=0.5, maturity=1.5546875, n_shares=3.234375,
                  m_warrants=0.0, k_ratio=0.2, strike=0.91796875))
    def test_d_identity_and_bounds(self, draw):
        params, terms, value, r, t = _materialize(draw)
        res = warrant_price(value, r, t, terms, params)
        upper = terms.shares_per_warrant * value * terms.dilution_factor
        assert 0.0 <= res.price <= upper * (1.0 + 1e-12)
        if res.variance_integral > 0.0:
            assert res.d1 - res.d2 == pytest.approx(
                math.sqrt(res.variance_integral), abs=1e-12)

    @given(_param_draws)
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_value(self, draw):
        params, terms, value, r, t = _materialize(draw)
        lo = warrant_price(value, r, t, terms, params).price
        hi = warrant_price(value * 1.25, r, t, terms, params).price
        assert hi >= lo - 1e-12
