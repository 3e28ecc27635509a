import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate as sp_integrate

from subfbm import ModelParams, pde, warrant
from subfbm.bond import bond_price
from subfbm.warrant import (
    WARRANT_VARIANTS,
    WarrantTerms,
    dilution_payoff,
    variance_integral,
    warrant_price,
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

    def test_forward_value_is_free_of_the_rate(self, unit_params):
        # W(z P, r, t) / P is Theta(z, t), the solution of the transformed
        # problem, whatever the rate: the pde tests take their oracle from it
        terms = WarrantTerms(shares_outstanding=1.5, warrants_outstanding=0.7,
                             shares_per_warrant=1.2, strike=0.8, maturity=1.0)
        for z, t in ((1.0, 0.0), (0.6, 0.4), (2.5, 0.85)):
            thetas = []
            for r in (-0.5, 0.05, 1.0, 1.5):
                p = bond_price(r, t, terms.maturity, unit_params).price
                thetas.append(warrant_price(z * p, r, t, terms, unit_params).price / p)
            assert thetas == pytest.approx([thetas[0]] * len(thetas), rel=1e-12)

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

    @pytest.mark.parametrize("variant", WARRANT_VARIANTS)
    @pytest.mark.parametrize("t", [0.0, 1.0], ids=["before-expiry", "at-expiry"])
    def test_huge_firm_value_is_a_value_error(self, unit_params, variant, t):
        # k V = 1e309 passes the largest float; the price used to come out inf
        terms = WarrantTerms(shares_per_warrant=10.0)
        msg = r"warrant price is not finite at value=1e\+308, r=0.05, t=%r with WarrantTerms\(" % t
        with pytest.raises(ValueError, match=msg):
            warrant_price(1e308, 0.05, t, terms, unit_params, variant)

    def test_huge_strike_leg_is_a_value_error(self, unit_params):
        # N X = 1e309 rounds k V / (P N X) to 0, whose log was a bare
        # "math domain error"
        terms = WarrantTerms(shares_outstanding=10.0, strike=1e308)
        with pytest.raises(ValueError, match=r"not finite at value=1.0, .*strike=1e\+308"):
            warrant_price(1.0, 0.05, 0.0, terms, unit_params)
        # the paper-literal leg exp(-r (T - t)) N X N(d2) passes the largest
        # float while P stays finite; the price used to come out -inf
        flat_rate = replace(unit_params, mu_r=0.0, sigma_r=0.0)
        with pytest.raises(ValueError, match=r"not finite at value=1e\+300, r=-700.0"):
            warrant_price(1e300, -700.0, 0.0, WarrantTerms(strike=1e6), flat_rate, "paper_literal")

    @pytest.mark.parametrize("field", ["shares_outstanding", "warrants_outstanding",
                                       "shares_per_warrant", "strike", "maturity"])
    def test_terms_reject_non_finite(self, field):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="warrant terms must be finite"):
                replace(WarrantTerms(), **{field: bad})

    @pytest.mark.parametrize("field, value, message", [
        ("shares_outstanding", 0.0, "shares_outstanding must be positive"),
        ("warrants_outstanding", -1.0, "warrants_outstanding must be nonnegative"),
        ("shares_per_warrant", 0.0, "shares_per_warrant must be positive"),
        ("strike", -1.0, "strike must be positive"),
        ("maturity", -0.5, "maturity must be nonnegative"),
    ])
    def test_terms_reject_out_of_range(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            replace(WarrantTerms(), **{field: value})

    def test_unknown_variant_rejected(self, unit_params):
        with pytest.raises(ValueError):
            warrant_price(1.0, 1.0, 0.0, WarrantTerms(), unit_params, variant="nope")

    def test_variant_tokens(self):
        assert WARRANT_VARIANTS == ("derivation_consistent", "paper_literal")


class TestValuationTimeMemo:
    """warrant_price keeps the valuation-time terms (vi, f1) of its last call
    before expiry, keyed on the ModelParams object, t and the maturity."""

    @pytest.mark.parametrize("variant", WARRANT_VARIANTS)
    def test_warm_entry_gives_the_cold_price(self, monkeypatch, unit_params, variant):
        # tau/T < 0.25 from t/T = 0.75 on, where the power-sum integrals take
        # their series branch; t = maturity takes the intrinsic limit
        terms = WarrantTerms(warrants_outstanding=0.5, strike=1.1, maturity=1.5)
        for frac in (0.0, 0.3, 0.74, 0.76, 0.9, 0.99, 1.0 - 1e-4, 1.0):
            t = frac * terms.maturity
            for value, r in ((1.0, 0.05), (0.7, -0.3), (2.0, 1.2)):
                monkeypatch.setattr(warrant, "_memo", None)
                cold = warrant_price(value, r, t, terms, unit_params, variant)
                # another point at the same t, then the first one again, warm
                warrant_price(1.3 * value, r + 0.1, t, terms, unit_params, variant)
                warm = warrant_price(value, r, t, terms, unit_params, variant)
                assert warm == cold
                if frac < 1.0:
                    assert cold.variance_integral == variance_integral(t, terms.maturity,
                                                                       unit_params)

    def test_interleaved_markets_keep_their_own_prices(self, monkeypatch, unit_params):
        # two markets at one t, then one market at another maturity or t
        other = replace(unit_params, sigma_v=0.4, alpha=0.8)
        later = WarrantTerms(maturity=1.5)
        keys = [(unit_params, WarrantTerms(), 0.3), (other, WarrantTerms(), 0.3),
                (unit_params, later, 0.3), (unit_params, later, 0.6)]
        cold = []
        for params, terms, t in keys:
            monkeypatch.setattr(warrant, "_memo", None)
            cold.append(warrant_price(1.0, 0.05, t, terms, params))
        assert len({res.price for res in cold}) == len(keys)
        for i in (0, 1, 0, 1, 2, 3, 2, 0):
            params, terms, t = keys[i]
            assert warrant_price(1.0, 0.05, t, terms, params) == cold[i]

    def test_threads_sharing_the_entry_get_their_own_prices(self, monkeypatch, unit_params):
        # six threads, two on each of three keys, replacing the entry under
        # each other: a thread reads a whole entry or misses
        monkeypatch.setattr(warrant, "_memo", None)
        other = replace(unit_params, sigma_v=0.4, alpha=0.8)
        terms = WarrantTerms()
        keys = [(unit_params, 0.3), (other, 0.3), (unit_params, 0.6)] * 2
        want = [warrant_price(1.0, 0.05, t, terms, params) for params, t in keys]
        rounds = 1000
        results = [[] for _ in keys]
        start = threading.Barrier(len(keys), timeout=60)

        def work(i):
            params, t = keys[i]
            start.wait()
            for j in range(rounds):
                results[i].append(warrant_price(1.0 + j % 2, 0.05, t, terms, params))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(keys))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, (params, t) in enumerate(keys):
            assert len(results[i]) == rounds
            assert results[i][::2] == [want[i]] * (rounds // 2)
            assert results[i][1::2] == [warrant_price(2.0, 0.05, t, terms, params)] * (rounds // 2)

    def test_an_error_is_not_stored(self, monkeypatch, unit_params):
        monkeypatch.setattr(warrant, "_memo", None)
        big_vol = replace(unit_params, sigma_v=1e200)
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError, match="variance integral overflows") as info:
                warrant_price(1.0, 1.0, 0.0, WarrantTerms(), big_vol)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert warrant._memo is None
        # nor does an error replace the entry of an earlier call
        warrant_price(1.0, 1.0, 0.0, WarrantTerms(), unit_params)
        entry = warrant._memo
        with pytest.raises(ValueError, match="variance integral overflows"):
            warrant_price(1.0, 1.0, 0.0, WarrantTerms(), big_vol)
        assert warrant._memo is entry

    def test_residual_refinement_reuses_the_terms(self, monkeypatch, unit_params):
        # each stencil of residual_warrant_pde prices 11 points at 3 times, 8
        # of them at the centre's t; the first price of each later stencil is
        # at the t where the one before ended: 4 + 3 * 3 evaluations
        monkeypatch.setattr(warrant, "_memo", None)
        evaluations = []
        vi = warrant.variance_integral

        def counted(t, maturity, params):
            evaluations.append(t)
            return vi(t, maturity, params)

        monkeypatch.setattr(warrant, "variance_integral", counted)
        terms, prices = WarrantTerms(), []

        def price(v, r, t):
            prices.append(t)
            return warrant_price(v, r, t, terms, unit_params).price

        for h in (0.08, 0.04, 0.02, 0.01):
            pde.residual_warrant_pde(price, (1.1, 0.8, 0.45), (h, h, h), unit_params)
        assert len(prices) == 44
        assert len(evaluations) == 13


class TestDilutionPayoff:
    def test_scalar_and_array(self):
        terms = WarrantTerms(shares_outstanding=2.0, warrants_outstanding=1.0,
                             shares_per_warrant=1.0, strike=1.0, maturity=1.0)
        assert dilution_payoff(5.0, terms) == pytest.approx(1.0)
        assert dilution_payoff(1.0, terms) == 0.0
        np.testing.assert_allclose(dilution_payoff(np.array([5.0, 1.0, 2.0]), terms),
                                   [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, np.array([1.0, -0.5])])
    def test_rejects_negative_or_non_finite_value(self, value):
        with pytest.raises(ValueError, match="firm value must be finite and nonnegative"):
            dilution_payoff(value, WarrantTerms())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e308, np.array([1.0, 1e308])], ids=["scalar", "array"])
    def test_overflow_is_a_value_error(self, value):
        # k V = 1e309 used to give inf and a RuntimeWarning
        terms = WarrantTerms(shares_per_warrant=10.0)
        with pytest.raises(ValueError, match=r"payoff overflows at firm value 1e\+308 with "
                                             r"WarrantTerms\(.*shares_per_warrant=10.0"):
            dilution_payoff(value, terms)


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
