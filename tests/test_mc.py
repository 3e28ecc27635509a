import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from subfbm import mc
from subfbm.mc import McConfig, mc_bond_classical, mc_warrant_classical
from subfbm.processes import RngSeed
from subfbm.warrant import WarrantTerms, dilution_payoff


def _trapezoid_weights(tau, n_steps):
    # the trapezoid sum of B(t_j) = sqrt(dt) sum_{i<j} z_i regrouped by
    # increment: z @ c with c_i = sqrt(dt) sum_{j>i} w_j
    dt = tau / n_steps
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    return np.cumsum(w[:0:-1])[::-1] * math.sqrt(dt)


def _block_reference(cfg, statistic, payoff):
    """The estimators as first written: n_steps normals per path, reduced by `statistic`."""
    n_units = (cfg.n_paths + 1) // 2 if cfg.antithetic else cfg.n_paths
    s = statistic(cfg.seed.generator().standard_normal((n_units, cfg.n_steps)))
    pay = payoff(s)
    if cfg.antithetic:
        pay = 0.5 * (pay + payoff(-s))
    return pay.mean(), pay.std(ddof=1) / math.sqrt(pay.size)


def _bond_reference(r0, tau, mu_r, sigma_r, cfg):
    c = _trapezoid_weights(tau, cfg.n_steps)
    drift_integral = r0 * tau + 0.5 * mu_r * tau * tau
    return _block_reference(cfg, lambda z: z @ c,
                            lambda s: np.exp(-drift_integral - sigma_r * s))


def _warrant_reference(v0, r, terms, sigma_v, cfg):
    tau = terms.maturity
    dt = tau / cfg.n_steps
    drift = cfg.n_steps * (r - 0.5 * sigma_v ** 2) * dt
    return _block_reference(
        cfg, lambda z: z.sum(axis=1) * sigma_v * math.sqrt(dt),
        lambda s: math.exp(-r * tau) * dilution_payoff(v0 * np.exp(drift + s), terms))


_OTM_DILUTED = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.5,
                            shares_per_warrant=1.0, strike=1.1, maturity=2.0)
_ATM_PLAIN = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                          shares_per_warrant=1.0, strike=100.0, maturity=1.0)


class TestConfig:
    def test_rejects_small_samples(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, n_steps=100, seed=RngSeed(0))
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, n_steps=2, seed=RngSeed(0))

    @pytest.mark.parametrize("sizes", [
        dict(n_paths=1000, n_steps=float("nan")), dict(n_paths=float("inf"), n_steps=100),
        dict(n_paths=1000.5, n_steps=100), dict(n_paths=1000, n_steps=True),
    ])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="must be an integer"):
            McConfig(seed=RngSeed(0), **sizes)

    @pytest.mark.parametrize("seed", [7, None])
    def test_rejects_a_seed_that_is_not_an_rng_seed(self, seed):
        # a bare integer used to fail later, in _estimate, with an AttributeError
        with pytest.raises(ValueError, match=f"seed must be an RngSeed, got {seed!r}"):
            McConfig(n_paths=1000, n_steps=10, seed=seed)


class TestRunningMoments:
    """_estimate merges per-block moments instead of keeping every payoff."""

    @pytest.mark.parametrize("antithetic, n_paths", [
        (False, 3 * mc._BLOCK + 1000), (True, 2 * (3 * mc._BLOCK + 1000) + 1),
    ], ids=["plain", "antithetic"])
    def test_matches_two_pass_over_all_samples(self, antithetic, n_paths):
        # four blocks, the last one short; the reference draws all normals at
        # once and takes the two-pass mean and standard error of the samples
        def payoff(z):
            return np.exp(0.5 + 0.8 * z)

        cfg = McConfig(n_paths=n_paths, n_steps=10, seed=RngSeed(37, 5), antithetic=antithetic)
        est = mc._estimate(payoff, cfg)
        n_units = (n_paths + 1) // 2 if antithetic else n_paths
        assert n_units > 3 * mc._BLOCK
        z = cfg.seed.generator().standard_normal(n_units)
        samples = 0.5 * (payoff(z) + payoff(-z)) if antithetic else payoff(z)
        assert est.mean == pytest.approx(samples.mean(), rel=1e-12, abs=0.0)
        se = samples.std(ddof=1) / math.sqrt(n_units)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
        assert est.n_paths == (2 * n_units if antithetic else n_units)

    def test_holds_one_block(self):
        # 64 blocks of payoffs would take 8 MiB, and their concatenation as
        # much again; the running moments hold a few arrays of one block
        cfg = McConfig(n_paths=64 * mc._BLOCK, n_steps=10, seed=RngSeed(37, 6))
        tracemalloc.start()
        try:
            mc_bond_classical(0.5, 1.0, 0.2, 0.5, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * mc._BLOCK * 8


class TestBondEstimator:
    def test_matches_closed_form(self):
        # E exp(-int r) = exp(-r0 tau - mu tau^2/2 + sigma^2 tau^3/6)
        cfg = McConfig(n_paths=100_000, n_steps=100, seed=RngSeed(7, 1))
        est = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
        target = math.exp(-4.0 / 3.0)
        assert abs(est.mean - target) < 3.0 * est.std_error
        assert est.std_error < 2e-3

    def test_second_market(self):
        cfg = McConfig(n_paths=60_000, n_steps=100, seed=RngSeed(8, 2))
        est = mc_bond_classical(0.03, 2.0, 0.05, 0.1, cfg)
        target = math.exp(-0.03 * 2.0 - 0.05 * 4.0 / 2.0 + 0.01 * 8.0 / 6.0)
        assert abs(est.mean - target) < 3.0 * est.std_error

    def test_deterministic_rate_is_exact(self):
        cfg = McConfig(n_paths=1000, n_steps=200, seed=RngSeed(1))
        est = mc_bond_classical(0.5, 1.5, 0.2, 0.0, cfg)
        want = math.exp(-0.5 * 1.5 - 0.2 * 1.5 ** 2 / 2.0)
        assert est.mean == pytest.approx(want, rel=1e-10)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("antithetic, mean, std_error", [
        pytest.param(False, 0.2658426529521043, 0.003772270289158489, id="plain"),
        pytest.param(True, 0.264861114345997, 0.0019905490201833002, id="antithetic"),
    ])
    def test_frozen_estimates(self, antithetic, mean, std_error):
        cfg = McConfig(n_paths=2000, n_steps=100, seed=RngSeed(0, 101), antithetic=antithetic)
        est = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)
        assert est.n_paths == 2000

    def test_determinism_and_streams(self):
        cfg = McConfig(n_paths=5000, n_steps=50, seed=RngSeed(3))
        a = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
        b = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
        assert a.mean == b.mean and a.std_error == b.std_error
        other = McConfig(n_paths=5000, n_steps=50, seed=RngSeed(3, 9))
        c = mc_bond_classical(1.0, 1.0, 1.0, 1.0, other)
        assert c.mean != a.mean

    def test_clt_scaling(self):
        base = McConfig(n_paths=20_000, n_steps=50, seed=RngSeed(5))
        quad = McConfig(n_paths=80_000, n_steps=50, seed=RngSeed(5))
        se1 = mc_bond_classical(1.0, 1.0, 1.0, 1.0, base).std_error
        se2 = mc_bond_classical(1.0, 1.0, 1.0, 1.0, quad).std_error
        assert se1 / se2 == pytest.approx(2.0, rel=0.15)

    @pytest.mark.parametrize("n_steps", [10, 37, 50, 100])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_trapezoid_variance_closed_form(self, tau, n_steps):
        # the law the estimator samples; past a few hundred steps the
        # cumulated sum of the reference itself rounds above 1e-14
        c = _trapezoid_weights(tau, n_steps)
        want = tau ** 3 / 3.0 * (1.0 - 1.0 / (4.0 * n_steps ** 2))
        assert c @ c == pytest.approx(want, rel=1e-14)

    def test_rejects_non_finite_inputs(self):
        cfg = McConfig(n_paths=100, n_steps=10, seed=RngSeed(0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="rate must be finite"):
                mc_bond_classical(bad, 1.0, 0.0, 0.1, cfg)
            with pytest.raises(ValueError, match="tau must be positive"):
                mc_bond_classical(0.0, bad, 0.0, 0.1, cfg)
            with pytest.raises(ValueError, match="mu_r must be finite"):
                mc_bond_classical(0.0, 1.0, bad, 0.1, cfg)
            with pytest.raises(ValueError, match="sigma_r must be finite"):
                mc_bond_classical(0.0, 1.0, 0.0, bad, cfg)
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="tau must be positive"):
                mc_bond_classical(0.0, tau, 0.0, 0.1, cfg)

    @pytest.mark.parametrize("args", [
        pytest.param((-1000.0, 1.0, 0.0, 0.0), id="payoff-overflows"),
        pytest.param((0.05, 1e200, 0.0, 0.0), id="tau-cubed-overflows"),
        pytest.param((1e300, 1e10, -1e300, 0.0), id="drift-is-nan"),
    ])
    def test_out_of_float_range_is_a_value_error(self, args):
        # these returned mean=inf or nan with RuntimeWarnings, or raised OverflowError
        cfg = McConfig(n_paths=100, n_steps=10, seed=RngSeed(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"estimate leaves float range at r0=.*, "
                                                 r"tau=.*, mu_r=.*, sigma_r="):
                mc_bond_classical(*args, cfg)


class TestWarrantEstimator:
    def test_matches_black_scholes(self, bs_call):
        terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                             shares_per_warrant=1.0, strike=100.0, maturity=1.0)
        cfg = McConfig(n_paths=200_000, n_steps=50, seed=RngSeed(11), antithetic=True)
        est = mc_warrant_classical(100.0, 0.05, terms, 0.2, cfg)
        target = bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
        assert abs(est.mean - target) < 3.0 * est.std_error
        assert est.std_error < 0.1

    def test_antithetic_reduces_error(self):
        terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                             shares_per_warrant=1.0, strike=100.0, maturity=1.0)
        plain = McConfig(n_paths=50_000, n_steps=50, seed=RngSeed(13))
        anti = McConfig(n_paths=50_000, n_steps=50, seed=RngSeed(13), antithetic=True)
        se_plain = mc_warrant_classical(100.0, 0.05, terms, 0.2, plain).std_error
        se_anti = mc_warrant_classical(100.0, 0.05, terms, 0.2, anti).std_error
        assert se_anti < se_plain

    def test_dilution_factor_scales_payoff_exactly(self):
        # same seed, same paths: only the deterministic factor changes
        undiluted = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                                 shares_per_warrant=1.0, strike=1.0, maturity=1.0)
        diluted = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=1.0,
                               shares_per_warrant=1.0, strike=1.0, maturity=1.0)
        cfg = McConfig(n_paths=2000, n_steps=30, seed=RngSeed(17))
        a = mc_warrant_classical(1.0, 0.05, undiluted, 0.3, cfg)
        b = mc_warrant_classical(1.0, 0.05, diluted, 0.3, cfg)
        assert b.mean == pytest.approx(a.mean / 2.0, rel=1e-12)

    def test_zero_vol_is_deterministic(self):
        # vol 0 leaves the risk-neutral drift: V(T) = v0 e^{rT} on every path
        terms = WarrantTerms(strike=0.5)
        cfg = McConfig(n_paths=1000, n_steps=30, seed=RngSeed(19))
        est = mc_warrant_classical(1.0, 0.05, terms, 0.0, cfg)
        want = math.exp(-0.05) * (math.exp(0.05) - 0.5) * terms.dilution_factor
        assert est.mean == pytest.approx(want, rel=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("antithetic, mean, std_error", [
        pytest.param(False, 0.1029757045098278, 0.0046068737667432375, id="plain"),
        pytest.param(True, 0.10105870202958292, 0.0037488389689746236, id="antithetic"),
    ])
    def test_frozen_estimates(self, antithetic, mean, std_error):
        cfg = McConfig(n_paths=2000, n_steps=50, seed=RngSeed(0, 202), antithetic=antithetic)
        est = mc_warrant_classical(1.0, 0.03, _OTM_DILUTED, 0.3, cfg)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

    def test_independent_of_n_steps(self):
        # W_T is sampled exactly, so n_steps changes nothing, bit for bit
        ests = [mc_warrant_classical(1.0, 0.03, _OTM_DILUTED, 0.3,
                                     McConfig(n_paths=3000, n_steps=n, seed=RngSeed(23),
                                              antithetic=True))
                for n in (10, 50, 1000)]
        assert all(e == ests[0] for e in ests[1:])

    def test_rejects_non_finite_inputs(self):
        cfg = McConfig(n_paths=100, n_steps=10, seed=RngSeed(0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="v0 must be positive"):
                mc_warrant_classical(bad, 0.03, _OTM_DILUTED, 0.3, cfg)
            with pytest.raises(ValueError, match="rate must be finite"):
                mc_warrant_classical(1.0, bad, _OTM_DILUTED, 0.3, cfg)
            with pytest.raises(ValueError, match="sigma_v must be finite"):
                mc_warrant_classical(1.0, 0.03, _OTM_DILUTED, bad, cfg)
        for v0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="v0 must be positive"):
                mc_warrant_classical(v0, 0.03, _OTM_DILUTED, 0.3, cfg)
        with pytest.raises(ValueError, match="terms.maturity must be positive"):
            mc_warrant_classical(1.0, 0.03, replace(_OTM_DILUTED, maturity=0.0), 0.3, cfg)

    @pytest.mark.parametrize("args", [
        pytest.param((1e300, 0.05, 5.0), id="moments-overflow"),
        pytest.param((1.0, -1000.0, 0.2), id="discount-overflows"),
        pytest.param((1.0, 0.05, 1e200), id="variance-overflows"),
    ])
    def test_out_of_float_range_is_a_value_error(self, args):
        # these returned std_error=nan with RuntimeWarnings, or raised OverflowError
        v0, r, sigma_v = args
        cfg = McConfig(n_paths=100, n_steps=10, seed=RngSeed(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"estimate leaves float range at v0={v0!r}, r={r!r}, sigma_v={sigma_v!r}, "
                    f"maturity=1.0: the inputs are out of float range")):
                mc_warrant_classical(v0, r, WarrantTerms(), sigma_v, cfg)


_MARKETS = [
    pytest.param(mc_bond_classical, _bond_reference, (0.5, 1.0, 0.2, 0.5), id="bond-tau1"),
    pytest.param(mc_bond_classical, _bond_reference, (0.03, 2.0, 0.05, 0.1), id="bond-tau2"),
    pytest.param(mc_warrant_classical, _warrant_reference, (100.0, 0.05, _ATM_PLAIN, 0.2),
                 id="warrant-atm"),
    pytest.param(mc_warrant_classical, _warrant_reference, (1.0, 0.03, _OTM_DILUTED, 0.3),
                 id="warrant-otm-diluted"),
]


class TestExactLaw:
    """One normal per path has the law of the n_steps-normal block it replaced."""

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("estimator, reference, args", _MARKETS)
    def test_matches_block_reference(self, estimator, reference, args, antithetic):
        est = estimator(*args, McConfig(n_paths=400_000, n_steps=10, seed=RngSeed(29, 1),
                                        antithetic=antithetic))
        mean, se = reference(*args, McConfig(n_paths=400_000, n_steps=10, seed=RngSeed(29, 2),
                                             antithetic=antithetic))
        assert abs(est.mean - mean) <= 4.0 * math.hypot(est.std_error, se)
        assert est.std_error == pytest.approx(se, rel=0.03)
