import math

import pytest

from subfbm.mc import McConfig, RegimeError, mc_bond_classical, mc_warrant_classical
from subfbm.processes import RngSeed
from subfbm.warrant import WarrantTerms


class TestConfig:
    def test_rejects_small_samples(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, n_steps=100, seed=RngSeed(0))
        with pytest.raises(ValueError):
            McConfig(n_paths=1000, n_steps=2, seed=RngSeed(0))


class TestRegimeGate:
    def test_fractional_regime_refused(self):
        cfg = McConfig(n_paths=1000, n_steps=50, seed=RngSeed(0))
        with pytest.raises(RegimeError):
            mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg, alpha=0.9, hurst=0.7)
        with pytest.raises(RegimeError):
            mc_warrant_classical(1.0, 0.05, WarrantTerms(), 0.2, cfg, hurst=0.7)

    def test_classical_regime_accepted(self):
        cfg = McConfig(n_paths=1000, n_steps=50, seed=RngSeed(0))
        est = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg, alpha=1.0, hurst=0.5)
        assert est.n_paths == 1000 and est.std_error > 0.0


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
        (False, 0.25942868365579924, 0.003587198612747052),
        (True, 0.26475315282786926, 0.002029660488287292),
    ])
    def test_frozen_estimates(self, antithetic, mean, std_error):
        # recorded when the trapezoid integral of B was summed over a
        # cumulated path array; z @ c regroups the same sum by increment
        cfg = McConfig(n_paths=2000, n_steps=100, seed=RngSeed(0, 101), antithetic=antithetic)
        est = mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
        assert est.mean == pytest.approx(mean, rel=1e-12)
        assert est.std_error == pytest.approx(std_error, rel=1e-12)

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
