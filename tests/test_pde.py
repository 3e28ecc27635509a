import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from subfbm import ModelParams, QuadratureSpec, WarrantTerms
from subfbm.bond import bond_price
from subfbm.pde import (
    GridSpec,
    _tilde_sq,
    default_grid,
    residual_bond_pde,
    residual_warrant_pde,
    solve_theta_pde,
)
from subfbm.warrant import (
    dilution_payoff,
    variance_integral,
    warrant_price,
    warrant_value_forward,
)

TIGHT = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)


def _variance_by_quad(t, params):
    # 2H / Gamma(alpha)^(2H) int_t^1 sigma_hat^2(v) v^(beta-1) dv by scipy;
    # the weight v^(beta-1) is singular at t = 0 unless beta >= 1
    beta = 2.0 * params.alpha * params.hurst
    a = params.sigma_v ** 2
    b = 2.0 * params.rho * params.sigma_r * params.sigma_v
    c = params.sigma_r ** 2

    def hat(v):
        return a + b * (1.0 - v) + c * (1.0 - v) ** 2

    if t == 0.0:
        val, _ = sp_integrate.quad(hat, 0.0, 1.0, weight="alg", wvar=(beta - 1.0, 0.0))
    else:
        val, _ = sp_integrate.quad(lambda v: hat(v) * v ** (beta - 1.0), t, 1.0)
    return 2.0 * params.hurst / math.gamma(params.alpha) ** (2.0 * params.hurst) * val


class TestEffectiveVols:
    def test_tilde_formula(self, unit_params):
        # H sigma^2 t^(2 alpha H - 1) / Gamma(alpha)^(2H) at a hand point
        t = 0.5
        want = (unit_params.hurst * t ** (2.0 * unit_params.alpha * unit_params.hurst - 1.0)
                / math.gamma(unit_params.alpha) ** (2.0 * unit_params.hurst))
        assert _tilde_sq(unit_params.sigma_v, t, unit_params) == pytest.approx(want, rel=1e-13)
        assert _tilde_sq(unit_params.sigma_r, t, unit_params) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("t_start", [0.0, 0.3])
    @pytest.mark.parametrize("alpha,hurst", [(1.0, 0.7), (0.9, 0.7), (1.002 / 1.7, 0.7)])
    def test_summed_steps_match_variance_integral(self, unit_params, t_start, alpha, hurst):
        # the solver's steps ds are half differences of variance_integral
        # over its time grid; they must all be positive and add up to half
        # the total variance of an independent quadrature, including near the
        # admissibility boundary alpha (1 + H) -> 1
        params = replace(unit_params, alpha=alpha, hurst=hurst)
        t = np.linspace(t_start, 1.0, 401)
        d_s = -0.5 * np.diff(np.append(variance_integral(t[:-1], 1.0, params), 0.0))
        assert np.all(d_s > 0.0)
        want = _variance_by_quad(t_start, params) / 2.0
        assert d_s.sum() == pytest.approx(want, rel=1e-10)

    def test_bar_matches_variance_integrand(self, unit_params):
        # d(variance_integral)/dt = -2 sigma_bar^2: cross-check via a
        # centered difference of the integral itself
        t, h = 0.5, 1e-5
        dvi = (variance_integral(t + h, 1.0, unit_params)
               - variance_integral(t - h, 1.0, unit_params)) / (2.0 * h)
        # sigma_bar^2 = sigma_v~^2 + 2 rho (T-t) sigma_r~ sigma_v~ + (T-t)^2 sigma_r~^2
        sv2 = _tilde_sq(unit_params.sigma_v, t, unit_params)
        sr2 = _tilde_sq(unit_params.sigma_r, t, unit_params)
        rem = 1.0 - t
        bar = sv2 + 2.0 * unit_params.rho * math.sqrt(sr2 * sv2) * rem + sr2 * rem ** 2
        assert -dvi == pytest.approx(2.0 * bar, rel=1e-6)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(z_min=1.0, z_max=0.5, n_z=32, n_t=32, t_start=0.0, maturity=1.0)
        with pytest.raises(ValueError):
            GridSpec(z_min=0.1, z_max=5.0, n_z=4, n_t=32, t_start=0.0, maturity=1.0)
        with pytest.raises(ValueError):
            GridSpec(z_min=0.1, z_max=5.0, n_z=32, n_t=32, t_start=1.0, maturity=1.0)

    def test_log_step_of_two_rejected(self, unit_params):
        # at h >= 2 the upper central-difference weight 1/h^2 - 1/(2h) is not
        # positive; no surface may come back from such a grid
        z_max = 0.01 * math.exp(2.0 * 31)
        with pytest.raises(ValueError):
            grid = GridSpec(z_min=0.01, z_max=z_max, n_z=32, n_t=32, t_start=0.0, maturity=1.0)
            solve_theta_pde(grid, WarrantTerms(), unit_params)
        GridSpec(z_min=0.01, z_max=0.99 * z_max, n_z=32, n_t=32, t_start=0.0, maturity=1.0)

    def test_default_grid_brackets_moneyness(self, unit_params):
        g = default_grid(WarrantTerms(), unit_params)
        assert g.z_min < 1.0 < g.z_max
        assert g.n_z == g.n_t == 400


def _classical_market():
    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    params = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                         mu_r=0.0, rho=0.0)
    return terms, params


def _theta_error(terms, params, n, scheme="crank_nicolson", t_start=0.0):
    grid = default_grid(terms, params, t_start=t_start, n_z=n, n_t=n)
    surf = solve_theta_pde(grid, terms, params, scheme=scheme)
    z = surf.z_grid[1:-1]
    exact = np.array([warrant_value_forward(zz, t_start, terms, params) for zz in z])
    return np.abs(surf.values[0][1:-1] - exact).max() / np.abs(exact).max()


class TestThetaSolver:
    def test_terminal_row_is_payoff(self, unit_params):
        terms = WarrantTerms()
        grid = default_grid(terms, unit_params, n_z=64, n_t=64)
        surf = solve_theta_pde(grid, terms, unit_params)
        np.testing.assert_allclose(surf.values[-1], dilution_payoff(surf.z_grid, terms))

    def test_classical_accuracy(self):
        terms, params = _classical_market()
        assert _theta_error(terms, params, 200) < 1e-3

    def test_fractional_accuracy(self):
        terms, params = _classical_market()
        params = replace(params, alpha=0.9, hurst=0.7)
        assert _theta_error(terms, params, 200) < 5e-3

    def test_second_order_convergence(self):
        terms, params = _classical_market()
        e100 = _theta_error(terms, params, 100)
        e200 = _theta_error(terms, params, 200)
        e400 = _theta_error(terms, params, 400)
        assert e200 < e100 / 2.0
        assert e400 < e200 / 2.0

    def test_late_start_accuracy(self, unit_params):
        # t_start > 0: the steps ds start from the antiderivative at 0.3
        assert _theta_error(WarrantTerms(), unit_params, 200, t_start=0.3) < 1e-3

    def test_large_total_variance_accuracy(self):
        # vi ~ 43: the solution is nearly linear in z, which the log grid
        # does not resolve exactly
        terms = WarrantTerms(maturity=5.0)
        params = ModelParams(sigma_v=1.5, sigma_r=0.5)
        assert variance_integral(0.0, 5.0, params) == pytest.approx(43.0, abs=0.5)
        assert _theta_error(terms, params, 200) <= 5e-3

    def test_implicit_scheme_converges_too(self):
        terms, params = _classical_market()
        assert _theta_error(terms, params, 200, scheme="implicit") < 5e-3

    def test_zero_vol_preserves_payoff(self):
        # with sigma_bar = 0 the equation is Theta_t = 0
        terms = WarrantTerms()
        params = ModelParams(sigma_v=0.0, sigma_r=0.0)
        grid = GridSpec(z_min=0.02, z_max=5.0, n_z=64, n_t=64, t_start=0.0, maturity=1.0)
        surf = solve_theta_pde(grid, terms, params)
        np.testing.assert_allclose(surf.values[0], dilution_payoff(surf.z_grid, terms),
                                   atol=1e-12)

    def test_max_principle(self, unit_params):
        terms = WarrantTerms()
        grid = default_grid(terms, unit_params, n_z=128, n_t=128)
        surf = solve_theta_pde(grid, terms, unit_params)
        hi = dilution_payoff(grid.z_max, terms)
        assert np.all(surf.values >= -1e-12)
        assert np.all(surf.values <= hi + 1e-12)

    def test_monotone_in_z(self, unit_params):
        terms = WarrantTerms()
        grid = default_grid(terms, unit_params, n_z=128, n_t=128)
        surf = solve_theta_pde(grid, terms, unit_params)
        assert np.all(np.diff(surf.values[0]) >= -1e-10)

    def test_unknown_scheme_rejected(self, unit_params):
        terms = WarrantTerms()
        grid = default_grid(terms, unit_params, n_z=32, n_t=32)
        with pytest.raises(ValueError):
            solve_theta_pde(grid, terms, unit_params, scheme="explicit")


def _warrant_residual(variant, h, params):
    terms = WarrantTerms()

    def price_fn(v, r, t):
        return warrant_price(v, r, t, terms, params, TIGHT, variant).price

    return abs(residual_warrant_pde(price_fn, (1.1, 0.8, 0.45), (h, h, h), params))


def _bond_residual(variant, h, params):
    def price_fn(r, t):
        return bond_price(r, t, 1.0, params, TIGHT, variant=variant).price

    return abs(residual_bond_pde(price_fn, (0.8, 0.45), (h, h), params))


HALVINGS = (0.08, 0.04, 0.02, 0.01)


class TestResiduals:
    def test_warrant_default_refines_second_order(self, unit_params):
        vals = [_warrant_residual("derivation_consistent", h, unit_params)
                for h in HALVINGS]
        for a, b in zip(vals, vals[1:]):
            assert 3.0 <= a / b <= 5.0

    def test_bond_default_refines_second_order(self, unit_params):
        vals = [_bond_residual("derivation_consistent", h, unit_params)
                for h in HALVINGS]
        for a, b in zip(vals, vals[1:]):
            assert 3.0 <= a / b <= 5.0

    def test_paper_literal_warrant_plateaus(self, unit_params):
        # the literal published formula does not satisfy its own equation:
        # the defect refuses to vanish under refinement
        vals = [_warrant_residual("paper_literal", h, unit_params) for h in HALVINGS]
        assert vals[-1] > 1e-3
        assert vals[0] / vals[-1] < 2.0

    def test_theorem_statement_bond_plateaus(self, unit_params):
        vals = [_bond_residual("theorem_statement", h, unit_params) for h in HALVINGS]
        assert vals[-1] > 1e-3
        assert vals[0] / vals[-1] < 2.0

    def test_rejects_boundary_points(self, unit_params):
        def price_fn(v, r, t):
            return v

        with pytest.raises(ValueError):
            residual_warrant_pde(price_fn, (1.0, 1.0, 0.0), (0.1, 0.1, 0.1), unit_params)
