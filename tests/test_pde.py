import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from subfbm import ModelParams, WarrantTerms, pde
from subfbm.bond import bond_price
from subfbm.pde import (
    GridSpec,
    _tilde_sq,
    default_grid,
    residual_bond_pde,
    residual_warrant_pde,
    solve_theta_pde,
)
from subfbm.warrant import dilution_payoff, variance_integral, warrant_price

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
        # the solver's variance to go s is half of variance_integral on its
        # time grid; s must fall from row to row (every d_s > 0) and start
        # at half the total variance of an independent quadrature, including
        # near the admissibility boundary alpha (1 + H) -> 1
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
            GridSpec(z_min=1.0, z_max=0.5, n_z=32, n_t=32, t_start=0.0)
        with pytest.raises(ValueError):
            GridSpec(z_min=0.1, z_max=5.0, n_z=4, n_t=32, t_start=0.0)

    @pytest.mark.parametrize("sizes", [
        dict(n_z=64.5, n_t=32), dict(n_z=64.0, n_t=32), dict(n_z=True, n_t=32),
        dict(n_z=32, n_t=float("nan")), dict(n_z=32, n_t=float("inf")),
    ])
    def test_rejects_non_integer_sizes(self, sizes):
        with pytest.raises(ValueError, match="must be an integer"):
            GridSpec(z_min=0.1, z_max=5.0, t_start=0.0, **sizes)

    @pytest.mark.parametrize("log_step", [2.0, 3.0])
    def test_wide_log_step_solves(self, unit_params, log_step):
        # the fitted weights stay positive for every h, so a coarse grid still
        # gives a finite surface inside [0, payoff(z_max)], monotone in z
        terms = WarrantTerms()
        grid = GridSpec(z_min=0.01, z_max=0.01 * math.exp(log_step * 31), n_z=32, n_t=32,
                        t_start=0.0)
        surf = solve_theta_pde(grid, terms, unit_params)
        hi = dilution_payoff(grid.z_max, terms)
        assert np.all(np.isfinite(surf.values))
        assert np.all(surf.values >= 0.0)
        assert np.all(surf.values <= hi * (1.0 + 1e-12))
        assert np.all(np.diff(surf.values, axis=1) >= -1e-12 * hi)

    def test_default_grid_brackets_moneyness(self, unit_params):
        g = default_grid(WarrantTerms(), unit_params)
        assert g.z_min < 1.0 < g.z_max
        assert g.n_z == g.n_t == 400

    def test_default_grid_overflow_is_a_value_error(self):
        # exp(3 sqrt(vi)) at vi = 6e5 used to raise a bare OverflowError
        with pytest.raises(ValueError, match=r"padding exp\(3 sqrt\(vi\)\) overflows at total "
                                             r"variance vi=5998.*t_start=0.0, maturity=50.0"):
            default_grid(WarrantTerms(maturity=50.0), ModelParams(sigma_v=50.0))

    def test_solve_out_of_float_range_is_a_value_error(self):
        # at a 1e300 strike the lift overflows; that used to end in
        # RuntimeWarnings and a non-finite surface
        terms, params = WarrantTerms(strike=1e300), ModelParams()
        grid = default_grid(terms, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"solve leaves float range at z_max=2\.6\d*e\+302, "
                                                 r"strike=1e\+300, maturity=1\.0"):
                solve_theta_pde(grid, terms, params)


def _classical_market():
    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    params = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                         mu_r=0.0, rho=0.0)
    return terms, params


def _theta_error(terms, params, n, t_start=0.0):
    grid = default_grid(terms, params, t_start=t_start, n_z=n, n_t=n)
    surf = solve_theta_pde(grid, terms, params)
    z = surf.z_grid[1:-1]
    # Theta(z, t) = W(z P, r, t) / P at any rate r
    p = bond_price(params.r0, t_start, terms.maturity, params).price
    exact = np.array([warrant_price(zz * p, params.r0, t_start, terms, params).price / p
                      for zz in z])
    return np.abs(surf.values[0][1:-1] - exact).max() / np.abs(exact).max()


class TestThetaSolver:
    @pytest.mark.parametrize("t_start", [1.0, 1.5, -0.1, math.nan])
    def test_rejects_start_outside_the_contract(self, unit_params, t_start):
        grid = GridSpec(z_min=0.1, z_max=5.0, n_z=32, n_t=32, t_start=t_start)
        with pytest.raises(ValueError, match=r"need 0 <= t_start < maturity"):
            solve_theta_pde(grid, WarrantTerms(maturity=1.0), unit_params)

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
        # t_start > 0: the variance to go is the antiderivative from 0.3
        assert _theta_error(WarrantTerms(), unit_params, 200, t_start=0.3) < 1e-5

    def test_large_total_variance_accuracy(self):
        # vi ~ 43: the solution is nearly linear in z, which the fitted
        # operator keeps exactly, since z is one of its null vectors
        terms = WarrantTerms(maturity=5.0)
        params = ModelParams(sigma_v=1.5, sigma_r=0.5)
        assert variance_integral(0.0, 5.0, params) == pytest.approx(43.0, abs=0.5)
        assert _theta_error(terms, params, 200) <= 1e-8

    def test_first_row_independent_of_n_t(self, unit_params):
        # each row is exact in time, so the time grid only picks the rows
        terms = WarrantTerms()
        rows = [solve_theta_pde(default_grid(terms, unit_params, n_z=128, n_t=n_t),
                                terms, unit_params).values[0]
                for n_t in (16, 64, 400)]
        for row in rows[1:]:
            np.testing.assert_allclose(row, rows[0], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 24, 63])
    def test_row_equals_solve_started_there(self, unit_params, m):
        # row m of a surface is row 0 of a solve on the same z grid that
        # starts at t_grid[m]: no row carries the time steps before it
        terms = WarrantTerms()
        grid = default_grid(terms, unit_params, n_z=128, n_t=64)
        surf = solve_theta_pde(grid, terms, unit_params)
        late = solve_theta_pde(replace(grid, n_t=16, t_start=surf.t_grid[m]),
                               terms, unit_params)
        np.testing.assert_array_equal(late.z_grid, surf.z_grid)
        np.testing.assert_allclose(late.values[0], surf.values[m], rtol=0.0, atol=1e-14)

    def test_zero_vol_preserves_payoff(self):
        # with sigma_bar = 0 the equation is Theta_t = 0
        terms = WarrantTerms()
        params = ModelParams(sigma_v=0.0, sigma_r=0.0)
        grid = GridSpec(z_min=0.02, z_max=5.0, n_z=64, n_t=64, t_start=0.0)
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


# two log steps on one n_z, so both solves use the same kept sine matrix
_Z_RANGES = ((0.05, 20.0), (0.2, 5.0))


def _solve_on(z_min, z_max, n_z=96, n_t=24):
    grid = GridSpec(z_min=z_min, z_max=z_max, n_z=n_z, n_t=n_t, t_start=0.0)
    return solve_theta_pde(grid, WarrantTerms(), ModelParams()).values


class TestSharedBasis:
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_solves_in_turn_match_fresh_cache(self, order):
        # a solve leaves the kept sine matrix as it found it: the tilt of
        # each log step scales the rows of the product, not the matrix
        fresh = []
        for z_range in _Z_RANGES:
            pde._sine_matrix.cache_clear()
            fresh.append(_solve_on(*z_range))
        pde._sine_matrix.cache_clear()
        for i in order:
            np.testing.assert_array_equal(_solve_on(*_Z_RANGES[i]), fresh[i])
        info = pde._sine_matrix.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_kept_matrix_is_read_only(self):
        pde._sine_matrix.cache_clear()
        _solve_on(*_Z_RANGES[0])
        sines = pde._sine_matrix(94)
        assert pde._sine_matrix.cache_info().hits == 1
        assert sines.flags.writeable is False
        with pytest.raises(ValueError):
            sines *= 2.0

    def test_kept_bytes_are_bounded(self):
        # twelve sizes up to the largest kept side, then two past it, which
        # the solve transforms by the real FFT with no matrix: the cache is
        # left untouched
        pde._sine_matrix.cache_clear()
        for n_z in range(404, 515, 10):
            _solve_on(0.05, 20.0, n_z=n_z, n_t=16)
        assert pde._sine_matrix.cache_info().currsize == pde._KEPT_SIZES == 8
        assert pde._KEPT_SIDE == 512
        for n_z in (515, 700):
            _solve_on(0.05, 20.0, n_z=n_z, n_t=16)
        info = pde._sine_matrix.cache_info()
        assert (info.misses, info.hits, info.currsize) == (12, 0, 8)


def _all_modes(grid, terms, params):
    """Rows 0 .. n_t - 1 of solve_theta_pde inside the boundaries, every
    mode multiplied out, in the solver's arithmetic otherwise (the floor on
    s * eig included, which keeps decayed modes out of the subnormals)."""
    z = np.geomspace(grid.z_min, grid.z_max, grid.n_z)
    t = np.linspace(grid.t_start, terms.maturity, grid.n_t + 1)
    s = 0.5 * variance_integral(t[:-1], terms.maturity, params)
    payoff = dilution_payoff(z, terms)
    h = grid.log_step
    c = 1.0 / (h * math.expm1(h))
    a = c * math.exp(h)
    n = grid.n_z - 2
    j = np.arange(1, n + 1)
    lift = payoff[-1] * (z - z[0]) / (z[-1] - z[0])
    tilt = np.exp((j - 0.5 * (n + 1)) * (0.5 * h))
    sines = pde._sine_matrix.__wrapped__(n)  # dense at every size, past the cache
    eig = -(a + c) + 2.0 * math.sqrt(a * c) * np.cos(j * (math.pi / (n + 1)))
    start = sines @ ((payoff[1:-1] - lift[1:-1]) / tilt) * (2.0 / (n + 1))
    coef = np.exp(np.maximum(np.multiply.outer(s, eig), -500.0)) * start
    return (coef @ sines) * tilt + lift[1:-1]


_VI43 = (WarrantTerms(maturity=5.0), ModelParams(sigma_v=1.5, sigma_r=0.5))


@pytest.mark.parametrize("terms,params,grid", [
    (WarrantTerms(), ModelParams(), default_grid(WarrantTerms(), ModelParams(), n_z=200, n_t=200)),
    (*_VI43, default_grid(*_VI43, n_z=200, n_t=200)),
    (WarrantTerms(), ModelParams(),
     default_grid(WarrantTerms(), ModelParams(), t_start=0.3, n_z=200, n_t=200)),
    *[(WarrantTerms(), ModelParams(),
       GridSpec(z_min=0.01, z_max=0.01 * math.exp(log_step * 31), n_z=32, n_t=32,
                t_start=0.0))
      for log_step in (2.0, 3.0)],
], ids=["unit", "vi43", "t_start=0.3", "log_step=2", "log_step=3"])
def test_mode_cut_is_below_rounding(terms, params, grid):
    # the modes a block leaves out move a node's mode sum by far less than
    # 1e-14 here; adding the lift then rounds once more, which may put a node
    # one ulp away (1.4e-14 at the values ~ 116 near z_max of the unit market)
    want = _all_modes(grid, terms, params)
    got = solve_theta_pde(grid, terms, params).values[:-1, 1:-1]
    assert np.all(np.abs(got - want) <= 1e-14 + np.spacing(np.abs(want)))


class TestTransformAboveKeptSide:
    @pytest.mark.parametrize("n", [1, 10, 522])
    def test_dst_is_the_sine_product(self, n):
        # n + 1 = 523 is prime, the FFT's slowest kind of length
        rng = np.random.default_rng(n)
        dense = pde._sine_matrix.__wrapped__(n)
        for k in sorted({0, min(3, n), n}):
            x = rng.standard_normal((5, k))
            np.testing.assert_allclose(pde._dst(x, n), x @ dense[:k], rtol=0.0,
                                       atol=1e-12 * max(1.0, np.abs(x).sum()))

    @pytest.mark.parametrize("n_z", [600, 1000])
    @pytest.mark.parametrize("terms,params", [
        (WarrantTerms(), ModelParams()), (WarrantTerms(), ModelParams(alpha=0.9, hurst=0.7)),
        _VI43,
    ], ids=["unit", "fractional", "vi43"])
    def test_matches_dense_product(self, terms, params, n_z):
        # above the kept side both sine products are a DST by the real FFT;
        # n_t = 40 takes two blocks of rows
        grid = default_grid(terms, params, n_z=n_z, n_t=40)
        want = _all_modes(grid, terms, params)
        got = solve_theta_pde(grid, terms, params).values[:-1, 1:-1]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_large_solve_adds_little_memory(self):
        # at n_z = 4000 a dense sine matrix and its index matrix would add about
        # 245 MB; the block temporaries of the transform add a few MB
        code = ("import resource; import numpy.fft; from subfbm import ModelParams, "
                "WarrantTerms, pde; terms, params = WarrantTerms(), ModelParams(alpha=0.9, "
                "hurst=0.7); grid = pde.default_grid(terms, params, n_z=4000, n_t=16); "
                "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
                "pde.solve_theta_pde(grid, terms, params); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)")
        src = os.path.dirname(os.path.dirname(pde.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) < 20 * 1024  # ru_maxrss counts KiB on Linux


def _warrant_residual(variant, h, params):
    terms = WarrantTerms()

    def price_fn(v, r, t):
        return warrant_price(v, r, t, terms, params, variant).price

    return abs(residual_warrant_pde(price_fn, (1.1, 0.8, 0.45), (h, h, h), params))


def _bond_residual(variant, h, params):
    def price_fn(r, t):
        return bond_price(r, t, 1.0, params, variant=variant).price

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

        with pytest.raises(ValueError, match="need t - h_t > 0"):
            residual_warrant_pde(price_fn, (1.0, 1.0, 0.0), (0.1, 0.1, 0.1), unit_params)
        with pytest.raises(ValueError, match="need V - h_v > 0"):
            residual_warrant_pde(price_fn, (0.1, 1.0, 0.5), (0.1, 0.1, 0.1), unit_params)
        with pytest.raises(ValueError, match="need t - h_t > 0"):
            residual_bond_pde(lambda r, t: 1.0, (0.8, 0.1), (0.1, 0.1), unit_params)

    @pytest.mark.parametrize("h_r", [1e-300, 1e200, -0.1, math.nan])
    def test_rejects_steps_whose_square_leaves_float_range(self, unit_params, h_r):
        # h_r^2 rounds to 0 at 1e-300 (a ZeroDivisionError before) and
        # overflows at 1e200
        with pytest.raises(ValueError, match="finite-difference steps must be positive, with "
                                             "squares in float range"):
            residual_bond_pde(lambda r, t: 1.0, (0.8, 0.45), (h_r, 1e-3), unit_params)
        with pytest.raises(ValueError, match="finite-difference steps must be positive"):
            residual_warrant_pde(lambda v, r, t: v, (1.1, 0.8, 0.45), (1e-3, h_r, 1e-3),
                                 unit_params)
