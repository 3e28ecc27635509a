import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from subfbm import WarrantTerms, pde, processes
from subfbm.pde import default_grid, solve_theta_pde
from subfbm.processes import (
    HorizonError,
    ModelParams,
    RngSeed,
    SubdiffusivePath,
    _fbm,
    _subordinator,
    one_sided_stable,
    simulate_paths,
)


class TestRngSeed:
    def test_determinism(self):
        a = RngSeed(7).generator().standard_normal(5)
        b = RngSeed(7).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(7, 0).generator().standard_normal(5)
        b = RngSeed(7, 1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2 ** 64)


class TestModelParams:
    def test_default_market(self):
        p = ModelParams()
        assert (p.alpha, p.hurst, p.rho) == (0.9, 0.7, 0.5)
        assert p.mu_v == p.sigma_v == p.mu_r == p.sigma_r == p.r0 == p.v0 == 1.0

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.4), dict(alpha=1.1), dict(hurst=0.4), dict(hurst=1.0),
        dict(alpha=0.6, hurst=0.5),  # alpha * (1 + H) = 0.9 <= 1
        dict(sigma_v=-0.1), dict(sigma_r=-0.1), dict(rho=1.5), dict(rho=-1.5),
        dict(v0=0.0), dict(v0=-1.0), dict(mu_v=math.nan), dict(r0=math.inf),
    ])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            ModelParams(**bad)

    def test_alpha_one_allows_all_hurst(self):
        # the memory constraint alpha*(1+H) > 1 only binds for alpha < 1
        ModelParams(alpha=1.0, hurst=0.5)


class TestSubdiffusivePath:
    @pytest.mark.parametrize("field, values, message", [
        ("rate", [0.0, 0.0], "path arrays must share one length"),
        ("t_alpha", [0.0, 0.5, 0.4], "inverse clock must be nondecreasing"),
        ("asset", [1.0, 0.0, 1.0], "asset path must stay positive"),
    ])
    def test_rejects_inconsistent_arrays(self, field, values, message):
        arrays = dict(t_grid=np.array([0.0, 0.5, 1.0]), t_alpha=np.array([0.0, 0.4, 0.9]),
                      asset=np.ones(3), rate=np.zeros(3))
        arrays[field] = np.array(values)
        with pytest.raises(ValueError, match=message):
            SubdiffusivePath(**arrays)


class TestOneSidedStable:
    @pytest.mark.parametrize("alpha", [0.6, 0.9])
    def test_laplace_transform(self, alpha):
        # E exp(-u S) = exp(-u^alpha) pins the whole distribution
        gen = RngSeed(11, 1).generator()
        s = one_sided_stable(alpha, 40_000, gen)
        assert np.all(s > 0.0)
        for u in (0.5, 1.0, 2.0):
            x = np.exp(-u * s)
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - math.exp(-u ** alpha)) < 4.0 * se

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            one_sided_stable(alpha, 10, RngSeed(0).generator())

    def test_alpha_near_one_degenerates(self):
        gen = RngSeed(3).generator()
        s = one_sided_stable(1.0 - 1e-10, 1000, gen)
        np.testing.assert_allclose(s, 1.0, rtol=1e-5)


class StalledClock:
    """Stand-in generator whose stable draws are all zero: S = 0 when w = inf."""

    drawn = 0

    def uniform(self, low, high, size):
        self.drawn += size
        return np.full(size, 0.5 * math.pi)

    def standard_exponential(self, size):
        return np.full(size, np.inf)


class LeapingClock(StalledClock):
    """Stand-in generator whose stable draws are huge (w near 0), so U
    passes any horizon at its first node and no range doubling is needed."""

    def standard_exponential(self, size):
        return np.full(size, 1e-300)


class TestSubordinator:
    @pytest.mark.parametrize("n_steps", [1, 128, 1024, 1025, 3000])
    def test_operational_grid_size(self, n_steps):
        # n_tau = max(n_steps, 1024) steps cover 1.5 E[T_alpha(horizon)]
        alpha, horizon = 0.8, 2.0
        gen = LeapingClock()
        u, d_tau = _subordinator(alpha, horizon, n_steps, gen)
        n_tau = max(n_steps, 1024)
        assert u.size == n_tau + 1 and gen.drawn == n_tau
        assert d_tau == 1.5 * horizon ** alpha / math.gamma(1.0 + alpha) / n_tau

    def test_strictly_increasing_from_zero(self):
        for seed in range(20):
            u, d_tau = _subordinator(0.9, 2.0, 64, RngSeed(seed).generator())
            assert u[0] == 0.0 and u[-1] > 2.0 and d_tau > 0.0
            assert np.all(np.diff(u) > 0.0)

    def test_determinism(self):
        a, _ = _subordinator(0.8, 1.0, 100, RngSeed(5).generator())
        b, _ = _subordinator(0.8, 1.0, 100, RngSeed(5).generator())
        np.testing.assert_array_equal(a, b)

    def test_self_similar_scale(self):
        # U(c tau) = c^(1/alpha) U(tau) in distribution: compare the medians of
        # U at operational nodes 256 and 512, both inside the first allocation
        alpha = 0.7
        u = np.array([_subordinator(alpha, 1.0, 16, RngSeed(s, 7).generator())[0][[256, 512]]
                      for s in range(4000)])
        ratio = np.median(u[:, 1]) / np.median(u[:, 0])
        assert ratio == pytest.approx(2.0 ** (1.0 / alpha), rel=0.1)


class TestInverseSubordinator:
    def test_staircase_hand_case(self, monkeypatch):
        # simulate_paths reads T(t) off the helper's U as the first node where
        # U strictly exceeds t: the ties at U = 0.5 and U = 2.5 go to the next
        # node, and T(0) = 0 by the infimum convention
        monkeypatch.setattr(processes, "_subordinator",
                            lambda alpha, horizon, n_steps, gen: (np.array([0.0, 0.5, 2.5, 4.0]), 1.0))
        path = simulate_paths(ModelParams(), 3.0, 6, RngSeed(0))
        np.testing.assert_array_equal(path.t_grid, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        np.testing.assert_array_equal(path.t_alpha, [0.0, 2.0, 2.0, 2.0, 2.0, 3.0, 3.0])

    def test_nondecreasing_right_continuous(self):
        # a stand-in generator whose first 600 stable draws are zero, so U stays
        # at 0 up to node 600: T(0) must still be 0, and every T(t) must be the
        # first node of the helper's U strictly above t, found by a plain scan
        class FlatStart(StalledClock):
            def standard_exponential(self, size):
                w = np.ones(size)
                w[:600] = np.inf
                return w

            def standard_normal(self, size):
                return np.random.default_rng(8).standard_normal(size)

        horizon, n_steps = 1.0, 50
        u, d_tau = _subordinator(0.8, horizon, n_steps, FlatStart())
        assert u[600] == 0.0 < u[601]
        path = simulate_paths(ModelParams(alpha=0.8), horizon, n_steps, FlatStart())
        want = [0.0] + [d_tau * next(k for k in range(u.size) if u[k] > t)
                        for t in path.t_grid[1:]]
        np.testing.assert_array_equal(path.t_alpha, want)
        assert np.all(np.diff(path.t_alpha) >= 0.0)

    def test_horizon_error(self):
        gen = StalledClock()
        with pytest.raises(HorizonError):
            _subordinator(0.8, 1.0, 10, gen)
        assert gen.drawn == 1024 * 2 ** processes._MAX_DOUBLINGS


class TestFbm:
    def test_determinism(self):
        a = _fbm(0.7, 64, 1.0 / 64.0, RngSeed(1).generator())
        b = _fbm(0.7, 64, 1.0 / 64.0, RngSeed(1).generator())
        np.testing.assert_array_equal(a, b)

    def test_brownian_increment_variance(self):
        n, dt = 32, 1.0 / 32.0
        incs = np.diff(_fbm(0.5, n, dt, RngSeed(21).generator(), (2000,)), axis=1).ravel()
        var = incs.var(ddof=1)
        se = var * math.sqrt(2.0 / (incs.size - 1))
        assert abs(var - dt) < 4.0 * se

    @pytest.mark.parametrize("hurst", [0.5, 0.7, 0.9])
    def test_endpoint_variance(self, hurst):
        ends = _fbm(hurst, 16, 1.0 / 16.0, RngSeed(22).generator(), (6000,))[:, -1]
        var = ends.var(ddof=1)
        se = var * math.sqrt(2.0 / (ends.size - 1))
        assert abs(var - 1.0) < 4.0 * se

    def test_covariance_function(self):
        # E B(s) B(t) = (s^2H + t^2H - |t-s|^2H) / 2 at (s, t) = (0.5, 1)
        hurst = 0.7
        n, dt = 16, 1.0 / 16.0
        paths = _fbm(hurst, n, dt, RngSeed(23).generator(), (8000,))
        prod = paths[:, 8] * paths[:, 16]
        s, t = 8 * dt, 1.0
        want = 0.5 * (s ** (2 * hurst) + t ** (2 * hurst) - (t - s) ** (2 * hurst))
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(prod.mean() - want) < 4.0 * se

    def test_sample_covariance_matrix(self):
        # full covariance against the exact one, entrywise within 5 se
        hurst = 0.8
        n, dt = 8, 0.125
        paths = _fbm(hurst, n, dt, RngSeed(24).generator(), (10_000,))[:, 1:]
        emp = (paths.T @ paths) / paths.shape[0]
        grid = dt * np.arange(1, n + 1)
        ss, tt = np.meshgrid(grid, grid, indexing="ij")
        exact = 0.5 * (ss ** (2 * hurst) + tt ** (2 * hurst) - np.abs(ss - tt) ** (2 * hurst))
        se = np.sqrt((np.diag(exact)[:, None] * np.diag(exact)[None, :] + exact ** 2)
                     / paths.shape[0])
        assert np.all(np.abs(emp - exact) < 5.0 * se)

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 1000])
    def test_batch_matches_sequential_calls(self, hurst, n):
        # row-major draws: path k of a batch is the k-th of k consecutive calls,
        # and a (k, 2) batch holds the k consecutive (2,) pairs simulate_paths draws
        k, dt = 5, 0.1
        batch = _fbm(hurst, n, dt, RngSeed(13, n).generator(), (k,))
        gen = RngSeed(13, n).generator()
        np.testing.assert_array_equal(batch, [_fbm(hurst, n, dt, gen) for _ in range(k)])
        pairs = _fbm(hurst, n, dt, RngSeed(14, n).generator(), (k, 2))
        gen = RngSeed(14, n).generator()
        np.testing.assert_array_equal(pairs, [_fbm(hurst, n, dt, gen, (2,)) for _ in range(k)])

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 1000])
    def test_sampler_maps_its_normals(self, hurst, n):
        # _fbm is its draw of 2n unit normals per path, then _fbm_map, bit for bit
        k, dt = 5, 0.1
        for shape in ((), (k,), (k, 2)):
            v = RngSeed(15, n).generator().standard_normal(shape + (2 * n,))
            np.testing.assert_array_equal(
                _fbm(hurst, n, dt, RngSeed(15, n).generator(), shape),
                processes._fbm_map(hurst, n, dt, v))

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 100])
    def test_map_of_identity_is_the_exact_covariance(self, hurst, n):
        # the map is linear: its image A of the identity has A^T A equal to
        # E B(s) B(t) = (s^2H + t^2H - |t-s|^2H) / 2 on the whole grid
        dt = 1.0 / n
        a = processes._fbm_map(hurst, n, dt, np.eye(2 * n))
        assert a.shape == (2 * n, n + 1)
        grid = dt * np.arange(n + 1)
        ss, tt = np.meshgrid(grid, grid, indexing="ij")
        exact = 0.5 * (ss ** (2 * hurst) + tt ** (2 * hurst) - np.abs(ss - tt) ** (2 * hurst))
        np.testing.assert_allclose(a.T @ a, exact, rtol=0.0, atol=1e-12)

    def test_indefinite_embedding_raises(self, monkeypatch):
        # no H in (0, 1) produces one; an autocovariance with |g(1)| > g(0) does
        monkeypatch.setattr(processes, "_fgn_autocov", lambda hurst, n: np.array([1.0, 2.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative definite"):
            _fbm(0.6180339887, 2, 0.5, RngSeed(0).generator())

    def test_arrays_above_the_gate_are_not_kept(self, monkeypatch):
        # a path longer than _KEPT_N does not call the spectrum cache, and
        # draws the same numbers as a kept one
        n = processes._KEPT_N + 1
        params = ModelParams(alpha=1.0, hurst=0.7)
        before = processes._fgn_spectrum.cache_info()
        path = simulate_paths(params, 1.0, n, RngSeed(3))
        after = processes._fgn_spectrum.cache_info()
        assert after.hits + after.misses == before.hits + before.misses
        monkeypatch.setattr(processes, "_KEPT_N", n)
        kept = simulate_paths(params, 1.0, n, RngSeed(3))
        for name in ("t_alpha", "asset", "rate"):
            np.testing.assert_array_equal(getattr(path, name), getattr(kept, name))

    def test_low_hurst_allowed(self):
        # the sampler itself covers all of (0, 1); only the market model
        # restricts H to [1/2, 1)
        path = _fbm(0.3, 8, 0.125, RngSeed(0).generator())
        assert path.shape == (9,) and np.isfinite(path).all()


class TestCorrelatedPair:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_endpoint_correlation(self, rho):
        # B2 = rho B1 + sqrt(1 - rho^2) B_perp, as simulate_paths pairs them
        e1, e_perp = _fbm(0.7, 8, 0.125, RngSeed(31).generator(), (6000, 2))[:, :, -1].T
        e2 = rho * e1 + math.sqrt(1.0 - rho * rho) * e_perp
        corr = np.corrcoef(e1, e2)[0, 1]
        se = (1.0 - rho ** 2) / math.sqrt(e1.size)
        assert abs(corr - rho) < 4.0 * se

    def test_rho_one_collapses(self):
        # with rho = 1 both drivers are B1: log V and r carry the same noise
        p = ModelParams(alpha=1.0, hurst=0.6, rho=1.0, mu_v=0.0, mu_r=0.0, r0=0.0)
        path = simulate_paths(p, 1.0, 16, RngSeed(4), wick_correction=False)
        np.testing.assert_allclose(np.log(path.asset), path.rate, atol=1e-12)


# simulate_paths(ModelParams(alpha=a), 1.0, 200, RngSeed(42)) at the nodes
# 0, 50, ..., 200: t_alpha, rate, asset with and without the Wick correction.
# The alpha = 1 row was recorded when each fBm path was a complex FFT over the
# mirrored spectrum; the alpha < 1 rows when the operational grid became
# max(n_steps, 1024) steps (1024 here, where it was 1600)
_FROZEN_PATHS = {
    1.0: ([0.0, 0.25, 0.5, 0.75, 1.0],
          [1.0, 0.9742220122935362, 1.2019297125864916, 2.019171584802149, 2.243715889608512],
          [1.0, 0.7739441365025588, 0.6952262669427949, 1.2956512289894566, 1.2624126627846357],
          [1.0, 0.8315515915839442, 0.8402520676354657, 1.8098634657534771, 2.081366609534217]),
    0.9: ([0.0, 0.4356001207374376, 0.7569694405821905, 1.1057541526411878, 1.4560619420454208],
          [1.0, 2.5128221725426956, 3.6668170365659685, 4.364689055119813, 5.285456479124649],
          [1.0, 2.4855544609388294, 8.642998251970049, 23.575183037651342, 50.710675529755555],
          [1.0, 2.9057749890532163, 12.125902651123377, 41.91972427550263, 118.18328075959342]),
    0.7: ([0.0, 0.6432398654354626, 1.3412921504819673, 2.016774615688631, 2.632608271318573],
          [1.0, 1.6955871405995642, 0.898926733277432, 1.6780312014831495, 2.186711898050017],
          [1.0, 0.43687490583335215, 0.2785239788238425, 0.8096920169748838, 5.204029927040254],
          [1.0, 0.572051871287607, 0.5921336152502412, 3.0769119947761707, 36.16652260394118]),
}


class TestSimulatePaths:
    @pytest.mark.parametrize("wick", [True, False])
    @pytest.mark.parametrize("alpha", [1.0, 0.9, 0.7])
    def test_frozen_values(self, alpha, wick):
        t_alpha, rate, asset_wick, asset_raw = _FROZEN_PATHS[alpha]
        path = simulate_paths(ModelParams(alpha=alpha), 1.0, 200, RngSeed(42),
                              wick_correction=wick)
        np.testing.assert_array_equal(path.t_alpha[::50], t_alpha)
        np.testing.assert_allclose(path.asset[::50], asset_wick if wick else asset_raw,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(path.rate[::50], rate, rtol=0.0, atol=1e-13)

    def test_determinism(self, unit_params):
        a = simulate_paths(unit_params, 1.0, 200, RngSeed(42))
        b = simulate_paths(unit_params, 1.0, 200, RngSeed(42))
        np.testing.assert_array_equal(a.asset, b.asset)
        np.testing.assert_array_equal(a.rate, b.rate)
        np.testing.assert_array_equal(a.t_alpha, b.t_alpha)

    def test_shapes_and_anchors(self, unit_params):
        path = simulate_paths(unit_params, 2.0, 300, RngSeed(1))
        assert path.t_grid.shape == (301,)
        assert path.t_grid[0] == 0.0 and path.t_grid[-1] == 2.0
        assert path.t_alpha[0] == 0.0
        assert path.asset[0] == unit_params.v0
        assert path.rate[0] == unit_params.r0

    def test_clock_monotone_and_flat(self, unit_params):
        path = simulate_paths(unit_params, 1.0, 1000, RngSeed(42))
        d = np.diff(path.t_alpha)
        assert np.all(d >= 0.0)
        # trapping: the clock (hence the asset) must show genuinely flat stretches
        flat = d == 0.0
        assert flat.any()
        asset_flat = np.diff(path.asset) == 0.0
        assert asset_flat.any()

    def test_alpha_one_identity_clock(self):
        p = ModelParams(alpha=1.0, hurst=0.7)
        path = simulate_paths(p, 1.5, 128, RngSeed(3))
        np.testing.assert_array_equal(path.t_alpha, path.t_grid)

    def test_near_one_clock_close_to_identity(self):
        p = ModelParams(alpha=1.0 - 1e-6, hurst=0.7)
        path = simulate_paths(p, 2.0, 400, RngSeed(5))
        for t in (0.5, 1.0, 2.0):
            i = np.searchsorted(path.t_grid, t)
            assert abs(path.t_alpha[i] / t - 1.0) < 0.01

    def test_wick_correction_is_a_drift_change_only(self, unit_params):
        a = simulate_paths(unit_params, 1.0, 200, RngSeed(9), wick_correction=True)
        b = simulate_paths(unit_params, 1.0, 200, RngSeed(9), wick_correction=False)
        np.testing.assert_array_equal(a.rate, b.rate)
        np.testing.assert_array_equal(a.t_alpha, b.t_alpha)
        # same noise, different deterministic compensator
        ratio = b.asset / a.asset
        assert np.all(ratio[1:] >= 1.0)

    def test_wick_mean_is_martingale_like(self):
        # with mu_v = 0 the corrected asset has E V(tau) = v0 in operational time
        p = ModelParams(alpha=1.0, hurst=0.7, mu_v=0.0, sigma_v=0.5)
        gen = RngSeed(77).generator()
        ends = np.array([simulate_paths(p, 1.0, 64, gen).asset[-1] for _ in range(4000)])
        se = ends.std(ddof=1) / math.sqrt(ends.size)
        assert abs(ends.mean() - p.v0) < 4.0 * se

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1.0, 0.9])
    def test_overflowing_asset_is_a_value_error(self, alpha):
        # exp(mu_v T_alpha) passes the largest float; the path used to hold
        # inf and raise a RuntimeWarning
        params = ModelParams(mu_v=1e5, alpha=alpha)
        with pytest.raises(ValueError, match=r"path overflows over horizon=1.0 with "
                                             r"ModelParams\(mu_v=100000.0"):
            simulate_paths(params, 1.0, 10, RngSeed(0))

    @pytest.mark.parametrize("alpha", [1.0, 0.9])
    def test_overflowing_wick_term_is_a_value_error(self, alpha):
        # the Python float sigma_v ** 2 of the Wick term used to raise a bare OverflowError
        params = ModelParams(sigma_v=1e200, alpha=alpha)
        with pytest.raises(ValueError, match=r"path overflows over horizon=1.0 with "
                                             r"ModelParams\(mu_v=1.0, sigma_v=1e\+200"):
            simulate_paths(params, 1.0, 10, RngSeed(0))

    def test_rejects_bad_horizon(self, unit_params):
        with pytest.raises(ValueError):
            simulate_paths(unit_params, 0.0, 100, RngSeed(0))
        with pytest.raises(ValueError):
            simulate_paths(unit_params, -1.0, 100, RngSeed(0))

    @pytest.mark.parametrize("n_steps", [10.5, float("nan"), float("inf"), True, 0])
    def test_rejects_non_integer_steps(self, unit_params, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            simulate_paths(unit_params, 1.0, n_steps, RngSeed(0))

    @pytest.mark.parametrize("rng", [42, np.int64(42)])
    def test_rejects_a_bare_seed(self, unit_params, rng):
        # an integer used to fail deep in the sampler with an AttributeError
        with pytest.raises(ValueError, match=r"rng must be an RngSeed or a numpy Generator, "
                                             r"got (np\.int64\()?42"):
            simulate_paths(unit_params, 1.0, 10, rng)

    def test_range_doubling_is_bounded(self, unit_params):
        # stable draws of zero never reach the horizon: the loop must give up
        # with HorizonError after at most 1024x its first allocation instead
        # of doubling until memory runs out
        gen = StalledClock()
        with pytest.raises(HorizonError):
            simulate_paths(unit_params, 1.0, 100, gen)
        first = max(100, 1024)
        assert first < gen.drawn <= 1024 * first


class TestClockLaw:
    @pytest.mark.parametrize("alpha", [0.7, 0.9])
    def test_mittag_leffler_marginal(self, alpha):
        # the inverse alpha-stable clock at t = 1 is Mittag-Leffler distributed,
        # E[T^n] = n! / Gamma(1 + n alpha) (Meerschaert & Scheffler 2004), and
        # equal in law to S^(-alpha) with S one-sided stable
        params = ModelParams(alpha=alpha, hurst=0.7)
        ends = np.array([simulate_paths(params, 1.0, 16, RngSeed(2024, i)).t_alpha[-1]
                         for i in range(1000)])
        for n in (1, 2):
            x = ends ** n
            se = x.std(ddof=1) / math.sqrt(x.size)
            assert abs(x.mean() - math.factorial(n) / math.gamma(1.0 + n * alpha)) <= 4.0 * se
        exact = one_sided_stable(alpha, 20_000, RngSeed(2024, 10 ** 6).generator()) ** -alpha
        assert ks_2samp(ends, exact).pvalue > 1e-3


def test_two_threads_share_the_caches():
    # two threads each solve the theta PDE at two sizes and simulate paths
    # at two lengths at once, starting from empty caches: they build and
    # share the kept sine matrices (the same two sizes) and spectra; every
    # result of every round equals the serial call
    terms = WarrantTerms()
    calls = []
    for alpha, hurst in ((1.0, 0.55), (0.9, 0.8)):
        params = ModelParams(alpha=alpha, hurst=hurst)
        calls += [lambda p=params, n=n: solve_theta_pde(
            default_grid(terms, p, n_z=n, n_t=32), terms, p).values for n in (60, 90)]
        calls += [lambda p=params, n=n: simulate_paths(p, 1.0, n, RngSeed(5, n)).rate
                  for n in (300, 700)]
    serial = [call() for call in calls]
    pde._sine_matrix.cache_clear()
    processes._fgn_spectrum.cache_clear()
    rounds = 20
    results = [[], []]
    start = threading.Barrier(2, timeout=60)

    def work(i):
        start.wait()
        for _ in range(rounds):
            results[i] += [call() for call in calls[4 * i:4 * i + 4]]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i in range(2):
        assert len(results[i]) == 4 * rounds
        for k, got in enumerate(results[i]):
            np.testing.assert_array_equal(got, serial[4 * i + k % 4])


@pytest.mark.parametrize("code, unloaded", [
    # the package resolves its names on first use, so importing it loads no
    # numpy at all
    ("import subfbm", ("numpy",)),
    # numpy loads numpy.random lazily, on first use; an eager reference at
    # import time (such as an unquoted np.random annotation) would add its
    # memory and import time to every program that loads the sampler
    ("import subfbm.processes", ("numpy.random",)),
    # the package depends on numpy and click alone; scipy, mpmath and
    # hypothesis are test extras
    ("import subfbm.cli; from subfbm import validation; validation.run_checks(quick=True)",
     ("scipy", "mpmath", "hypothesis")),
    # pricing needs the standard library and click only
    # (and no logging, whose import would cost every quote, diagnostics or not)
    ("from subfbm import cli; cli.main(['price-bond'], standalone_mode=False)",
     ("numpy", "logging")),
    ("from subfbm import cli; cli.main(['price-bond', '--sweep', '--points', '3'], "
     "standalone_mode=False)", ("numpy", "logging")),
    ("from subfbm import cli; cli.main(['price-warrant'], standalone_mode=False)",
     ("numpy", "logging")),
    ("from subfbm import cli; cli.main(['price-warrant', '--sweep', '--points', '3'], "
     "standalone_mode=False)", ("numpy", "logging")),
    # the lazily resolved names still import their modules on demand
    ("from subfbm import ModelParams, RngSeed, simulate_paths; "
     "assert simulate_paths(ModelParams(), 1.0, 16, RngSeed(0)).asset.shape == (17,)", ()),
    # and so do the submodules as attributes of the package
    ("import subfbm; assert subfbm.warrant.variance_integral(0.5, 1.0, subfbm.ModelParams()) > 0",
     ("numpy",)),
], ids=["import", "import-processes", "cli-and-validate", "price-bond", "price-bond-sweep",
        "price-warrant", "price-warrant-sweep", "simulate-paths", "submodule-attribute"])
def test_leaves_modules_unloaded(code, unloaded):
    src = os.path.dirname(os.path.dirname(processes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import sys; {code}; assert set({unloaded!r}).isdisjoint(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
