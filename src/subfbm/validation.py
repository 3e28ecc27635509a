"""Cross-oracle consistency checks behind the `validate` CLI command.

Every check pits one implementation route against an independent one:
the bond exponent's closed form against its limits and Simpson's rule,
closed forms against the finite-difference residual and the theta solver,
Monte Carlo against the classical limits, sampled subordinators against
their invariants, and the fBm sampler's Davies-Harte map against the exact
fBm covariance. The map is linear in its unit normals, so its image of the
identity gives the covariance of its paths exactly: the fBm checks draw
nothing and read neither the seed nor `quick`. A formula variant can be
injected to demonstrate that the suite actually detects the inconsistent
published variants.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bond, mc, pde, warrant
from .numerics import gamma, normal_cdf
from .params import ModelParams
from .processes import RngSeed, _fbm_map, _subordinator

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: str
    observed: str
    tolerance: str
    passed: bool
    elapsed_s: float = 0.0  # wall time of the check, set by run_checks


def _check_f1_limit(name: str, target: str, cases) -> CheckResult:
    # f1 at alpha = 1 - 1e-8 against its alpha = 1 closed form
    # sigma^2 tau^(2H+2) / ((2H+1)(2H+2)) - mu tau^2 / 2, for each (H, mu, sigma, tau)
    errs = []
    for hurst, mu, sg, tau in cases:
        p = ModelParams(alpha=1.0 - 1e-8, hurst=hurst, mu_r=mu, sigma_r=sg)
        h2 = 2.0 * hurst
        want = sg ** 2 * tau ** (h2 + 2.0) / ((h2 + 1.0) * (h2 + 2.0)) - mu * tau ** 2 / 2.0
        errs.append(abs(bond.f1_general(0.0, tau, p) - want) / abs(want))
    worst = float(np.max(errs))  # a NaN, which a running max() would drop, fails
    return CheckResult(name, target, f"max rel err {worst:.2e}", "1e-4 rel", worst <= 1e-4)


def _simpson(rate, grid) -> np.ndarray:
    """Integral of `rate` (a function of an array) from grid[0] to every node.

    Simpson's rule on each interval, h/6 (f0 + 2 fm + 2 fm + f1): the RK4
    step, in its own operation order, of y' = rate(t), whose right-hand side
    is free of y. The panels are summed left to right.
    """
    t = np.asarray(grid, dtype=float)
    h = np.diff(t)
    f = rate(t)
    fm = rate(t[:-1] + 0.5 * h)
    panels = (h / 6.0) * (f[:-1] + 2.0 * fm + 2.0 * fm + f[1:])
    return np.concatenate(([0.0], np.cumsum(panels)))


def _check_bond_ode_cross(quick: bool) -> CheckResult:
    maturity = 1.0
    n = 721 if quick else 1441
    grid = np.linspace(0.0, 0.9, n)
    gaps = []
    for a in (0.9, 0.7):
        for hurst in (0.9, 0.7):
            p = ModelParams(alpha=a, hurst=hurst)
            ga = gamma(a)
            c_vol = p.sigma_r ** 2 * hurst / ga ** (2.0 * hurst)
            c_drift = p.mu_r / ga

            def rate(tau):
                rem = maturity - tau
                return (c_vol * rem ** (2.0 * a * hurst - 1.0) * tau ** 2
                        - c_drift * rem ** (a - 1.0) * tau)

            y = _simpson(rate, grid)
            gaps += [abs(bond.f1_general(maturity - grid[i], maturity, p) - y[i])
                     for i in range(n // 6, n, n // 6)]
    worst = float(np.max(gaps))  # a NaN, which a running max() would drop, fails
    return CheckResult("bond f1, ODE march vs closed form",
                       "Simpson's rule of the exponent's rate",
                       f"max abs diff {worst:.2e}", "1e-6 abs", worst <= 1e-6)


def _bs_market():
    terms = warrant.WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                                 shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    params = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                         mu_r=0.0, rho=0.0)
    return terms, params


def _bs_call(spot, strike, r, sigma, tau):
    sq = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma ** 2) * tau) / sq
    return spot * normal_cdf(d1) - strike * math.exp(-r * tau) * normal_cdf(d1 - sq)


def _check_bs_limit(variant: str) -> CheckResult:
    terms, params = _bs_market()
    res = warrant.warrant_price(100.0, 0.05, 0.0, terms, params, variant=variant)
    want = _bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
    err = abs(res.price - want)
    return CheckResult(f"warrant Black-Scholes limit ({variant})", f"{want:.10f}",
                       f"{res.price:.10f} (abs err {err:.2e})", "1e-10 abs", err <= 1e-10)


def _check_residual(name: str, residual) -> CheckResult:
    # residual(h): a closed form in its own PDE by central differences of step
    # h, an O(h^2) error that should fall about 4x per halving
    vals = [abs(residual(h)) for h in (0.08, 0.04, 0.02, 0.01)]
    ratios = [a / b if b != 0.0 else math.inf for a, b in zip(vals, vals[1:])]
    return CheckResult(name, "ratio in [3, 5] per halving",
                       "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
                       "3 halvings", all(3.0 <= r <= 5.0 for r in ratios))


def _check_theta_pde(quick: bool) -> CheckResult:
    terms, params_c = _bs_market()
    params_f = replace(params_c, alpha=0.9, hurst=0.7)
    n = 100 if quick else 400
    errs = []
    for params, tol in ((params_c, 1e-3), (params_f, 5e-3)):
        grid = pde.default_grid(terms, params, n_z=n, n_t=n)
        surf = pde.solve_theta_pde(grid, terms, params)
        # Theta(z, 0) = warrant_price(z P, r, 0) / P, by warrant_price's kernel
        # with the total variance computed once
        vi = warrant.variance_integral(0.0, terms.maturity, params)
        k, nx = terms.shares_per_warrant, terms.shares_outstanding * terms.strike
        exact = np.array([terms.dilution_factor * warrant._forward_call(k * zz, nx, 1.0, vi)[0]
                          for zz in surf.z_grid[1:-1]])
        err = np.abs(surf.values[0][1:-1] - exact).max() / np.abs(exact).max()
        errs.append(err / tol)
    worst = float(np.max(errs))  # a NaN, which a running max() would drop, fails
    return CheckResult("theta PDE vs closed form", "scale-normalized sup error",
                       f"worst err/tol {worst:.3f}", "1e-3 classical, 5e-3 fractional",
                       worst <= 1.0)


def _check_mc(name: str, digits: int, target: float, est) -> CheckResult:
    z = abs(est.mean - target) / est.std_error
    return CheckResult(name, f"{target:.{digits}f}",
                       f"{est.mean:.{digits}f} +- {est.std_error:.1e} (z={z:.2f})",
                       "3 sigma", z <= 3.0)


def _check_clock_monotone(quick: bool, seed: int) -> CheckResult:
    # at least 1024 stable increments per path: 25 600 quick, 256 000 full
    n_paths = 25 if quick else 250
    bad = 0
    for i in range(n_paths):
        u, _ = _subordinator(0.9, 1.0, 32, RngSeed(seed, 300 + i).generator())
        if not np.all(np.diff(u) > 0.0) or not u[-1] > 1.0:
            bad += 1
    return CheckResult("subordinator strictly increasing", "0 violations",
                       f"{bad} of {n_paths} paths", "exact", bad == 0)


def _fbm_cov(hurst: float, n: int, dt: float) -> np.ndarray:
    # E B(s) B(t) = (s^2H + t^2H - |t - s|^2H) / 2 at every pair of grid times
    t = dt * np.arange(n + 1)
    h2 = 2.0 * hurst
    return 0.5 * (t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t) ** h2)


def _check_fbm_variance() -> CheckResult:
    # _fbm maps unit normals linearly, so its paths have the covariance A^T A
    # of the map's image A of the identity: exact, with no path drawn
    n = 16
    errs = []
    for hurst in (0.5, 0.7, 0.9):
        a = _fbm_map(hurst, n, 1.0 / n, np.eye(2 * n))
        errs.append(np.abs(a.T @ a - _fbm_cov(hurst, n, 1.0 / n)).max())
    worst = float(np.max(errs))  # a NaN, which a running max() would drop, fails
    return CheckResult("fBm endpoint variance",
                       "(s^2H + t^2H - |t-s|^2H)/2, H in {0.5, 0.7, 0.9}",
                       f"max abs err {worst:.2e}", "1e-12 abs", worst <= 1e-12)


def _check_pair_correlation() -> CheckResult:
    # simulate_paths maps B1 and B_perp from one (2,) batch of 4n normals;
    # mapping the 4n unit vectors gives each path the covariance K and the
    # pair none across, so B2 = rho B1 + sqrt(1 - rho^2) B_perp has
    # correlation rho with B1 at every time
    n = 8
    a = _fbm_map(0.7, n, 1.0 / n, np.eye(4 * n).reshape(4 * n, 2, 2 * n)).reshape(4 * n, -1)
    worst = float(np.abs(a.T @ a - np.kron(np.eye(2), _fbm_cov(0.7, n, 1.0 / n))).max())
    return CheckResult("fBm pair endpoint correlation", "K on each path, 0 across",
                       f"max abs err {worst:.2e}", "1e-12 abs", worst <= 1e-12)


def _check_d_identity(seed: int) -> CheckResult:
    # the 14 draws of each case as standard uniforms from one call; uniform
    # maps the next one to lo + (hi - lo) u, the arithmetic of
    # Generator.uniform, so the cases are those of one rng.uniform per draw
    n = 300
    draws = iter(np.random.default_rng(seed).random((n, 14)).ravel().tolist())

    def uniform(lo, hi):
        return lo + (hi - lo) * next(draws)

    gaps = []
    bound_bad = 0
    for _ in range(n):
        hurst = uniform(0.5, 0.95)
        alpha = uniform(max(0.501, 1.0 / (1.0 + hurst) + 1e-3), 1.0)
        params = ModelParams(alpha=alpha, hurst=hurst,
                             sigma_v=uniform(0.05, 2.0), sigma_r=uniform(0.0, 2.0),
                             rho=uniform(-1.0, 1.0), mu_r=uniform(-1.0, 2.0))
        terms = warrant.WarrantTerms(
            shares_outstanding=uniform(0.5, 10.0),
            warrants_outstanding=uniform(0.0, 5.0),
            shares_per_warrant=uniform(0.2, 3.0),
            strike=uniform(0.2, 3.0),
            maturity=uniform(0.1, 2.0),
        )
        t = uniform(0.0, 0.95 * terms.maturity)
        v = uniform(0.05, 5.0)
        r = uniform(-0.5, 2.0)
        res = warrant.warrant_price(v, r, t, terms, params)
        ub = terms.shares_per_warrant * v * terms.dilution_factor
        if not 0.0 <= res.price <= ub * (1.0 + 1e-12):
            bound_bad += 1
        if res.variance_integral != 0.0:  # d1 = d2 = +-inf at 0; a NaN is kept
            gaps.append(abs(res.d1 - res.d2 - math.sqrt(res.variance_integral)))
    worst = float(np.max(gaps, initial=0.0))  # a NaN, which a running max() would drop, fails
    ok = worst <= 1e-12 and bound_bad == 0
    return CheckResult("d1 - d2 identity and price bounds", "sqrt(variance integral); [0, kV/(N+Mk)]",
                       f"worst gap {worst:.2e}, {bound_bad} bound violations", "1e-12; exact", ok)


def run_checks(quick: bool = False, variant: str = "derivation_consistent", seed: int = 0):
    """Run the suite; `variant` is injected into the warrant-formula checks."""
    if variant not in warrant.WARRANT_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}, expected one of {warrant.WARRANT_VARIANTS}"
        )
    # the residual checks price on the unit market
    params, terms = ModelParams(), warrant.WarrantTerms()

    def bond_at(r, t):
        return bond.bond_price(r, t, 1.0, params).price

    def warrant_at(v, r, t):
        return warrant.warrant_price(v, r, t, terms, params, variant).price

    checks = [
        lambda: _check_f1_limit("bond f1, Brownian limit", "cubic closed form",
                                [(0.5, mu, sg, tau) for tau in (0.25, 0.5, 1.0, 2.0)
                                 for mu in (0.1, 1.0) for sg in (0.1, 1.0)]),
        lambda: _check_f1_limit("bond f1, fBm limit", "power-law closed form",
                                [(hurst, 1.0, 1.0, tau) for hurst in (0.5, 0.6, 0.7, 0.8, 0.9)
                                 for tau in (0.5, 1.0, 2.0)]),
        lambda: _check_bond_ode_cross(quick),
        lambda: _check_bs_limit(variant),
        lambda: _check_residual("bond PDE residual refinement",
                                lambda h: pde.residual_bond_pde(
                                    bond_at, (0.8, 0.45), (h, h), params)),
        lambda: _check_residual(f"warrant PDE residual refinement ({variant})",
                                lambda h: pde.residual_warrant_pde(
                                    warrant_at, (1.1, 0.8, 0.45), (h, h, h), params)),
        lambda: _check_theta_pde(quick),
        lambda: _check_mc("MC bond vs classical closed form", 6,
                          bond.bond_price(1.0, 0.0, 1.0, ModelParams(
                              alpha=1.0, hurst=0.5, mu_r=1.0, sigma_r=1.0)).price,
                          mc.mc_bond_classical(1.0, 1.0, 1.0, 1.0, mc.McConfig(
                              n_paths=20_000 if quick else 100_000, n_steps=100,
                              seed=RngSeed(seed, 101)))),
        lambda: _check_mc("MC warrant vs Black-Scholes", 5,
                          _bs_call(100.0, 100.0, 0.05, 0.2, 1.0),
                          mc.mc_warrant_classical(100.0, 0.05, _bs_market()[0], 0.2, mc.McConfig(
                              n_paths=100_000 if quick else 1_000_000, n_steps=50,
                              seed=RngSeed(seed, 202), antithetic=True))),
        lambda: _check_clock_monotone(quick, seed),
        _check_fbm_variance,
        _check_pair_correlation,
        lambda: _check_d_identity(seed),
    ]
    # numpy loads numpy.random on first use, about 20 ms; load it here so that
    # elapsed_s times the checks and not whichever stochastic one runs first
    import numpy.random  # noqa: F401
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, passed=bool(result.passed),
                               elapsed_s=time.perf_counter() - start))
    return results
