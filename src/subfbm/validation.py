"""Cross-oracle consistency checks behind the `validate` CLI command.

Every check pits one implementation route against an independent one:
the bond exponent's closed form against its limits and an ODE march,
closed forms against the finite-difference residual and the theta solver,
Monte Carlo against the classical limits, sampled processes against their
distributional invariants. A formula variant can be injected to demonstrate that the
suite actually detects the inconsistent published variants.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import bond, mc, pde, warrant
from .numerics import gamma, normal_cdf
from .params import ModelParams
from .processes import RngSeed, _fbm, _subordinator

__all__ = ["CheckResult", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: str
    observed: str
    tolerance: str
    passed: bool
    elapsed_s: float = 0.0  # wall time of the check, set by run_checks


def _near_one_alpha() -> ModelParams:
    return ModelParams(alpha=1.0 - 1e-8, hurst=0.5)


def _check_bond_classical_limit() -> CheckResult:
    worst = 0.0
    for tau in (0.25, 0.5, 1.0, 2.0):
        for mu in (0.1, 1.0):
            for sg in (0.1, 1.0):
                p = ModelParams(alpha=1.0 - 1e-8, hurst=0.5, mu_r=mu, sigma_r=sg)
                got = bond.f1_general(0.0, tau, p)
                want = sg ** 2 * tau ** 3 / 6.0 - mu * tau ** 2 / 2.0
                worst = max(worst, abs(got - want) / abs(want))
    return CheckResult("bond f1, Brownian limit", "cubic closed form",
                       f"max rel err {worst:.2e}", "1e-4 rel", worst <= 1e-4)


def _check_bond_fbm_limit() -> CheckResult:
    worst = 0.0
    for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
        for maturity in (0.5, 1.0, 2.0):
            p = ModelParams(alpha=1.0 - 1e-8, hurst=hurst)
            got = bond.f1_general(0.0, maturity, p)
            h2 = 2.0 * hurst
            want = maturity ** (h2 + 2.0) / ((h2 + 1.0) * (h2 + 2.0)) - maturity ** 2 / 2.0
            worst = max(worst, abs(got - want) / abs(want))
    return CheckResult("bond f1, fBm limit", "power-law closed form",
                       f"max rel err {worst:.2e}", "1e-4 rel", worst <= 1e-4)


def _rk4_solve(rhs, y0: float, grid) -> np.ndarray:
    """Classical fourth-order Runge-Kutta for a scalar ODE y' = rhs(t, y).

    Returns y evaluated at every node of `grid` (strictly increasing,
    grid[0] is the initial time). One RK4 step per grid interval; callers
    control accuracy through the grid.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("grid must contain at least two nodes")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    y = np.empty_like(t)
    y[0] = y0
    for i in range(t.size - 1):
        h = t[i + 1] - t[i]
        ti, yi = t[i], y[i]
        k1 = rhs(ti, yi)
        k2 = rhs(ti + 0.5 * h, yi + 0.5 * h * k1)
        k3 = rhs(ti + 0.5 * h, yi + 0.5 * h * k2)
        k4 = rhs(ti + h, yi + h * k3)
        y[i + 1] = yi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y[i + 1]):
            raise ValueError(f"rk4 produced a non-finite value at t={t[i + 1]!r}")
    return y


def _check_bond_ode_cross(quick: bool) -> CheckResult:
    maturity = 1.0
    n = 721 if quick else 1441
    grid = np.linspace(0.0, 0.9, n)
    worst = 0.0
    for a in (0.9, 0.7):
        for hurst in (0.9, 0.7):
            p = ModelParams(alpha=a, hurst=hurst)
            ga = gamma(a)
            c_vol = p.sigma_r ** 2 * hurst / ga ** (2.0 * hurst)
            c_drift = p.mu_r / ga

            def rhs(tau, _y):
                rem = maturity - tau
                return (c_vol * rem ** (2.0 * a * hurst - 1.0) * tau ** 2
                        - c_drift * rem ** (a - 1.0) * tau)

            y = _rk4_solve(rhs, 0.0, grid)
            for i in range(n // 6, n, n // 6):
                got = bond.f1_general(maturity - grid[i], maturity, p)
                worst = max(worst, abs(got - y[i]))
    return CheckResult("bond f1, ODE march vs closed form", "RK4 of the exponent ODE",
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


def _residual_ratios(res_fn, steps):
    vals = [abs(res_fn(h)) for h in steps]
    return vals, [vals[i] / vals[i + 1] if vals[i + 1] != 0.0 else math.inf
                  for i in range(len(vals) - 1)]


def _check_warrant_residual(variant: str) -> CheckResult:
    params = ModelParams()
    terms = warrant.WarrantTerms()

    def price_fn(v, r, t):
        return warrant.warrant_price(v, r, t, terms, params, variant).price

    def at(h):
        return pde.residual_warrant_pde(price_fn, (1.1, 0.8, 0.45), (h, h, h), params)

    vals, ratios = _residual_ratios(at, (0.08, 0.04, 0.02, 0.01))
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    return CheckResult(f"warrant PDE residual refinement ({variant})",
                       "ratio in [3, 5] per halving",
                       "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
                       "3 halvings", ok)


def _check_bond_residual() -> CheckResult:
    params = ModelParams()

    def price_fn(r, t):
        return bond.bond_price(r, t, 1.0, params).price

    def at(h):
        return pde.residual_bond_pde(price_fn, (0.8, 0.45), (h, h), params)

    vals, ratios = _residual_ratios(at, (0.08, 0.04, 0.02, 0.01))
    ok = all(3.0 <= r <= 5.0 for r in ratios)
    return CheckResult("bond PDE residual refinement", "ratio in [3, 5] per halving",
                       "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
                       "3 halvings", ok)


def _check_theta_pde(quick: bool) -> CheckResult:
    terms, params_c = _bs_market()
    params_f = replace(params_c, alpha=0.9, hurst=0.7)
    n = 100 if quick else 400
    worst = 0.0
    for params, tol in ((params_c, 1e-3), (params_f, 5e-3)):
        grid = pde.default_grid(terms, params, n_z=n, n_t=n)
        surf = pde.solve_theta_pde(grid, terms, params)
        z = surf.z_grid[1:-1]
        exact = np.array([warrant.warrant_value_forward(zz, 0.0, terms, params) for zz in z])
        err = np.abs(surf.values[0][1:-1] - exact).max() / np.abs(exact).max()
        worst = max(worst, err / tol)
    return CheckResult("theta PDE vs closed form", "scale-normalized sup error",
                       f"worst err/tol {worst:.3f}", "1e-3 classical, 5e-3 fractional",
                       worst <= 1.0)


def _check_mc_bond(quick: bool, seed: int) -> CheckResult:
    n = 20_000 if quick else 100_000
    cfg = mc.McConfig(n_paths=n, n_steps=100, seed=RngSeed(seed, 101))
    est = mc.mc_bond_classical(1.0, 1.0, 1.0, 1.0, cfg)
    target = bond.bond_price_classical(1.0, 1.0, 1.0, 1.0)
    z = abs(est.mean - target) / est.std_error
    return CheckResult("MC bond vs classical closed form", f"{target:.6f}",
                       f"{est.mean:.6f} +- {est.std_error:.1e} (z={z:.2f})",
                       "3 sigma", z <= 3.0)


def _check_mc_warrant(quick: bool, seed: int) -> CheckResult:
    terms, _ = _bs_market()
    n = 100_000 if quick else 1_000_000
    cfg = mc.McConfig(n_paths=n, n_steps=50, seed=RngSeed(seed, 202), antithetic=True)
    est = mc.mc_warrant_classical(100.0, 0.05, terms, 0.2, cfg)
    target = _bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
    z = abs(est.mean - target) / est.std_error
    return CheckResult("MC warrant vs Black-Scholes", f"{target:.5f}",
                       f"{est.mean:.5f} +- {est.std_error:.1e} (z={z:.2f})",
                       "3 sigma", z <= 3.0)


def _check_clock_monotone(quick: bool, seed: int) -> CheckResult:
    # at least 1024 stable increments per path: 25 600 quick, 256 000 full
    n_paths = 25 if quick else 250
    bad = 0
    for i in range(n_paths):
        u, _ = _subordinator(0.9, 1.0, 32, RngSeed(seed, 300 + i).generator())
        if np.any(np.diff(u) <= 0.0) or not u[-1] > 1.0:
            bad += 1
    return CheckResult("subordinator strictly increasing", "0 violations",
                       f"{bad} of {n_paths} paths", "exact", bad == 0)


def _check_fbm_variance(quick: bool, seed: int) -> CheckResult:
    n_paths = 2000 if quick else 10_000
    worst = 0.0
    for j, hurst in enumerate((0.5, 0.7, 0.9)):
        gen = RngSeed(seed, 400 + j).generator()
        ends = _fbm(hurst, 16, 1.0 / 16.0, gen, (n_paths,))[:, -1]
        var = ends.var(ddof=1)
        se = var * math.sqrt(2.0 / (n_paths - 1))
        worst = max(worst, abs(var - 1.0) / (3.0 * se))
    return CheckResult("fBm endpoint variance", "1.0",
                       f"worst |var-1|/3se {worst:.3f}", "3 sigma", worst <= 1.0)


def _check_pair_correlation(quick: bool, seed: int) -> CheckResult:
    n_paths = 2000 if quick else 10_000
    worst = 0.0
    for j, rho in enumerate((-0.5, 0.0, 0.5)):
        gen = RngSeed(seed, 500 + j).generator()
        # B2 = rho B1 + sqrt(1 - rho^2) B_perp, as simulate_paths pairs them
        e1, e_perp = _fbm(0.7, 8, 0.125, gen, (n_paths, 2))[:, :, -1].T
        e2 = rho * e1 + math.sqrt(1.0 - rho * rho) * e_perp
        corr = float(np.corrcoef(e1, e2)[0, 1])
        se = (1.0 - rho ** 2) / math.sqrt(n_paths)
        worst = max(worst, abs(corr - rho) / (3.0 * se))
    return CheckResult("fBm pair endpoint correlation", "rho in {-0.5, 0, 0.5}",
                       f"worst |corr-rho|/3se {worst:.3f}", "3 sigma", worst <= 1.0)


def _check_d_identity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    bound_bad = 0
    n = 300
    for _ in range(n):
        hurst = rng.uniform(0.5, 0.95)
        alpha = rng.uniform(max(0.501, 1.0 / (1.0 + hurst) + 1e-3), 1.0)
        params = ModelParams(alpha=alpha, hurst=hurst,
                             sigma_v=rng.uniform(0.05, 2.0), sigma_r=rng.uniform(0.0, 2.0),
                             rho=rng.uniform(-1.0, 1.0), mu_r=rng.uniform(-1.0, 2.0))
        terms = warrant.WarrantTerms(
            shares_outstanding=rng.uniform(0.5, 10.0),
            warrants_outstanding=rng.uniform(0.0, 5.0),
            shares_per_warrant=rng.uniform(0.2, 3.0),
            strike=rng.uniform(0.2, 3.0),
            maturity=rng.uniform(0.1, 2.0),
        )
        t = rng.uniform(0.0, 0.95 * terms.maturity)
        v = rng.uniform(0.05, 5.0)
        r = rng.uniform(-0.5, 2.0)
        res = warrant.warrant_price(v, r, t, terms, params)
        ub = terms.shares_per_warrant * v * terms.dilution_factor
        if not 0.0 <= res.price <= ub * (1.0 + 1e-12):
            bound_bad += 1
        if res.variance_integral > 0.0:
            worst = max(worst, abs(res.d1 - res.d2 - math.sqrt(res.variance_integral)))
    ok = worst <= 1e-12 and bound_bad == 0
    return CheckResult("d1 - d2 identity and price bounds", "sqrt(variance integral); [0, kV/(N+Mk)]",
                       f"worst gap {worst:.2e}, {bound_bad} bound violations", "1e-12; exact", ok)


def run_checks(quick: bool = False, variant: str = "derivation_consistent", seed: int = 0):
    """Run the suite; `variant` is injected into the warrant-formula checks."""
    if variant not in warrant.WARRANT_VARIANTS:
        raise ValueError(
            f"unknown variant {variant!r}, expected one of {warrant.WARRANT_VARIANTS}"
        )
    checks = [
        _check_bond_classical_limit,
        _check_bond_fbm_limit,
        lambda: _check_bond_ode_cross(quick),
        lambda: _check_bs_limit(variant),
        _check_bond_residual,
        lambda: _check_warrant_residual(variant),
        lambda: _check_theta_pde(quick),
        lambda: _check_mc_bond(quick, seed),
        lambda: _check_mc_warrant(quick, seed),
        lambda: _check_clock_monotone(quick, seed),
        lambda: _check_fbm_variance(quick, seed),
        lambda: _check_pair_correlation(quick, seed),
        lambda: _check_d_identity(seed),
    ]
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        results.append(replace(result, passed=bool(result.passed),
                               elapsed_s=time.perf_counter() - start))
    return results
