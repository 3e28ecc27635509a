"""Acceptance gate: ten numbered criteria, one visible pass/fail line each.

Each criterion re-derives its target through an independent route (closed
forms, scipy, an ODE march, Monte Carlo, the PDE solver) and carries the
runtime budget it must fit in.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from subfbm import ModelParams, WarrantTerms
from subfbm.bond import bond_price, bond_price_classical, f1_general
from subfbm.cli import main as cli_main
from subfbm.mc import McConfig, mc_bond_classical, mc_warrant_classical
from subfbm.numerics import normal_cdf, rk4_solve
from subfbm.pde import default_grid, residual_bond_pde, residual_warrant_pde, solve_theta_pde
from subfbm.processes import RngSeed, _fbm, simulate_paths, stable_subordinator_path
from subfbm.warrant import warrant_price, warrant_value_forward

def _report(capsys, number, label, ok, detail, elapsed, budget):
    line = (f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {label}: "
            f"{detail}  ({elapsed:.2f}s / {budget:.0f}s budget)")
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def _bs_call(spot, strike, r, sigma, tau):
    sq = sigma * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (r + 0.5 * sigma * sigma) * tau) / sq
    return spot * normal_cdf(d1) - strike * math.exp(-r * tau) * normal_cdf(d1 - sq)


def test_criterion_01_brownian_bond_limit(capsys):
    start = time.perf_counter()
    worst_limit = 0.0
    for tau in (0.25, 0.5, 1.0, 2.0):
        for mu in (0.1, 1.0):
            for sg in (0.1, 1.0):
                want = sg ** 2 * tau ** 3 / 6.0 - mu * tau ** 2 / 2.0
                p = ModelParams(alpha=1.0 - 1e-8, hurst=0.5, mu_r=mu, sigma_r=sg)
                err = abs(f1_general(0.0, tau, p) / want - 1.0)
                worst_limit = max(worst_limit, err)
    worst_exact = 0.0
    for tau in (0.25, 0.5, 1.0, 2.0):
        want = tau ** 3 / 6.0 - tau ** 2 / 2.0
        p = ModelParams(alpha=1.0, hurst=0.5)
        err = abs(f1_general(0.0, tau, p) / want - 1.0)
        worst_exact = max(worst_exact, err)
    ok = worst_limit <= 1e-4 and worst_exact <= 1e-10
    _report(capsys, 1, "Brownian-limit bond exponent",
            ok, f"limit err {worst_limit:.2e} (tol 1e-4), "
                f"H=1/2 closed-form err {worst_exact:.2e} (tol 1e-10)",
            time.perf_counter() - start, 1.0)


def test_criterion_02_fbm_bond_limit(capsys):
    start = time.perf_counter()
    worst = 0.0
    for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
        for maturity in (0.5, 1.0, 2.0):
            h2 = 2.0 * hurst
            want = maturity ** (h2 + 2.0) / ((h2 + 1.0) * (h2 + 2.0)) - maturity ** 2 / 2.0
            p = ModelParams(alpha=1.0 - 1e-8, hurst=hurst)
            worst = max(worst, abs(f1_general(0.0, maturity, p) / want - 1.0))
    _report(capsys, 2, "fBm-limit bond exponent", worst <= 1e-4,
            f"max rel err {worst:.2e} (tol 1e-4)", time.perf_counter() - start, 1.0)


def test_criterion_03_ode_quadrature_cross_oracle(capsys):
    start = time.perf_counter()
    maturity = 1.0
    grid = np.linspace(0.0, 0.9, 1441)
    worst = 0.0
    for alpha in (0.9, 0.7):
        for hurst in (0.9, 0.7):
            p = ModelParams(alpha=alpha, hurst=hurst)
            ga = math.gamma(alpha)
            c_vol = hurst / ga ** (2.0 * hurst)
            c_drift = 1.0 / ga

            def rhs(tau, _y):
                rem = maturity - tau
                return (c_vol * rem ** (2.0 * alpha * hurst - 1.0) * tau ** 2
                        - c_drift * rem ** (alpha - 1.0) * tau)

            y = rk4_solve(rhs, 0.0, grid)
            for i in (240, 480, 720, 960, 1200, 1440):
                got = f1_general(maturity - grid[i], maturity, p)
                worst = max(worst, abs(got - y[i]))
    _report(capsys, 3, "ODE march vs closed form", worst <= 1e-6,
            f"max abs diff {worst:.2e} (tol 1e-6)", time.perf_counter() - start, 5.0)


def test_criterion_04_black_scholes_limit(capsys):
    start = time.perf_counter()
    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    params = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                         mu_r=0.0, rho=0.0)
    target = _bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
    res = warrant_price(100.0, 0.05, 0.0, terms, params)
    err = abs(res.price - target)
    lit = warrant_price(100.0, 0.05, 0.0, terms, params, variant="paper_literal")
    bond = bond_price(0.05, 0.0, 1.0, params).price
    want_gap = terms.strike * bond * normal_cdf(res.d2) * (1.0 - math.exp(-0.05))
    gap_err = abs((lit.price - res.price) - want_gap)
    ok = err <= 1e-10 and gap_err <= 1e-10
    _report(capsys, 4, "Black-Scholes limit",
            ok, f"price {res.price:.10f} vs {target:.10f}, abs err {err:.2e} "
                f"(tol 1e-10); literal strike-leg gap err {gap_err:.2e}",
            time.perf_counter() - start, 1.0)


def test_criterion_05_pde_vs_closed_form(capsys):
    start = time.perf_counter()
    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    classical = ModelParams(alpha=1.0, hurst=0.5, sigma_v=0.2, sigma_r=0.0,
                            mu_r=0.0, rho=0.0)
    fractional = replace(classical, alpha=0.9, hurst=0.7)
    errs = {}
    for tag, params, tol in (("classical", classical, 1e-3),
                             ("fractional", fractional, 5e-3)):
        grid = default_grid(terms, params, n_z=400, n_t=400)
        surf = solve_theta_pde(grid, terms, params, scheme="crank_nicolson")
        z = surf.z_grid[1:-1]
        exact = np.array([warrant_value_forward(zz, 0.0, terms, params) for zz in z])
        errs[tag] = (np.abs(surf.values[0][1:-1] - exact).max() / np.abs(exact).max(), tol)
    ok = all(err <= tol for err, tol in errs.values())
    detail = ", ".join(f"{tag} {err:.2e} (tol {tol:g})" for tag, (err, tol) in errs.items())
    _report(capsys, 5, "Crank-Nicolson solve vs closed form", ok, detail,
            time.perf_counter() - start, 30.0)


def test_criterion_06_residual_refinement(capsys):
    start = time.perf_counter()
    params = ModelParams()
    terms = WarrantTerms()
    steps = (0.08, 0.04, 0.02, 0.01)

    def warrant_res(variant, h):
        fn = lambda v, r, t: warrant_price(v, r, t, terms, params, variant).price
        return abs(residual_warrant_pde(fn, (1.1, 0.8, 0.45), (h, h, h), params))

    def bond_res(variant, h):
        fn = lambda r, t: bond_price(r, t, 1.0, params, variant=variant).price
        return abs(residual_bond_pde(fn, (0.8, 0.45), (h, h), params))

    w = [warrant_res("derivation_consistent", h) for h in steps]
    b = [bond_res("derivation_consistent", h) for h in steps]
    w_ratios = [w[i] / w[i + 1] for i in range(3)]
    b_ratios = [b[i] / b[i + 1] for i in range(3)]
    good = all(3.0 <= r <= 5.0 for r in w_ratios + b_ratios)

    w_lit = [warrant_res("paper_literal", h) for h in steps]
    b_thm = [bond_res("theorem_statement", h) for h in steps]
    plateaued = (w_lit[-1] > 1e-3 and w_lit[0] / w_lit[-1] < 2.0
                 and b_thm[-1] > 1e-3 and b_thm[0] / b_thm[-1] < 2.0)
    ok = good and plateaued
    _report(capsys, 6, "residual refinement",
            ok, "warrant ratios " + "/".join(f"{r:.2f}" for r in w_ratios)
                + ", bond " + "/".join(f"{r:.2f}" for r in b_ratios)
                + f"; literal plateau {w_lit[-1]:.1e}, theorem plateau {b_thm[-1]:.1e}",
            time.perf_counter() - start, 10.0)


def test_criterion_07_monte_carlo_agreement(capsys):
    start = time.perf_counter()
    bond_cfg = McConfig(n_paths=100_000, n_steps=100, seed=RngSeed(2024, 1))
    bond_est = mc_bond_classical(1.0, 1.0, 1.0, 1.0, bond_cfg)
    bond_target = bond_price_classical(1.0, 1.0, 1.0, 1.0)
    z_bond = abs(bond_est.mean - bond_target) / bond_est.std_error

    terms = WarrantTerms(shares_outstanding=1.0, warrants_outstanding=0.0,
                         shares_per_warrant=1.0, strike=100.0, maturity=1.0)
    w_cfg = McConfig(n_paths=1_000_000, n_steps=50, seed=RngSeed(2024, 2),
                     antithetic=True)
    w_est = mc_warrant_classical(100.0, 0.05, terms, 0.2, w_cfg)
    w_target = _bs_call(100.0, 100.0, 0.05, 0.2, 1.0)
    z_w = abs(w_est.mean - w_target) / w_est.std_error
    ok = z_bond <= 3.0 and z_w <= 3.0
    _report(capsys, 7, "Monte Carlo vs closed forms",
            ok, f"bond {bond_est.mean:.5f} vs {bond_target:.5f} (z={z_bond:.2f}), "
                f"warrant {w_est.mean:.4f} vs {w_target:.4f} (z={z_w:.2f}), 3-sigma gate",
            time.perf_counter() - start, 60.0)


def test_criterion_08_process_properties(capsys):
    start = time.perf_counter()
    tau = np.linspace(0.0, 1.0, 257)
    monotone_bad = 0
    for i in range(1000):
        u = stable_subordinator_path(0.9, tau, RngSeed(900 + i))
        if np.any(np.diff(u) <= 0.0):
            monotone_bad += 1

    p = ModelParams(alpha=1.0 - 1e-6, hurst=0.7)
    path = simulate_paths(p, 2.0, 400, RngSeed(5))
    clock_worst = 0.0
    for t in (0.5, 1.0, 2.0):
        i = int(np.searchsorted(path.t_grid, t))
        clock_worst = max(clock_worst, abs(path.t_alpha[i] / t - 1.0))

    var_worst = 0.0
    for j, hurst in enumerate((0.5, 0.7, 0.9)):
        ends = _fbm(hurst, 16, 1.0 / 16.0, RngSeed(41, j).generator(), (10_000,))[:, -1]
        var = ends.var(ddof=1)
        se = var * math.sqrt(2.0 / (ends.size - 1))
        var_worst = max(var_worst, abs(var - 1.0) / (3.0 * se))

    corr_worst = 0.0
    for j, rho in enumerate((-0.5, 0.0, 0.5)):
        # the pairs of correlated_fbm_pair: B2 = rho B1 + sqrt(1 - rho^2) B_perp
        ends = _fbm(0.7, 8, 0.125, RngSeed(42, j).generator(), (10_000, 2))[:, :, -1]
        e1 = ends[:, 0]
        e2 = rho * e1 + math.sqrt(1.0 - rho * rho) * ends[:, 1]
        corr = np.corrcoef(e1, e2)[0, 1]
        se = (1.0 - rho ** 2) / math.sqrt(e1.size)
        corr_worst = max(corr_worst, abs(corr - rho) / (3.0 * se))

    ok = (monotone_bad == 0 and clock_worst < 0.01
          and var_worst <= 1.0 and corr_worst <= 1.0)
    _report(capsys, 8, "process properties",
            ok, f"{monotone_bad}/1000 non-monotone clocks, near-identity clock "
                f"err {clock_worst:.4f} (<0.01), fBm var z/3 {var_worst:.2f}, "
                f"pair corr z/3 {corr_worst:.2f}",
            time.perf_counter() - start, 60.0)


def test_criterion_09_cli_sweep_curves(capsys, tmp_path):
    start = time.perf_counter()
    runner = CliRunner()

    sim = tmp_path / "path.csv"
    res = runner.invoke(cli_main, ["simulate", "--seed", "42", "-T", "1",
                                   "-n", "1000", "--out", str(sim)])
    assert res.exit_code == 0, res.output
    asset = [line.split(",")[2] for line in sim.read_text().splitlines()[1:]]
    run = longest = 1
    for a, b in zip(asset, asset[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)

    bond_csv = tmp_path / "bond.csv"
    res = runner.invoke(cli_main, ["price-bond", "--sweep", "--out", str(bond_csv)])
    assert res.exit_code == 0, res.output
    rows = bond_csv.read_text().splitlines()[1:]
    by_h = {}
    for line in rows:
        maturity, hurst, _alpha, price = line.split(",")
        by_h.setdefault(hurst, []).append((float(maturity), float(price)))
    finite_positive = all(0.0 < price < math.inf for curve in by_h.values()
                          for _, price in curve)
    left_limit_ok = all(abs(curve[0][1] - 1.0) < 0.02 for curve in by_h.values())

    warrant_csv = tmp_path / "warrant.csv"
    res = runner.invoke(cli_main, ["price-warrant", "--sweep", "--out", str(warrant_csv)])
    assert res.exit_code == 0, res.output
    n_warrant_rows = len(warrant_csv.read_text().splitlines()) - 1

    ok = (longest >= 5 and len(rows) == 1000 and n_warrant_rows == 1000
          and finite_positive and left_limit_ok)
    _report(capsys, 9, "CLI sweep curves",
            ok, f"flat run {longest} (>=5), bond rows {len(rows)}, warrant rows "
                f"{n_warrant_rows}, curves positive and start at par",
            time.perf_counter() - start, 10.0)


def test_criterion_10_invariant_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_gap = 0.0
    bound_bad = monotone_bad = 0
    for _ in range(1000):
        hurst = rng.uniform(0.5, 0.95)
        lo = max(0.501, 1.0 / (1.0 + hurst) + 1e-3)
        params = ModelParams(alpha=rng.uniform(lo, 1.0), hurst=hurst,
                             sigma_v=rng.uniform(0.05, 2.0),
                             sigma_r=rng.uniform(0.0, 2.0),
                             rho=rng.uniform(-1.0, 1.0),
                             mu_r=rng.uniform(-1.0, 2.0))
        terms = WarrantTerms(shares_outstanding=rng.uniform(0.5, 10.0),
                             warrants_outstanding=rng.uniform(0.0, 5.0),
                             shares_per_warrant=rng.uniform(0.2, 3.0),
                             strike=rng.uniform(0.2, 3.0),
                             maturity=rng.uniform(0.1, 2.0))
        t = rng.uniform(0.0, 0.95) * terms.maturity
        value = rng.uniform(0.05, 5.0)
        r = rng.uniform(-0.5, 2.0)
        res = warrant_price(value, r, t, terms, params)
        upper = terms.shares_per_warrant * value * terms.dilution_factor
        if not 0.0 <= res.price <= upper * (1.0 + 1e-12):
            bound_bad += 1
        if warrant_price(value * 1.3, r, t, terms, params).price < res.price - 1e-12:
            monotone_bad += 1
        if res.variance_integral > 0.0:
            worst_gap = max(worst_gap, abs(
                res.d1 - res.d2 - math.sqrt(res.variance_integral)))
    ok = bound_bad == 0 and monotone_bad == 0 and worst_gap <= 1e-12
    _report(capsys, 10, "warrant invariants over 1000 random markets",
            ok, f"{bound_bad} bound violations, {monotone_bad} monotonicity "
                f"violations, d1-d2 identity gap {worst_gap:.2e} (tol 1e-12)",
            time.perf_counter() - start, 10.0)
