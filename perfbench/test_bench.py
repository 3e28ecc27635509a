"""The benchmark's own test; run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

The oracles are checked against scipy.integrate.quad at a handful of
markets, so a slip in an oracle cannot let a wrong program pass. A short
run of every workload, untraced and traced, must print exactly the metric
names BENCHMARK.json lists, with their units, after running its checks.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate

import oracle

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

MARKETS = [
    dict(alpha=1.0, hurst=0.5, mu_r=0.03, sigma_r=0.05, sigma_v=0.2, rho=0.0),
    dict(alpha=0.9, hurst=0.7, mu_r=0.01, sigma_r=0.05, sigma_v=0.2, rho=0.3),
    dict(alpha=0.75, hurst=0.6, mu_r=-0.02, sigma_r=0.1, sigma_v=0.4, rho=-0.6),
    dict(alpha=0.55, hurst=0.85, mu_r=0.05, sigma_r=0.08, sigma_v=0.3, rho=0.5),
]
TIMES = [(0.0, 5.0), (2.0, 5.0), (0.7, 1.0), (0.0, 0.3)]


def _quad(f, a, b, **kw):
    val, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200, **kw)
    return val


def _f1_quad(t, big, m):
    """The paper's form: int_0^tau of (T-v)^(exponent-1) times v^2 or v."""
    a, h = m["alpha"], m["hurst"]
    beta, tau, g_a = 2 * a * h, big - t, math.gamma(a)
    if t == 0.0:  # the weight is singular at v = T: let quad take it exactly
        vol = _quad(lambda v: v * v, 0.0, tau, weight="alg", wvar=(0.0, beta - 1.0))
        drift = _quad(lambda v: v, 0.0, tau, weight="alg", wvar=(0.0, a - 1.0))
    else:
        vol = _quad(lambda v: (big - v) ** (beta - 1.0) * v * v, 0.0, tau)
        drift = _quad(lambda v: (big - v) ** (a - 1.0) * v, 0.0, tau)
    return h * m["sigma_r"] ** 2 / g_a ** (2 * h) * vol - m["mu_r"] / g_a * drift


def _vi_quad(t, big, m):
    a, h = m["alpha"], m["hurst"]
    beta = 2 * a * h

    def sig2(v):
        rem = big - v
        return (m["sigma_v"] ** 2 + 2 * m["rho"] * m["sigma_r"] * m["sigma_v"] * rem
                + m["sigma_r"] ** 2 * rem ** 2)

    if t == 0.0:
        q = _quad(sig2, 0.0, big, weight="alg", wvar=(beta - 1.0, 0.0))
    else:
        q = _quad(lambda v: sig2(v) * v ** (beta - 1.0), t, big)
    return 2 * h / math.gamma(a) ** (2 * h) * q


def _lognormal_call(spot, strike, vi):
    """E[(spot exp(sqrt(vi) Z - vi/2) - strike)^+] by quadrature over Z."""
    sq = math.sqrt(vi)
    z0 = (math.log(strike / spot) + 0.5 * vi) / sq

    def payoff(z):
        return (spot * math.exp(sq * z - 0.5 * vi - 0.5 * z * z)
                - strike * math.exp(-0.5 * z * z))

    return _quad(payoff, z0, math.inf) / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("m", MARKETS)
@pytest.mark.parametrize("t,big", TIMES)
def test_f1_and_variance_match_quadrature(m, t, big):
    vol, drift = oracle.f1_terms(t, big, m["alpha"], m["hurst"], m["mu_r"], m["sigma_r"])
    want = _f1_quad(t, big, m)
    assert float(vol - drift) == pytest.approx(want, rel=1e-9, abs=1e-15)
    vi = oracle.variance_integral(t, big, m["alpha"], m["hurst"], m["sigma_v"], m["sigma_r"], m["rho"])
    assert float(vi) == pytest.approx(_vi_quad(t, big, m), rel=1e-9)


@pytest.mark.parametrize("m", MARKETS)
def test_bond_and_warrant_match_quadrature(m):
    t, big, r, value = 0.5, 3.0, 0.04, 120.0
    terms = dict(shares_outstanding=2.0, warrants_outstanding=0.5, shares_per_warrant=1.5,
                 strike=70.0, maturity=big)
    p, f1, scale = oracle.bond(r, t, big, m)
    assert float(p) == pytest.approx(math.exp(-r * (big - t) + _f1_quad(t, big, m)), rel=1e-10)
    assert scale >= abs(f1)
    w, vi = oracle.warrant(value, r, t, m, terms)
    k, n, mw, x = 1.5, 2.0, 0.5, 70.0
    fwd = _lognormal_call(k * value / float(p), n * x, _vi_quad(t, big, m))
    assert float(w) == pytest.approx(float(p) * fwd / (n + mw * k), rel=1e-8)
    assert oracle.forward_value(value / float(p), float(vi), terms) == pytest.approx(
        fwd / (n + mw * k), rel=1e-8)


def test_black_scholes_and_classical_bond():
    # validate's Black-Scholes target at S = K = 100, r = 5 %, sigma = 20 %, T = 1
    assert float(oracle.black_scholes_call(100, 100, 0.05, 0.2, 1.0)) == pytest.approx(
        10.4505835722, abs=1e-10)
    for spot, strike, r, sigma, tau in ((90.0, 100.0, 0.03, 0.3, 0.5), (120.0, 80.0, 0.0, 0.15, 2.0)):
        want = math.exp(-r * tau) * _lognormal_call(spot * math.exp(r * tau), strike, sigma ** 2 * tau)
        assert float(oracle.black_scholes_call(spot, strike, r, sigma, tau)) == pytest.approx(want, rel=1e-9)
    # the classical bond is the alpha = 1, H = 1/2 case of the general exponent
    m = dict(alpha=1.0, hurst=0.5, mu_r=0.2, sigma_r=0.4)
    for tau in (0.5, 2.0):
        want = math.exp(-0.03 * tau + _f1_quad(0.0, tau, m))
        assert float(oracle.classical_bond(0.03, tau, 0.2, 0.4)) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("alpha", [0.6, 0.7, 0.9])
@pytest.mark.parametrize("n", [1, 2])
def test_clock_moments_match_laplace_quadrature(alpha, n):
    # T(t) = (t / S)^alpha with E[exp(-u S)] = exp(-u^alpha), so
    # E[T(1)^n] = E[S^(-n alpha)] = int_0^inf u^(p-1) exp(-u^alpha) du / Gamma(p), p = n alpha
    p = n * alpha
    want = _quad(lambda u: u ** (p - 1.0) * math.exp(-u ** alpha), 0.0, math.inf) / math.gamma(p)
    assert float(oracle.clock_moment(n, alpha)) == pytest.approx(want, rel=1e-9)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    checks = next(ln for ln in lines if ln.startswith("checks: "))
    assert int(checks.split()[1]) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "quotes", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
