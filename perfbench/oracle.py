"""Reference values computed apart from the program, in mpmath.

The pricing integrals are polynomials times a power, so they are expanded
exactly into sums of (T^e - t^e)/e terms and evaluated at 30 significant
digits. Nothing here shares code or quadrature with `subfbm`; the
benchmark's own test checks these formulas against scipy.integrate.quad.
"""

import math

import mpmath as mp

mp.mp.dps = 30


def _power_diff(big, small, e):
    """(big^e - small^e) / e for big >= small >= 0 and e > 0."""
    return (big ** e - small ** e) / e


def f1_terms(t, maturity, alpha, hurst, mu_r, sigma_r):
    """(vol term, drift term) of the bond exponent; f1 = vol - drift.

    vol   = H sigma_r^2 / Gamma(alpha)^(2H) * int_t^T u^(beta-1) (T-u)^2 du
    drift = mu_r / Gamma(alpha)             * int_t^T u^(alpha-1) (T-u) du
    with beta = 2 alpha H (the substitution u = T - v of the paper's form).
    """
    t, big = mp.mpf(t), mp.mpf(maturity)
    a, h = mp.mpf(alpha), mp.mpf(hurst)
    beta = 2 * a * h
    g_a = mp.gamma(a)
    vol_int = (big ** 2 * _power_diff(big, t, beta)
               - 2 * big * _power_diff(big, t, beta + 1)
               + _power_diff(big, t, beta + 2))
    drift_int = big * _power_diff(big, t, a) - _power_diff(big, t, a + 1)
    vol = h * mp.mpf(sigma_r) ** 2 / g_a ** (2 * h) * vol_int
    drift = mp.mpf(mu_r) / g_a * drift_int
    return vol, drift


def variance_integral(t, maturity, alpha, hurst, sigma_v, sigma_r, rho):
    """2H / Gamma(alpha)^(2H) * int_t^T sigma_hat^2(v) v^(beta-1) dv, with
    sigma_hat^2(v) = sigma_v^2 + 2 rho sigma_r sigma_v (T-v) + sigma_r^2 (T-v)^2
    expanded in powers of v."""
    t, big = mp.mpf(t), mp.mpf(maturity)
    a, h = mp.mpf(alpha), mp.mpf(hurst)
    sv, sr, rho = mp.mpf(sigma_v), mp.mpf(sigma_r), mp.mpf(rho)
    beta = 2 * a * h
    c0 = sv ** 2 + 2 * rho * sr * sv * big + sr ** 2 * big ** 2
    c1 = -2 * rho * sr * sv - 2 * sr ** 2 * big
    c2 = sr ** 2
    q = (c0 * _power_diff(big, t, beta)
         + c1 * _power_diff(big, t, beta + 1)
         + c2 * _power_diff(big, t, beta + 2))
    return 2 * h / mp.gamma(a) ** (2 * h) * q


def bond(r, t, maturity, m):
    """Bond price and its exponent pieces for market dict m.

    Returns (price, f1, |vol term| + |drift term|)."""
    vol, drift = f1_terms(t, maturity, m["alpha"], m["hurst"], m["mu_r"], m["sigma_r"])
    f1 = vol - drift
    tau = mp.mpf(maturity) - mp.mpf(t)
    return mp.exp(-mp.mpf(r) * tau + f1), f1, abs(vol) + abs(drift)


def warrant(value, r, t, m, terms, p=None):
    """Dilution-adjusted warrant (default variant): (price, variance integral).
    p is the bond price at (r, t, maturity) when the caller already has it.

    W = (k V Phi(d1) - N X P Phi(d2)) / (N + M k),
    d1 = (log(k V / (N X P)) + vi/2) / sqrt(vi), d2 = d1 - sqrt(vi)."""
    n, mw = mp.mpf(terms["shares_outstanding"]), mp.mpf(terms["warrants_outstanding"])
    k, x = mp.mpf(terms["shares_per_warrant"]), mp.mpf(terms["strike"])
    maturity = terms["maturity"]
    vi = variance_integral(t, maturity, m["alpha"], m["hurst"], m["sigma_v"], m["sigma_r"], m["rho"])
    if p is None:
        p = bond(r, t, maturity, m)[0]
    kv, nxp = k * mp.mpf(value), n * x * p
    sq = mp.sqrt(vi)
    d1 = (mp.log(kv / nxp) + vi / 2) / sq
    price = (kv * mp.ncdf(d1) - nxp * mp.ncdf(d1 - sq)) / (n + mw * k)
    return price, vi


def forward_value(z, vi, terms):
    """Closed-form solution of Theta_t + sigma_bar^2 z^2 Theta_zz = 0 at total
    variance vi: the Black-Scholes form in the bond-forward firm value z."""
    k, nx = terms["shares_per_warrant"], terms["shares_outstanding"] * terms["strike"]
    dil = 1.0 / (terms["shares_outstanding"] + terms["warrants_outstanding"] * k)
    sq = math.sqrt(vi)
    d1 = (math.log(k * z / nx) + 0.5 * vi) / sq
    return dil * (k * z * _ncdf(d1) - nx * _ncdf(d1 - sq))


def _ncdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes_call(spot, strike, r, sigma, tau):
    spot, strike, r, sigma, tau = (mp.mpf(v) for v in (spot, strike, r, sigma, tau))
    sq = sigma * mp.sqrt(tau)
    d1 = (mp.log(spot / strike) + (r + sigma ** 2 / 2) * tau) / sq
    return spot * mp.ncdf(d1) - strike * mp.exp(-r * tau) * mp.ncdf(d1 - sq)


def classical_bond(r, tau, mu_r, sigma_r):
    """alpha = 1, H = 1/2: exp(-r tau + sigma^2 tau^3 / 6 - mu tau^2 / 2)."""
    r, tau, mu_r, sigma_r = (mp.mpf(v) for v in (r, tau, mu_r, sigma_r))
    return mp.exp(-r * tau + sigma_r ** 2 * tau ** 3 / 6 - mu_r * tau ** 2 / 2)


def clock_moment(n, alpha):
    """E[T(t)^n] / t^(n alpha) = n! / Gamma(1 + n alpha) for the inverse
    alpha-stable clock (Mittag-Leffler law; Magdziarz 2009)."""
    return mp.factorial(n) / mp.gamma(1 + n * mp.mpf(alpha))
