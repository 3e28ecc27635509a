"""Scalar special functions and the closed-form power-sum integral behind
the bond exponent and the total variance.

Everything downstream (bond and warrant pricing, PDE coefficients) funnels
through this module, so the accuracy targets here are deliberately tighter
than anything the pricers need: gamma is the C library's (via math.gamma,
the domain restricted to x > 0), and the power-sum integral is exact up to
rounding for every t in [0, T], near expiry included.

A float t takes only the standard library. numpy is imported inside the
array branch of _power_poly_integral alone, when t is an ndarray (the PDE's
time grid), so scalar pricing never loads it.
"""

import math

__all__ = [
    "gamma",
    "normal_cdf",
]


def gamma(x: float) -> float:
    """Gamma function for real x > 0."""
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires a finite x > 0, got {x!r}")
    return math.gamma(x)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    erfc keeps full relative accuracy in the left tail where
    0.5*(1 + erf(x/sqrt(2))) would cancel.
    """
    if math.isnan(x):
        raise ValueError("normal_cdf is undefined for nan")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# tau/T below which the series branch of _power_poly_integral runs, and its
# cap: the series is truncated after x^32, 0.25^29 < 4e-18 relative to its
# leading term even when that term is x^3
_SERIES_LIMIT = 0.25
_SERIES_TERMS = 32
# a scalar series stops once a bound on its tail falls below this fraction
# of its sum
_SERIES_TOL = 1e-17


def _series(x: float, exponent: float, c) -> float:
    """sum_m (x^m / m) sum_k c[k] g_(m-1-k) for one float x, in pure Python,
    for at most three coefficients (a quadratic, as f1 and the variance need)
    and 0 < e < 2 (e = 2 alpha H or alpha).

    g_n and the terms are built as they are needed. A term's coefficients may
    cancel to zero while later ones do not, so the sum does not stop on the
    term but on its absolute bound b_m = x^m / m sum_k |c[k] g_(m-1-k)|.
    Once m >= len(c) every g index is nonnegative (the leading coefficients
    may be exact zeros, as in (0, 0, 1)); |g_n / g_(n-1)| = |n - e| / n <= 1
    for 0 < e < 2, so with x < 1/4 all later terms together stay below
    b_m x / (1 - x) < b_m / 3. The sum stops once b_m falls below
    _SERIES_TOL of the running sum; math.fsum adds the terms without
    rounding error.
    """
    if len(c) > 3 or not 0.0 < exponent < 2.0:
        raise ValueError(f"the series takes at most 3 coefficients and 0 < e < 2, "
                         f"got {len(c)} and e={exponent!r}")
    c0, c1, c2 = (*c, 0.0, 0.0)[:3]
    g0, g1, g2 = 1.0, 0.0, 0.0  # g_(m-1), g_(m-2), g_(m-3)
    power = 1.0
    total = 0.0
    terms = []
    for m in range(1, _SERIES_TERMS + 1):
        power *= x
        a0, a1, a2 = c0 * g0, c1 * g1, c2 * g2
        term = power * (a0 + a1 + a2) / m
        terms.append(term)
        total += term
        if m >= len(c) and power * (abs(a0) + abs(a1) + abs(a2)) / m <= _SERIES_TOL * abs(total):
            break
        g0, g1, g2 = g0 * (m - exponent) / m, g0, g1
    return math.fsum(terms)


def _power_poly_integral(t, maturity: float, exponent: float, coeffs):
    """int_t^T u^(e-1) sum_k coeffs[k] (T-u)^k du for 0 <= t <= T = maturity
    and e = exponent > 0; t is a float or an ndarray, taken elementwise.

    With x = tau/T = (T - t)/T term k is coeffs[k] T^(e+k) B_x(k+1, e), an
    incomplete beta function. For x < _SERIES_LIMIT the terms are summed as
    one power series in x (the small-argument series of DiDonato & Morris
    1992, ACM TOMS 708): (1-y)^(e-1) = sum_n g_n y^n with g_n = (1-e)_n / n!,
    so the integral is T^e sum_m (x^m / m) sum_k coeffs[k] T^k g_(m-1-k).
    Elsewhere the binomial expansion of (T-u)^k in u gives power sums
    T^e sum_i w_i (1 - (t/T)^(e+i)); they cancel as x -> 0, where the series
    takes over. With t/T <= 3/4 there, 1 - (t/T)^(e+i) is accurate as it
    stands and needs no expm1.

    A float t sums the series with _series, which takes at most a quadratic
    and 0 < e < 2; an ndarray sums all _SERIES_TERMS of its terms with numpy.
    """
    c = [ck * maturity ** k for k, ck in enumerate(coeffs)]

    def power_sums(x):
        # (T-u)^k = sum_i C(k, i) T^(k-i) (-u)^i, integrated term by term
        ratio = 1.0 - x  # t / T
        total = 0.0
        for i in range(len(c)):
            w = (-1) ** i * sum(math.comb(k, i) * c[k] for k in range(i, len(c)))
            total = total + w / (exponent + i) * (1.0 - ratio ** (exponent + i))
        return total

    x = (maturity - t) / maturity
    if isinstance(x, float):
        out = _series(x, exponent, c) if x < _SERIES_LIMIT else power_sums(x)
    else:
        import numpy as np

        powers = np.arange(1, _SERIES_TERMS + 1)
        g = np.ones(_SERIES_TERMS)
        np.cumprod((powers[:-1] - exponent) / powers[:-1], out=g[1:])
        a = np.convolve(c, g)[:_SERIES_TERMS] / powers
        near = x < _SERIES_LIMIT
        out = np.empty_like(x)
        out[near] = np.power.outer(x[near], powers) @ a
        out[~near] = power_sums(x[~near])
    return maturity ** exponent * out
