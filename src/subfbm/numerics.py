"""Scalar special functions and the closed-form power-sum integral behind
the bond exponent and the total variance.

Everything downstream (bond and warrant pricing, PDE coefficients) funnels
through this module, so the accuracy targets here are deliberately tighter
than anything the pricers need: gamma is the C library's (via math.gamma,
the domain restricted to x > 0), and the power-sum integral is exact up to
rounding for every t in [0, T], near expiry included.
"""

import math

import numpy as np

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
# length: the series is truncated after x^32, 0.25^29 < 4e-18 relative to
# its leading term even when that term is x^3
_SERIES_LIMIT = 0.25
_SERIES_TERMS = 32
_SERIES_POWERS = np.arange(1, _SERIES_TERMS + 1)


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
    """
    c = [ck * maturity ** k for k, ck in enumerate(coeffs)]

    def series(x):
        g = np.ones(_SERIES_TERMS)
        np.cumprod((_SERIES_POWERS[:-1] - exponent) / _SERIES_POWERS[:-1], out=g[1:])
        a = np.convolve(c, g)[:_SERIES_TERMS] / _SERIES_POWERS
        return np.power.outer(x, _SERIES_POWERS) @ a

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
        out = series(x) if x < _SERIES_LIMIT else power_sums(x)
    else:
        near = x < _SERIES_LIMIT
        out = np.empty_like(x)
        out[near] = series(x[near])
        out[~near] = power_sums(x[~near])
    return maturity ** exponent * out
