"""Dilution-adjusted equity warrants in closed form.

A warrant holder receives k shares against the strike X; exercise enlarges
the share count from N to N + Mk, so every payoff carries the dilution
factor 1/(N + Mk). The firm value V is geometric fBm on the inverse-stable
clock and the strike leg is carried at the zero-coupon bond price.

Two discounting variants exist. `derivation_consistent` (default) prices

    W = (k V phi(d1) - N X P(r,t,T) phi(d2)) / (N + M k),

which reduces to Black-Scholes in the classical limit and solves the
pricing PDE. `paper_literal` multiplies the strike leg by an additional
exp(-r (T - t)); it double-discounts (P already discounts) and is kept so
the validation suite can demonstrate the inconsistency.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bond import bond_price
from .numerics import gamma, normal_cdf
from .processes import ModelParams

__all__ = [
    "WARRANT_VARIANTS",
    "WarrantTerms",
    "PriceResult",
    "dilution_payoff",
    "variance_integral",
    "warrant_price",
    "warrant_value_forward",
]

WARRANT_VARIANTS = ("derivation_consistent", "paper_literal")


@dataclass(frozen=True)
class WarrantTerms:
    """Contract terms: N shares outstanding, M warrants each for k shares
    at strike X, expiring at `maturity`."""

    shares_outstanding: float = 1.0
    warrants_outstanding: float = 1.0
    shares_per_warrant: float = 1.0
    strike: float = 1.0
    maturity: float = 1.0

    def __post_init__(self):
        vals = (self.shares_outstanding, self.warrants_outstanding,
                self.shares_per_warrant, self.strike, self.maturity)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("warrant terms must be finite")
        if self.shares_outstanding <= 0.0:
            raise ValueError("shares_outstanding must be positive")
        if self.warrants_outstanding < 0.0:
            raise ValueError("warrants_outstanding must be nonnegative")
        if self.shares_per_warrant <= 0.0:
            raise ValueError("shares_per_warrant must be positive")
        if self.strike <= 0.0:
            raise ValueError("strike must be positive")
        if self.maturity < 0.0:
            raise ValueError("maturity must be nonnegative")

    @property
    def dilution_factor(self) -> float:
        return 1.0 / (self.shares_outstanding
                      + self.warrants_outstanding * self.shares_per_warrant)


@dataclass(frozen=True)
class PriceResult:
    price: float
    d1: float
    d2: float
    variance_integral: float
    variant: str


def dilution_payoff(value, terms: WarrantTerms):
    """(k V - N X)^+ / (N + M k); accepts scalar or ndarray V >= 0."""
    v = np.asarray(value, dtype=float)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("firm value must be finite and nonnegative")
    intrinsic = np.maximum(
        terms.shares_per_warrant * v - terms.shares_outstanding * terms.strike, 0.0
    )
    out = terms.dilution_factor * intrinsic
    return float(out) if np.isscalar(value) else out


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


def variance_integral(t, maturity: float, params: ModelParams):
    """Total variance 2H/Gamma(alpha)^(2H) * int_t^T sigma_hat^2(v) v^(2 alpha H - 1) dv
    with sigma_hat^2(v) = sigma_v^2 + 2 rho sigma_r sigma_v (T-v) + sigma_r^2 (T-v)^2,
    in closed form; vectorised in t, every t in [0, maturity).
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = lo = hi = float(t)  # a scalar stays a Python float throughout
    else:
        lo, hi = t.min(), t.max()
    # false for nan as well as out of range
    if not (math.isfinite(maturity) and 0.0 <= lo and hi < maturity):
        raise ValueError(f"need finite 0 <= t < maturity, got t={t!r} maturity={maturity!r}")
    p = params
    coeffs = (p.sigma_v ** 2, 2.0 * p.rho * p.sigma_r * p.sigma_v, p.sigma_r ** 2)
    q = _power_poly_integral(t, maturity, 2.0 * p.alpha * p.hurst, coeffs)
    vi = 2.0 * p.hurst / gamma(p.alpha) ** (2.0 * p.hurst) * q
    return vi if isinstance(t, np.ndarray) else float(vi)


def _d_pair(log_moneyness: float, vi: float):
    sq = math.sqrt(vi)
    d1 = (log_moneyness + 0.5 * vi) / sq
    return d1, d1 - sq


def _degenerate_price(value, p, discount, terms, variant):
    """vi -> 0+ limit: a deterministic in/out-of-the-money decision."""
    kv = terms.shares_per_warrant * value
    nxp = terms.shares_outstanding * terms.strike * p
    if kv > nxp:
        return terms.dilution_factor * (kv - terms.shares_outstanding * terms.strike * discount * p)
    return 0.0


def warrant_price(
    value: float,
    r: float,
    t: float,
    terms: WarrantTerms,
    params: ModelParams,
    spec=None,
    variant: str = "derivation_consistent",
) -> PriceResult:
    """Closed-form warrant value at firm value `value` and short rate r.

    spec is the quadrature tolerance handed to bond_price for f1.
    """
    if variant not in WARRANT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {WARRANT_VARIANTS}")
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"firm value must be positive, got {value!r}")
    if not np.isfinite(r):
        raise ValueError(f"rate must be finite, got {r!r}")
    if not np.isfinite(t) or t < 0.0 or t > terms.maturity:
        raise ValueError(f"need 0 <= t <= maturity, got t={t!r}")

    if t == terms.maturity:
        payoff = dilution_payoff(value, terms)
        d = math.inf if payoff > 0.0 else -math.inf
        return PriceResult(price=payoff, d1=d, d2=d,
                           variance_integral=0.0, variant=variant)

    vi = variance_integral(t, terms.maturity, params)
    p = bond_price(r, t, terms.maturity, params, spec).price
    discount = math.exp(-r * (terms.maturity - t)) if variant == "paper_literal" else 1.0

    if vi == 0.0:
        price = _degenerate_price(value, p, discount, terms, variant)
        d = math.inf if price > 0.0 else -math.inf
        return PriceResult(price=price, d1=d, d2=d,
                           variance_integral=0.0, variant=variant)

    log_m = (
        math.log(terms.shares_per_warrant * value
                 / (terms.shares_outstanding * terms.strike))
        - math.log(p)
    )
    d1, d2 = _d_pair(log_m, vi)
    price = terms.dilution_factor * (
        terms.shares_per_warrant * value * normal_cdf(d1)
        - terms.shares_outstanding * terms.strike * discount * p * normal_cdf(d2)
    )
    if variant == "derivation_consistent":
        # a call on the bond-forward value is nonnegative, but far out of the
        # money the two legs can round to a difference just below zero
        price = max(price, 0.0)
    return PriceResult(price=price, d1=d1, d2=d2,
                       variance_integral=vi, variant=variant)


def warrant_value_forward(
    z: float,
    t: float,
    terms: WarrantTerms,
    params: ModelParams,
) -> float:
    """Warrant value per unit of zero-coupon bond as a function of the
    bond-forward firm value z = V / P(r, t, T).

    This is the closed-form solution of the transformed terminal-value
    problem Theta_t + sigma_bar^2(t) z^2 Theta_zz = 0,
    Theta(z, T) = (k z - N X)^+ / (N + M k); the pde module checks its
    finite-difference solver against it. Multiplying by P recovers the
    default-variant warrant_price.
    """
    if not (np.isfinite(z) and z > 0.0):
        raise ValueError(f"forward value must be positive, got {z!r}")
    if t == terms.maturity:
        return dilution_payoff(z, terms)
    vi = variance_integral(t, terms.maturity, params)
    kz = terms.shares_per_warrant * z
    nx = terms.shares_outstanding * terms.strike
    if vi == 0.0:
        return terms.dilution_factor * max(kz - nx, 0.0)
    d1, d2 = _d_pair(math.log(kz / nx), vi)
    return terms.dilution_factor * (kz * normal_cdf(d1) - nx * normal_cdf(d2))
