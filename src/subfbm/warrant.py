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

Both variants share one kernel, the call on the bond-forward value z = V/P;
at total variance 0 (expiry, or a vol-free market) it takes the limit
vi -> 0+: intrinsic value, d1 = d2 = +-inf. Divided by P, the default
variant is Theta(z, t), the solution of the transformed terminal-value
problem that the pde module solves by finite differences.

warrant_price keeps the valuation-time terms vi and f1 of its last call in a
one-entry memo keyed on the ModelParams object (by identity), t and the
maturity, so the points of a finite-difference stencil or a Greek that share
the centre's t reuse them; bond_price does not use it, as a quote book prices
each bond once.

Scalar pricing uses only `math`. numpy is imported inside the two array
paths, dilution_payoff and variance_integral over an array of t, so a
program that only quotes prices never loads it.
"""

import math
from dataclasses import dataclass

from . import _EXPORTS
from .bond import _bond, f1_general
from .numerics import _power_poly_integral, gamma, normal_cdf
from .params import ModelParams

__all__ = list(_EXPORTS["warrant"])

WARRANT_VARIANTS = ("derivation_consistent", "paper_literal")

# (params, t, maturity, vi, f1) of the last warrant_price call before expiry;
# replaced as one tuple, and only once both terms are computed
_memo = None


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
        if not all(math.isfinite(v) for v in vals):
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
    import numpy as np

    v = np.asarray(value, dtype=float)
    if np.any(v < 0.0) or not np.all(np.isfinite(v)):
        raise ValueError("firm value must be finite and nonnegative")
    try:
        with np.errstate(over="raise"):
            intrinsic = np.maximum(
                terms.shares_per_warrant * v - terms.shares_outstanding * terms.strike, 0.0
            )
            out = terms.dilution_factor * intrinsic
    except FloatingPointError as exc:
        raise ValueError(f"the dilution payoff overflows at firm value {float(v.max())!r} "
                         f"with {terms!r}: the inputs are out of float range") from exc
    return float(out) if np.isscalar(value) else out


def variance_integral(t, maturity: float, params: ModelParams):
    """Total variance 2H/Gamma(alpha)^(2H) * int_t^T sigma_hat^2(v) v^(2 alpha H - 1) dv
    with sigma_hat^2(v) = sigma_v^2 + 2 rho sigma_r sigma_v (T-v) + sigma_r^2 (T-v)^2,
    in closed form; vectorised in t, every t in [0, maturity). A scalar t
    (np.float64 included) gives a Python float without touching numpy.
    """
    if isinstance(t, (int, float)) or getattr(t, "ndim", 1) == 0:
        t = lo = hi = float(t)  # a scalar stays a Python float throughout
    else:
        import numpy as np

        t = np.asarray(t, dtype=float)
        lo, hi = t.min(), t.max()
    # false for nan as well as out of range
    if not (math.isfinite(maturity) and 0.0 <= lo and hi < maturity):
        raise ValueError(f"need finite 0 <= t < maturity, got t={t!r} maturity={maturity!r}")
    p = params
    try:
        coeffs = (p.sigma_v ** 2, 2.0 * p.rho * p.sigma_r * p.sigma_v, p.sigma_r ** 2)
        q = _power_poly_integral(t, maturity, 2.0 * p.alpha * p.hurst, coeffs)
    except OverflowError as exc:  # float ** past the largest float
        raise ValueError(f"the variance integral overflows at maturity={maturity!r}: "
                         f"the inputs are out of float range ({exc.args[-1]})") from exc
    vi = 2.0 * p.hurst / gamma(p.alpha) ** (2.0 * p.hurst) * q
    return float(vi) if isinstance(t, float) else vi


def _forward_call(kz, nx, discount, vi):
    """(k z N(d1) - s N X N(d2), d1, d2) at total variance vi, with s the
    extra strike-leg discount; at vi = 0, d = +-inf by the sign of log(kz/NX)."""
    if vi == 0.0:
        if kz > nx:
            return kz - discount * nx, math.inf, math.inf
        return 0.0, -math.inf, -math.inf
    sq = math.sqrt(vi)
    try:
        d1 = (math.log(kz / nx) + 0.5 * vi) / sq
    except ValueError:  # kz / nx rounds to 0; the callers report the nan
        return math.nan, math.nan, math.nan
    d2 = d1 - sq
    return kz * normal_cdf(d1) - discount * nx * normal_cdf(d2), d1, d2


def warrant_price(
    value: float,
    r: float,
    t: float,
    terms: WarrantTerms,
    params: ModelParams,
    variant: str = "derivation_consistent",
) -> PriceResult:
    """Closed-form warrant value at firm value `value` and short rate r."""
    if variant not in WARRANT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {WARRANT_VARIANTS}")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"firm value must be positive, got {value!r}")
    if not math.isfinite(r):
        raise ValueError(f"rate must be finite, got {r!r}")
    if not math.isfinite(t) or t < 0.0 or t > terms.maturity:
        raise ValueError(f"need 0 <= t <= maturity, got t={t!r}")

    global _memo
    if t == terms.maturity:
        vi, p, discount = 0.0, 1.0, 1.0
    else:
        entry = _memo
        if entry is not None and entry[0] is params and entry[1] == t \
                and entry[2] == terms.maturity:
            vi, f1 = entry[3], entry[4]
        else:
            vi = variance_integral(t, terms.maturity, params)
            f1 = f1_general(t, terms.maturity, params)
            _memo = (params, t, terms.maturity, vi, f1)
        p = _bond(r, t, terms.maturity, f1).price
        if p == 0.0:
            raise ValueError(f"bond price underflows to 0 at r={r!r}, t={t!r}, "
                             f"maturity={terms.maturity!r}: the bond-forward firm value "
                             f"V/P is undefined")
        try:
            discount = math.exp(-r * (terms.maturity - t)) if variant == "paper_literal" else 1.0
        except OverflowError as exc:
            raise ValueError(f"the paper-literal strike discount exp(-r (T - t)) overflows "
                             f"at r={r!r}, t={t!r}, maturity={terms.maturity!r}") from exc
    call, d1, d2 = _forward_call(terms.shares_per_warrant * value / p,
                                 terms.shares_outstanding * terms.strike, discount, vi)
    price = terms.dilution_factor * p * call
    if not math.isfinite(price):  # or nan from a moneyness k V / (P N X) out of float range
        raise ValueError(f"the warrant price is not finite at value={value!r}, r={r!r}, "
                         f"t={t!r} with {terms!r}: the inputs are out of float range")
    if variant == "derivation_consistent":
        # a call on the bond-forward value is nonnegative, but far out of the
        # money the two legs can round to a difference just below zero
        price = max(price, 0.0)
    return PriceResult(price=price, d1=d1, d2=d2,
                       variance_integral=vi, variant=variant)

