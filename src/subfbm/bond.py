"""Zero-coupon bond P(r, t, T) = exp(-r (T - t) + f1) under the fractional
arithmetic short rate run on the inverse-stable clock.

The correction term f1 aggregates the rate's drift and fractional variance
over the remaining life:

    f1(t, T) = H sigma_r^2 / Gamma(alpha)^(2H) * int_0^tau (T-v)^(2 alpha H - 1) v^2 dv
             - mu_r / Gamma(alpha)            * int_0^tau (T-v)^(alpha - 1)    v   dv

with tau = T - t. Substituting u = T - v turns both into incomplete beta
functions, int_t^T u^(beta-1) (T-u)^2 du with beta = 2 alpha H and
int_t^T u^(alpha-1) (T-u) du, which numerics._power_poly_integral
evaluates in closed form for every t in [0, T), near expiry included.
At alpha = 1, H = 1/2 the price is the classical
exp(-r tau + sigma_r^2 tau^3/6 - mu_r tau^2/2), the target of the Monte
Carlo bond check. For H > 1/2, 2 f1 is not the variance of int r over
simulate_paths: f1 prices a Gaussian Markov rate with the same marginal
variance, and at alpha = sigma_r = T = 1 the simulated rate's variance is
0.292 against 2 f1 = 0.245 at H = 0.7 (the README tabulates the gap).
At alpha < 1 the price is exp(E[Q] / 2), where the simulator's bond is
E[exp(Q / 2)], with Q the variance of int r given one clock path, so even at
H = 1/2 the simulator's bond lies above it (Jensen): 1.2813 against 1.2710
at alpha = 0.7, sigma_r = T = 1 and mu_r = r0 = 0.
"""

import math
import sys
from dataclasses import dataclass

from . import _EXPORTS
from .numerics import _power_poly_integral, gamma
from .params import ModelParams

__all__ = list(_EXPORTS["bond"])

# theorem_statement scales the drift term by 2H Gamma(alpha)^(1-2H); it does
# not reproduce the alpha -> 1 limit and exists for diagnostics only.
F1_VARIANTS = ("derivation_consistent", "theorem_statement")

# the largest x with a finite exp(x)
_MAX_EXPONENT = math.log(sys.float_info.max)


@dataclass(frozen=True)
class BondQuote:
    """Price plus the exponent pieces, price = exp(-r * f2 + f1)."""

    price: float
    f1: float
    f2: float
    t: float
    maturity: float


def _check_times(t: float, maturity: float):
    if not (math.isfinite(t) and math.isfinite(maturity)):
        raise ValueError("t and maturity must be finite")
    if t < 0.0 or maturity < t:
        raise ValueError(f"need 0 <= t <= maturity, got t={t!r} maturity={maturity!r}")


def f1_general(
    t: float,
    maturity: float,
    params: ModelParams,
    variant: str = "derivation_consistent",
) -> float:
    """Exponent correction f1 over [t, maturity]; requires t < maturity."""
    _check_times(t, maturity)
    if t == maturity:
        raise ValueError("f1_general needs t < maturity; the bond is worth 1 at expiry")
    if variant not in F1_VARIANTS:
        raise ValueError(f"unknown f1 variant {variant!r}, expected one of {F1_VARIANTS}")
    g_alpha = gamma(params.alpha)
    out = 0.0
    try:
        if params.sigma_r != 0.0:
            beta = 2.0 * params.alpha * params.hurst
            vol_integral = _power_poly_integral(t, maturity, beta, (0.0, 0.0, 1.0))
            out += params.hurst * params.sigma_r ** 2 / g_alpha ** (2.0 * params.hurst) * vol_integral
        if params.mu_r != 0.0:
            drift_integral = _power_poly_integral(t, maturity, params.alpha, (0.0, 1.0))
            if variant == "theorem_statement":
                coef = 2.0 * params.hurst * params.mu_r / g_alpha ** (2.0 * params.hurst)
            else:
                coef = params.mu_r / g_alpha
            out -= coef * drift_integral
    except OverflowError as exc:  # float ** past the largest float
        raise ValueError(f"f1 overflows at t={t!r}, maturity={maturity!r}: "
                         f"the inputs are out of float range ({exc.args[-1]})") from exc
    return float(out)


def bond_price(
    r: float,
    t: float,
    maturity: float,
    params: ModelParams,
    variant: str = "derivation_consistent",
) -> BondQuote:
    """Quote the zero-coupon bond; collapses to price 1 at t = maturity."""
    _check_times(t, maturity)
    if not math.isfinite(r):
        raise ValueError(f"rate must be finite, got {r!r}")
    if t == maturity:
        return BondQuote(price=1.0, f1=0.0, f2=0.0, t=t, maturity=maturity)
    f1 = f1_general(t, maturity, params, variant)
    return BondQuote(price=_bond(r, t, maturity, f1), f1=f1, f2=maturity - t, t=t,
                     maturity=maturity)


def _bond(r: float, t: float, maturity: float, f1: float) -> float:
    """The price exp(-r (T - t) + f1) for t < maturity and a given f1; the
    tail of bond_price, shared with warrant_price, which has f1 at hand and
    needs the price alone, so no quote is built there."""
    exponent = -r * (maturity - t) + f1
    if not exponent <= _MAX_EXPONENT:
        raise ValueError(f"bond price overflows: exponent -r (T - t) + f1 = {exponent!r} "
                         f"at r={r!r}, t={t!r}, maturity={maturity!r}")
    return math.exp(exponent)

