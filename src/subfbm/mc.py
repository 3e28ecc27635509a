"""Classical-regime Monte Carlo oracles.

These estimators exist to cross-check the closed forms where they are an
expectation over the simulated market: alpha = 1 and H = 1/2, i.e.
Brownian driving noise. For H > 1/2 they are not, even at alpha = 1: the
bond's f1 prices a Gaussian Markov rate with the fBm rate's marginal
variance, and over simulate_paths' pathwise rate (alpha = sigma_r = T = 1)
Var int r is 0.292 against 2 f1 = 0.245 at H = 0.7 and 0.262 against 0.188
at H = 0.9; the README tabulates the gap, which no check gates. So the
estimators take only Brownian inputs: rates and volatilities, with no
alpha or H.

Each estimator needs one Gaussian functional of the Brownian path: the
endpoint W_T for the warrant, and the trapezoid integral of B for the bond.
So each path draws one standard normal and scales it to that functional's
exact law (Glasserman, Monte Carlo Methods in Financial Engineering, 2004,
section 3.1) instead of marching cfg.n_steps increments.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .params import _check_count
from .processes import RngSeed
from .warrant import WarrantTerms, dilution_payoff

__all__ = list(_EXPORTS["mc"])

_BLOCK = 1 << 14  # paths per generation block; bounds memory, not results


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: RngSeed
    antithetic: bool = False

    def __post_init__(self):
        _check_count("n_paths", self.n_paths, 100)
        _check_count("n_steps", self.n_steps, 10)
        if not isinstance(self.seed, RngSeed):
            raise ValueError(f"seed must be an RngSeed, got {self.seed!r}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int


def _estimate(payoff, cfg: McConfig) -> McEstimate:
    """Mean and standard error of payoff(z) over one standard normal z per path.

    The normals come _BLOCK at a time, the same stream as one draw for all
    paths. Antithetic mode averages payoff(z) and payoff(-z) before the
    statistics, so std_error reflects pair means. Only one block of payoffs
    is held: each block's count, mean and sum of squared deviations are
    merged into the running ones by Chan, Golub & LeVeque's pairwise update
    (Am. Stat. 37, 1983), so one block gives the two-pass result bit for bit.
    A payoff or moment out of float range raises FloatingPointError.
    """
    gen = cfg.seed.generator()
    n_units = (cfg.n_paths + 1) // 2 if cfg.antithetic else cfg.n_paths
    done, mean, m2 = 0, 0.0, 0.0
    with np.errstate(over="raise", invalid="raise"):
        while done < n_units:
            z = gen.standard_normal(min(_BLOCK, n_units - done))
            pay = payoff(z)
            if cfg.antithetic:
                pay = 0.5 * (pay + payoff(-z))
            block_mean = pay.mean()
            delta = block_mean - mean
            total = done + pay.size
            mean += delta * (pay.size / total)
            m2 += ((pay - block_mean) ** 2).sum() + delta * delta * (done * pay.size / total)
            done = total
    se = math.sqrt(m2 / (n_units - 1)) / math.sqrt(n_units)
    if not (math.isfinite(mean) and math.isfinite(se)):  # a nan input raises no flag
        raise FloatingPointError("the estimate is not finite")
    n_samples = 2 * n_units if cfg.antithetic else n_units
    return McEstimate(mean=float(mean), std_error=float(se), n_paths=n_samples)


def _check_classical_rate(r: float, mu_r: float, sigma_r: float):
    # the rate inputs of mc_bond_classical
    if not math.isfinite(r):
        raise ValueError(f"rate must be finite, got {r!r}")
    if not math.isfinite(mu_r):
        raise ValueError(f"mu_r must be finite, got {mu_r!r}")
    if not (math.isfinite(sigma_r) and sigma_r >= 0.0):
        raise ValueError(f"sigma_r must be finite and nonnegative, got {sigma_r!r}")


def mc_bond_classical(
    r0: float,
    tau: float,
    mu_r: float,
    sigma_r: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate E[exp(-int_0^tau r(s) ds)] for r(s) = r0 + mu_r s + sigma_r B(s).

    The estimator is the trapezoid rule on cfg.n_steps steps. Its integral
    of the drift is exact, and its integral of B is Gaussian with variance
    tau^3/3 (1 - 1/(4 n_steps^2)): the exact tau^3/3 less an O(dt^2) bias
    far below the Monte Carlo noise at the mandated step counts. Each path
    draws that Gaussian directly, as sigma_r times its standard deviation
    times one standard normal.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    _check_classical_rate(r0, mu_r, sigma_r)
    try:
        drift_integral = r0 * tau + 0.5 * mu_r * tau * tau
        # trapezoid sum of B: sum_k c_k z_k with c_k = dt^1.5 (k - 1/2), k = 1..n
        noise_sd = sigma_r * math.sqrt(tau ** 3 / 3.0 * (1.0 - 0.25 / cfg.n_steps ** 2))
        return _estimate(lambda z: np.exp(-drift_integral - noise_sd * z), cfg)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"the estimate leaves float range at r0={r0!r}, tau={tau!r}, "
                         f"mu_r={mu_r!r}, sigma_r={sigma_r!r}: the inputs are out of "
                         f"float range") from exc


def mc_warrant_classical(
    v0: float,
    r: float,
    terms: WarrantTerms,
    sigma_v: float,
    cfg: McConfig,
) -> McEstimate:
    """Estimate the warrant value under geometric Brownian motion:

        E[exp(-r T) (k V_T - N X)^+ / (N + M k)],
        V_T = v0 exp((r - sigma_v^2/2) T + sigma_v W_T),

    sampling W_T = sqrt(T) z exactly, one standard normal z per path. The
    estimate does not depend on cfg.n_steps, which is only validated.
    """
    if not (math.isfinite(v0) and v0 > 0.0):
        raise ValueError(f"v0 must be positive, got {v0!r}")
    if not math.isfinite(r):
        raise ValueError(f"rate must be finite, got {r!r}")
    if not (math.isfinite(sigma_v) and sigma_v >= 0.0):
        raise ValueError(f"sigma_v must be finite and nonnegative, got {sigma_v!r}")
    tau = terms.maturity
    if tau <= 0.0:
        raise ValueError("terms.maturity must be positive")
    try:
        drift = (r - 0.5 * sigma_v ** 2) * tau
        vol = sigma_v * math.sqrt(tau)
        disc = math.exp(-r * tau)
        return _estimate(lambda z: disc * dilution_payoff(v0 * np.exp(drift + vol * z), terms),
                         cfg)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"the estimate leaves float range at v0={v0!r}, r={r!r}, "
                         f"sigma_v={sigma_v!r}, maturity={tau!r}: the inputs are out of "
                         f"float range") from exc
