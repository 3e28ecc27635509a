"""Classical-regime Monte Carlo oracles.

These estimators exist to cross-check the closed forms where an exact
simulation measure is available: alpha = 1 and H = 1/2, i.e. Brownian
driving noise. The fractional trapping regime admits no comparable
risk-neutral simulation (the closed forms there come from the hedging
argument, not from an expectation we can sample), so anything else is
rejected outright rather than silently approximated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .processes import RngSeed
from .warrant import WarrantTerms, dilution_payoff

__all__ = ["RegimeError", "McConfig", "McEstimate", "mc_bond_classical", "mc_warrant_classical"]

_BLOCK = 1 << 14  # paths per generation block; bounds memory, not results


class RegimeError(ValueError):
    """Monte Carlo requested outside the Brownian regime."""


@dataclass(frozen=True)
class McConfig:
    n_paths: int
    n_steps: int
    seed: RngSeed
    antithetic: bool = False

    def __post_init__(self):
        if self.n_paths < 100:
            raise ValueError("n_paths must be at least 100")
        if self.n_steps < 10:
            raise ValueError("n_steps must be at least 10")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int


def _check_regime(alpha: float, hurst: float):
    if alpha != 1.0 or hurst != 0.5:
        raise RegimeError(
            f"Monte Carlo supports only the Brownian regime alpha=1, hurst=1/2; "
            f"got alpha={alpha!r} hurst={hurst!r}. The trapping regime has no "
            "simulatable pricing measure here; use the closed forms."
        )


def _collect(sample_blocks, n_samples: int) -> McEstimate:
    samples = np.concatenate(sample_blocks)
    mean = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    return McEstimate(mean=float(mean), std_error=float(se), n_paths=n_samples)


def mc_bond_classical(
    r0: float,
    tau: float,
    mu_r: float,
    sigma_r: float,
    cfg: McConfig,
    *,
    alpha: float = 1.0,
    hurst: float = 0.5,
) -> McEstimate:
    """Estimate E[exp(-int_0^tau r(s) ds)] for r(s) = r0 + mu_r s + sigma_r B(s).

    Brownian increments are exact; the time integral uses the trapezoid
    rule, whose variance bias O(dt^2) sits far below the Monte Carlo noise
    at the mandated step counts. Antithetic mode averages the +B/-B pair
    before the statistics, so std_error reflects pair means.
    """
    _check_regime(alpha, hurst)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau!r}")
    if sigma_r < 0.0:
        raise ValueError("sigma_r must be nonnegative")
    gen = cfg.seed.generator()
    n_steps = cfg.n_steps
    dt = tau / n_steps
    times = dt * np.arange(n_steps + 1)
    drift = r0 + mu_r * times
    # trapezoid weights folded into one dot product per path
    w = np.full(n_steps + 1, dt)
    w[0] = w[-1] = 0.5 * dt
    drift_integral = float(w @ drift)
    # B(t_j) = sqrt(dt) sum_{i<j} z_i, so the trapezoid sum w @ B regroups by
    # increment into z @ c with c_i = sqrt(dt) sum_{j>i} w_j
    c = np.cumsum(w[:0:-1])[::-1] * math.sqrt(dt)

    n_units = (cfg.n_paths + 1) // 2 if cfg.antithetic else cfg.n_paths
    blocks = []
    done = 0
    while done < n_units:
        m = min(_BLOCK, n_units - done)
        noise = sigma_r * (gen.standard_normal((m, n_steps)) @ c)
        if cfg.antithetic:
            d = 0.5 * (np.exp(-drift_integral - noise) + np.exp(-drift_integral + noise))
        else:
            d = np.exp(-drift_integral - noise)
        blocks.append(d)
        done += m
    return _collect(blocks, 2 * n_units if cfg.antithetic else n_units)


def mc_warrant_classical(
    v0: float,
    r: float,
    terms: WarrantTerms,
    sigma_v: float,
    cfg: McConfig,
    *,
    alpha: float = 1.0,
    hurst: float = 0.5,
) -> McEstimate:
    """Estimate the warrant value under geometric Brownian motion:

        E[exp(-r T) (k V_T - N X)^+ / (N + M k)],
        V_T = v0 exp((r - sigma_v^2/2) T + sigma_v W_T),

    marched in cfg.n_steps exact lognormal increments.
    """
    _check_regime(alpha, hurst)
    if not (np.isfinite(v0) and v0 > 0.0):
        raise ValueError(f"v0 must be positive, got {v0!r}")
    if sigma_v < 0.0:
        raise ValueError("sigma_v must be nonnegative")
    tau = terms.maturity
    if tau <= 0.0:
        raise ValueError("terms.maturity must be positive")
    gen = cfg.seed.generator()
    n_steps = cfg.n_steps
    dt = tau / n_steps
    step_drift = (r - 0.5 * sigma_v ** 2) * dt
    vol = sigma_v * math.sqrt(dt)
    disc = math.exp(-r * tau)

    n_units = (cfg.n_paths + 1) // 2 if cfg.antithetic else cfg.n_paths
    blocks = []
    done = 0
    while done < n_units:
        m = min(_BLOCK, n_units - done)
        z = gen.standard_normal((m, n_steps))
        log_total = z.sum(axis=1) * vol + n_steps * step_drift
        v_t = v0 * np.exp(log_total)
        pay = disc * dilution_payoff(v_t, terms)
        if cfg.antithetic:
            v_anti = v0 * np.exp(2.0 * n_steps * step_drift - log_total)
            pay = 0.5 * (pay + disc * dilution_payoff(v_anti, terms))
        blocks.append(pay)
        done += m
    return _collect(blocks, 2 * n_units if cfg.antithetic else n_units)
