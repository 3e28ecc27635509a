"""Path generation: fBm, the inverse-stable clock, and their composition.

The asset and rate live on an operational time scale tau; calendar time t is
mapped onto it through the first-passage inverse of a totally skewed stable
subordinator. Flat stretches of the inverse clock are what produce the
constant segments in the composed paths.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import gamma

__all__ = [
    "HorizonError",
    "RngSeed",
    "ModelParams",
    "SubdiffusivePath",
    "one_sided_stable",
    "stable_subordinator_path",
    "inverse_subordinator",
    "fbm_path",
    "correlated_fbm_pair",
    "simulate_paths",
]


class HorizonError(ValueError):
    """The simulated subordinator never crossed the requested time."""


# The first allocation covers 1.5 E[T_alpha(horizon)] of operational time, so
# running out after 10 doublings (1024x that allocation) needs the clock past
# 1536x its mean. T_alpha(t) is Mittag-Leffler: P(T > x) decays like
# exp(-c x^(1/(1-alpha))), which makes that vanishingly rare; a much larger
# cap would let a stalled clock exhaust memory before HorizonError is raised.
_MAX_DOUBLINGS = 10


@dataclass(frozen=True)
class RngSeed:
    """Philox key (seed, stream_id): distinct pairs give independent streams.

    Counter-based, so the same pair reproduces the same draws on any
    machine and stream ids can be handed to parallel workers freely.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < 2 ** 64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def generator(self, jump: int = 0) -> np.random.Generator:
        bg = np.random.Philox(key=[self.seed, self.stream_id])
        if jump:
            bg = bg.jumped(jump)
        return np.random.Generator(bg)


@dataclass(frozen=True)
class ModelParams:
    """Joint model parameters for the asset value and the short rate."""

    mu_v: float = 1.0
    sigma_v: float = 1.0
    mu_r: float = 1.0
    sigma_r: float = 1.0
    rho: float = 0.5
    hurst: float = 0.7
    alpha: float = 0.9
    r0: float = 1.0
    v0: float = 1.0

    def __post_init__(self):
        vals = [getattr(self, f) for f in
                ("mu_v", "sigma_v", "mu_r", "sigma_r", "rho", "hurst", "alpha", "r0", "v0")]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all model parameters must be finite")
        if not 0.5 <= self.hurst < 1.0:
            raise ValueError(f"hurst must lie in [1/2, 1), got {self.hurst!r}")
        if not 0.5 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (1/2, 1], got {self.alpha!r}")
        if self.alpha < 1.0 and self.alpha * (1.0 + self.hurst) <= 1.0:
            raise ValueError(
                f"need alpha*(1+hurst) > 1 when alpha < 1, got "
                f"alpha={self.alpha!r} hurst={self.hurst!r}"
            )
        if self.sigma_v < 0.0 or self.sigma_r < 0.0:
            raise ValueError("volatilities must be nonnegative")
        if abs(self.rho) > 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho!r}")
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be positive, got {self.v0!r}")


@dataclass(frozen=True)
class SubdiffusivePath:
    """One simulated scenario sampled on a uniform calendar grid."""

    t_grid: np.ndarray
    t_alpha: np.ndarray
    asset: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        n = self.t_grid.shape[0]
        if any(a.shape != (n,) for a in (self.t_alpha, self.asset, self.rate)):
            raise ValueError("path arrays must share one length")
        if np.any(np.diff(self.t_alpha) < 0.0):
            raise ValueError("inverse clock must be nondecreasing")
        if np.any(self.asset <= 0.0):
            raise ValueError("asset path must stay positive")


def one_sided_stable(alpha: float, size: int, gen: np.random.Generator) -> np.ndarray:
    """Draw totally skewed positive stable variables, E[exp(-u S)] = exp(-u^alpha).

    Kanter's representation: with theta ~ U(0, pi) and w ~ Exp(1),

        S = sin(alpha theta) / sin(theta)^(1/alpha)
            * (sin((1-alpha) theta) / w)^((1-alpha)/alpha).

    Degenerates smoothly to S = 1 as alpha -> 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    theta = gen.uniform(np.finfo(float).tiny, np.pi, size)
    w = gen.standard_exponential(size)
    return (
        np.sin(alpha * theta)
        / np.sin(theta) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * theta) / w) ** ((1.0 - alpha) / alpha)
    )


def stable_subordinator_path(alpha: float, tau_grid, rng) -> np.ndarray:
    """Sample U_alpha on tau_grid (tau_grid[0] = 0, strictly increasing).

    Increments over a step d scale as d^(1/alpha) * S with S one-sided
    stable, so the path is strictly increasing with stationary independent
    increments and E[exp(-u U(tau))] = exp(-tau u^alpha).
    """
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or tau.size < 2:
        raise ValueError("tau_grid must hold at least two nodes")
    if tau[0] != 0.0:
        raise ValueError("tau_grid must start at 0")
    d_tau = np.diff(tau)
    if np.any(d_tau <= 0.0):
        raise ValueError("tau_grid must be strictly increasing")
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    s = one_sided_stable(alpha, d_tau.size, gen)
    u = np.empty_like(tau)
    u[0] = 0.0
    np.cumsum(d_tau ** (1.0 / alpha) * s, out=u[1:])
    return u


def inverse_subordinator(tau_grid, u_values, t_grid) -> np.ndarray:
    """First-passage inverse: T(t) = inf{tau : U(tau) > t} on a sampled path.

    Returns the tau node at which the sampled U first exceeds each t; exact
    up to the tau-grid resolution. T(0) = 0 by the infimum convention.
    Raises HorizonError if the path never crosses some requested t.
    """
    tau = np.asarray(tau_grid, dtype=float)
    u = np.asarray(u_values, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if tau.shape != u.shape:
        raise ValueError("tau_grid and u_values must have matching shapes")
    if np.any(t < 0.0):
        raise ValueError("t_grid must be nonnegative")
    if t.size and t.max() >= u[-1]:
        raise HorizonError(
            f"subordinator reaches {u[-1]!r} but t={t.max()!r} was requested; "
            "extend the simulated horizon"
        )
    idx = np.searchsorted(u, t, side="right")
    out = tau[idx]
    out[t == 0.0] = 0.0
    return out


def _fgn_autocov(hurst: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)


@lru_cache(maxsize=64)
def _fgn_spectrum(hurst: float, n: int) -> np.ndarray:
    """Weights of the half spectrum k = 0..n that _fbm hands to irfft.

    lam are the eigenvalues of the size-2n circulant embedding of the fGn
    covariance. The weight is sqrt(2n lam_k) at k = 0 and n, and
    sqrt(n lam_k) in between, where a mode's real and imaginary parts are
    two unit normals. lam >= 0 for every H in (0, 1) (Craigmile 2003 for
    H <= 1/2, Dietrich & Newsam 1997 for H >= 1/2); should a negative one
    ever appear the sampler would be wrong, so it raises.
    """
    g = _fgn_autocov(hurst, n)
    row = np.concatenate((g[:n], g[n:n + 1], g[n - 1:0:-1]))
    lam = np.fft.rfft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise ValueError(f"circulant embedding of fGn is not nonnegative definite "
                         f"at hurst={hurst!r}, n={n}")
    w = np.sqrt(np.clip(lam, 0.0, None) * n)
    w[[0, n]] *= math.sqrt(2.0)
    w.flags.writeable = False
    return w


def _fbm(hurst: float, n: int, dt: float, gen: np.random.Generator, shape=()) -> np.ndarray:
    """fBm paths of shape `shape + (n + 1,)` on {0, dt, ..., n dt}.

    Davies-Harte: 2n unit normals per path, drawn in row-major order, so
    path k of a batch equals the k-th of consecutive single-path calls on
    the same generator.
    """
    v = gen.standard_normal(shape + (2 * n,))
    z = np.zeros(shape + (n + 1,), dtype=complex)
    z.real[..., [0, n]] = v[..., :2]
    z.real[..., 1:n] = v[..., 2:n + 1]
    z.imag[..., 1:n] = v[..., n + 1:]
    z *= _fgn_spectrum(hurst, n)
    fgn = np.fft.irfft(z, 2 * n)[..., :n]
    path = np.empty(shape + (n + 1,))
    path[..., 0] = 0.0
    np.cumsum(fgn, axis=-1, out=path[..., 1:])
    path[..., 1:] *= dt ** hurst
    return path


def _check_fbm_args(hurst, n, dt):
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst!r}")
    if n < 1:
        raise ValueError("need at least one step")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")


def fbm_path(hurst: float, n: int, dt: float, rng) -> np.ndarray:
    """Exact fractional Brownian motion on {0, dt, ..., n dt}, B(0) = 0.

    Davies-Harte circulant embedding of the increment covariance, sampled
    with one real FFT of length 2n. Cost O(n log n), exact covariance at
    the nodes.
    """
    _check_fbm_args(hurst, n, dt)
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    return _fbm(hurst, n, dt, gen)


def correlated_fbm_pair(hurst: float, rho: float, n: int, dt: float, rng):
    """Two fBm paths whose driving noises have correlation rho.

    B2 = rho B1 + sqrt(1 - rho^2) B_perp with B_perp an independent copy,
    so corr(B1(t), B2(t)) = rho at every node.
    """
    if abs(rho) > 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho!r}")
    _check_fbm_args(hurst, n, dt)
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    b1, b_perp = _fbm(hurst, n, dt, gen, (2,))
    return b1, rho * b1 + math.sqrt(1.0 - rho * rho) * b_perp


def simulate_paths(
    params: ModelParams,
    horizon: float,
    n_steps: int,
    rng,
    *,
    wick_correction: bool = True,
) -> SubdiffusivePath:
    """Simulate the time-changed asset and rate on a uniform calendar grid.

    On the operational clock the asset is geometric fBm,

        X(tau) = v0 exp(mu_v tau + sigma_v B1(tau) - sigma_v^2 tau^(2H) / 2),

    (the last term is the Wick normalization making exp a martingale for
    mu_v = 0; wick_correction=False drops it) and the rate is arithmetic,
    r(tau) = r0 + mu_r tau + sigma_r B2(tau). Both are then read at
    tau = T_alpha(t). alpha = 1 short-circuits to T_alpha(t) = t.

    The subordinator range doubles until it covers the horizon, so the
    returned path always reaches t = horizon.
    """
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    t_grid = np.linspace(0.0, horizon, n_steps + 1)

    if params.alpha == 1.0:
        n_tau = n_steps
        d_tau = horizon / n_steps
        idx = np.arange(n_steps + 1)
        t_alpha = t_grid.copy()
    else:
        inv_a = 1.0 / params.alpha
        # typical clock range: E[T_alpha(t)] = t^alpha / Gamma(1 + alpha)
        tau_scale = 1.5 * horizon ** params.alpha / gamma(1.0 + params.alpha)
        n_tau = max(8 * n_steps, 1024)
        d_tau = tau_scale / n_tau
        step = d_tau ** inv_a
        incs = step * one_sided_stable(params.alpha, n_tau, gen)
        total = incs.sum()
        doublings = 0
        while total <= horizon:
            if doublings >= _MAX_DOUBLINGS:
                raise HorizonError(
                    f"subordinator failed to reach horizon {horizon!r} after "
                    f"{doublings} range doublings"
                )
            more = step * one_sided_stable(params.alpha, incs.size, gen)
            total += more.sum()
            incs = np.concatenate((incs, more))
            doublings += 1
        u = np.empty(incs.size + 1)
        u[0] = 0.0
        np.cumsum(incs, out=u[1:])
        n_tau = incs.size
        idx = np.searchsorted(u, t_grid, side="right")
        idx[0] = 0  # infimum convention at t = 0
        t_alpha = d_tau * idx

    # B1 and B_perp on all n_tau operational steps, then read at the clock nodes
    b1, b_perp = _fbm(params.hurst, n_tau, d_tau, gen, (2,))[:, idx]
    b2 = params.rho * b1 + math.sqrt(1.0 - params.rho * params.rho) * b_perp
    log_x = params.mu_v * t_alpha + params.sigma_v * b1
    if wick_correction:
        log_x = log_x - 0.5 * params.sigma_v ** 2 * t_alpha ** (2.0 * params.hurst)
    asset = params.v0 * np.exp(log_x)
    rate = params.r0 + params.mu_r * t_alpha + params.sigma_r * b2
    return SubdiffusivePath(t_grid=t_grid, t_alpha=t_alpha, asset=asset, rate=rate)
