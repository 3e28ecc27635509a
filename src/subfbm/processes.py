"""Path generation: fBm, the inverse-stable clock, and their composition.

The asset and rate live on an operational time scale tau; calendar time t is
mapped onto it through the first-passage inverse of a totally skewed stable
subordinator. Flat stretches of the inverse clock are what produce the
constant segments in the composed paths.

simulate_paths is the one public sampler. The subordinator (_subordinator)
and the Davies-Harte fBm (_fbm) it runs are private; validate and the tests
check their laws directly, the fBm's exactly through the linear map
_fbm_map that _fbm applies to its unit normals. For alpha < 1 both run on
one operational grid of n_tau = max(n_steps, 1024) steps, sized so that its
rounding of the clock stays below the standard error of any run of fewer
than about 0.18 n_tau^2 clocks at alpha = 0.9 (the bound is derived in
_subordinator). _fbm keeps its fGn spectra between calls only for paths up
to _KEPT_N operational steps, where the bound on what they hold is stated;
a longer path builds its spectrum per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .numerics import gamma
from .params import ModelParams, _check_count

__all__ = list(_EXPORTS["processes"])


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

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


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


def _subordinator(alpha: float, horizon: float, n_steps: int, gen: np.random.Generator):
    """U_alpha on the operational grid {0, d_tau, 2 d_tau, ...}, from U(0) = 0
    to past `horizon`; returns (u, d_tau).

    Increments over a step d_tau are d_tau^(1/alpha) S with S one-sided
    stable, so u is strictly increasing and E[exp(-s U(tau))] =
    exp(-tau s^alpha). The first n_tau = max(n_steps, 1024) steps cover 1.5x
    the mean clock range; the range doubles, at most _MAX_DOUBLINGS times,
    until U passes the horizon.

    The size is set by what a check can see. simulate_paths reads T_alpha(t)
    as the first node past t, which overshoots by d_tau/2 on average: a bias
    of 0.75 E[T] / n_tau at the horizon. The mean of N clocks has the standard
    error CV_alpha E[T] / sqrt(N), where CV_alpha^2 = 2 Gamma(1 + alpha)^2 /
    Gamma(1 + 2 alpha) - 1 is the Mittag-Leffler coefficient of variation, so
    the bias stays below one standard error for N up to about
    (CV_alpha n_tau / 0.75)^2: 0.59 n_tau^2 clocks at alpha = 0.7, 0.18 n_tau^2
    at 0.9 and 0.036 n_tau^2 at 0.98, or 190 000 clocks at alpha = 0.9 on the
    1024 floor. With n_tau >= n_steps one operational step is at most 1.5x
    the mean clock advance E[T_alpha(horizon)] / n_steps over one calendar step
    of the output grid. Reading T as a node keeps it on the lattice on which
    _fbm samples; a half-step correction T - d_tau / 2 would remove the bias
    but move T off that lattice.
    """
    # typical clock range: E[T_alpha(t)] = t^alpha / Gamma(1 + alpha)
    tau_scale = 1.5 * horizon ** alpha / gamma(1.0 + alpha)
    n_tau = max(n_steps, 1024)
    d_tau = tau_scale / n_tau
    step = d_tau ** (1.0 / alpha)
    u = np.empty(n_tau + 1)
    u[0] = 0.0
    np.multiply(step, one_sided_stable(alpha, n_tau, gen), out=u[1:])
    np.cumsum(u, out=u)
    doublings = 0
    while u[-1] <= horizon:
        if doublings >= _MAX_DOUBLINGS:
            raise HorizonError(
                f"subordinator failed to reach horizon {horizon!r} after "
                f"{doublings} range doublings"
            )
        n = u.size - 1
        u = np.concatenate((u, step * one_sided_stable(alpha, n, gen)))
        # the running sum carries on from U at the old end, node by node
        np.cumsum(u[n:], out=u[n:])
        doublings += 1
    return u, d_tau


def _fgn_autocov(hurst: float, n: int) -> np.ndarray:
    k = np.arange(n + 1, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k ** h2 + np.abs(k - 1.0) ** h2)


# the fGn spectra kept between calls, for n <= _KEPT_N operational steps: the
# last 64 (n + 1 floats each, so at most 64 x 0.5 MiB = 32 MiB); above it
# _fbm builds one for its call alone
_KEPT_N = 2 ** 16


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


def _fbm_map(hurst: float, n: int, dt: float, normals: np.ndarray) -> np.ndarray:
    """The Davies-Harte map: 2n unit normals on the last axis of `normals` to
    the fBm path on {0, dt, ..., n dt}, of shape `normals.shape[:-1] + (n + 1,)`.

    The map is linear, so its image of the identity, A = _fbm_map(..., I),
    has A^T A as the covariance of the paths it makes from unit normals.
    """
    z = np.empty(normals.shape[:-1] + (n + 1,), dtype=complex)
    z.real[..., [0, n]] = normals[..., :2]
    z.real[..., 1:n] = normals[..., 2:n + 1]
    z.imag[..., 1:n] = normals[..., n + 1:]
    z.imag[..., [0, n]] = 0.0
    z *= _fgn_spectrum(hurst, n) if n <= _KEPT_N else _fgn_spectrum.__wrapped__(hurst, n)
    fgn = np.fft.irfft(z, 2 * n)[..., :n]
    path = np.empty(z.shape)
    path[..., 0] = 0.0
    np.cumsum(fgn, axis=-1, out=path[..., 1:])
    path[..., 1:] *= dt ** hurst
    return path


def _fbm(hurst: float, n: int, dt: float, gen: np.random.Generator, shape=()) -> np.ndarray:
    """fBm paths of shape `shape + (n + 1,)` on {0, dt, ..., n dt}.

    Davies-Harte: 2n unit normals per path, drawn in row-major order and
    mapped by _fbm_map, so path k of a batch equals the k-th of consecutive
    single-path calls on the same generator.
    """
    return _fbm_map(hurst, n, dt, gen.standard_normal(shape + (2 * n,)))


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
    returned path always reaches t = horizon. rng is an RngSeed or a numpy
    Generator, which the draws advance.
    """
    if not np.isfinite(horizon) or horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    _check_count("n_steps", n_steps, 1)
    # a bare seed, None and the like would fail deep in the sampler; a
    # generator is taken by its methods, so stand-ins for one pass
    if not (isinstance(rng, RngSeed) or hasattr(rng, "uniform")
            or hasattr(rng, "standard_normal")):
        raise ValueError(f"rng must be an RngSeed or a numpy Generator, got {rng!r}")
    gen = rng.generator() if isinstance(rng, RngSeed) else rng
    t_grid = np.linspace(0.0, horizon, n_steps + 1)

    if params.alpha == 1.0:
        n_tau = n_steps
        d_tau = horizon / n_steps
        idx = np.arange(n_steps + 1)
        t_alpha = t_grid.copy()
    else:
        u, d_tau = _subordinator(params.alpha, horizon, n_steps, gen)
        n_tau = u.size - 1
        idx = np.searchsorted(u, t_grid, side="right")
        idx[0] = 0  # infimum convention at t = 0
        t_alpha = d_tau * idx

    # B1 and B_perp on all n_tau operational steps, then read at the clock nodes
    b1, b_perp = _fbm(params.hurst, n_tau, d_tau, gen, (2,))[:, idx]
    b2 = params.rho * b1 + math.sqrt(1.0 - params.rho * params.rho) * b_perp
    try:
        with np.errstate(over="raise"):
            log_x = params.mu_v * t_alpha + params.sigma_v * b1
            if wick_correction:
                log_x = log_x - 0.5 * params.sigma_v ** 2 * t_alpha ** (2.0 * params.hurst)
            asset = params.v0 * np.exp(log_x)
            rate = params.r0 + params.mu_r * t_alpha + params.sigma_r * b2
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"the path overflows over horizon={horizon!r} with {params!r}: "
                         f"the inputs are out of float range") from exc
    return SubdiffusivePath(t_grid=t_grid, t_alpha=t_alpha, asset=asset, rate=rate)
