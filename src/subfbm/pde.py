"""Finite-difference cross-validation of the closed-form prices.

Two tools live here: a solver for the transformed terminal-value problem

    Theta_t + sigma_bar^2(t) z^2 Theta_zz = 0,   z = V / P(r, t, T),
    Theta(z, T) = (k z - N X)^+ / (N + M k),

whose solution is the default-variant warrant.warrant_price(z P, r, t) / P
at any rate r, and pointwise residual evaluators that push a price function
through central differences and report how badly it violates the pricing
equation. Both are consistency instruments: the library's prices come from
the closed forms, not from this solver.

Here sigma_bar^2 = sv~^2 + 2 rho (T-t) sr~ sv~ + (T-t)^2 sr~^2, built from
the effective volatilities s~^2 = H s^2 t^(2 alpha H - 1) / Gamma(alpha)^(2H)
of the asset (sv~) and the rate (sr~).

The solver works in x = log z and the accumulated variance
s = int_t^T sigma_bar^2, which is half of warrant.variance_integral and is
taken from it, so it never forms sigma_bar^2 itself; the problem becomes
Theta_s = Theta_xx - Theta_x with constant coefficients. On a grid uniform
in x the exponentially fitted difference operator (Il'in 1969; Duffy,
Finite Difference Methods in Financial Engineering, 2006) is one
tridiagonal matrix that annihilates both 1 and z exactly and has a
closed-form eigendecomposition. The semi-discrete system is then solved
exactly in s: each row is an elementwise exponential in the eigenbasis,
taken back to the grid by a sine transform. That transform does only the
work that can change its result: up to _KEPT_SIDE interior nodes it is a
product by the sine matrix, which depends on the grid size alone and is
kept, read-only, for reuse (the bound is stated at _KEPT_SIZES); above it
it is a type-I discrete sine transform by the real FFT, with no matrix; and
modes whose factor exp(s lambda) has fallen below 1e-20 are left out. The
residual evaluators build their coefficients from the effective volatilities
directly and share nothing with variance_integral. The bond equation is the
warrant equation of a claim that does not depend on V: one stencil serves both.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _EXPORTS
from .numerics import gamma
from .params import ModelParams, _check_count
from .warrant import WarrantTerms, dilution_payoff, variance_integral

__all__ = list(_EXPORTS["pde"])

@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid for the transformed problem: n_z nodes uniform in
    log z from z_min to z_max, n_t + 1 nodes uniform in t from t_start to
    the maturity of the terms it is solved with.

    The surface a solve returns, (n_t + 1) n_z x 8 B, is the only allocation
    that grows with the grid: the kept sine matrices hold at most 16 MiB
    (see _KEPT_SIZES), and each block of rows needs O(n_z) temporaries."""

    z_min: float
    z_max: float
    n_z: int
    n_t: int
    t_start: float

    def __post_init__(self):
        if not (0.0 < self.z_min < self.z_max) or not math.isfinite(self.z_max):
            raise ValueError("need 0 < z_min < z_max < inf")
        _check_count("n_z", self.n_z, 16)
        _check_count("n_t", self.n_t, 16)

    @property
    def log_step(self) -> float:
        return (math.log(self.z_max) - math.log(self.z_min)) / (self.n_z - 1)


def _tilde_sq(sigma: float, t: float, params: ModelParams) -> float:
    """Squared effective volatility H sigma^2 t^(2 alpha H - 1) / Gamma(alpha)^(2H).

    The exponent 2 alpha H - 1 can be negative, so t = 0 is out of domain
    whenever 2 alpha H < 1; callers keep their evaluation points positive.
    """
    expo = 2.0 * params.alpha * params.hurst - 1.0
    return (
        params.hurst * sigma ** 2 * t ** expo
        / gamma(params.alpha) ** (2.0 * params.hurst)
    )


@dataclass(frozen=True)
class ThetaSurface:
    """values[m] is the solution at t_grid[m] on the log-uniform z_grid;
    row n_t is the payoff."""

    z_grid: np.ndarray
    t_grid: np.ndarray
    values: np.ndarray


def default_grid(
    terms: WarrantTerms,
    params: ModelParams,
    t_start: float = 0.0,
    n_z: int = 400,
    n_t: int = 400,
) -> GridSpec:
    """Grid sized from the total variance: z_max = 5 (NX/k) exp(3 sqrt(vi))."""
    vi = variance_integral(t_start, terms.maturity, params)
    moneyness = terms.shares_outstanding * terms.strike / terms.shares_per_warrant
    try:
        pad = math.exp(3.0 * math.sqrt(vi))
    except OverflowError as exc:
        raise ValueError(f"the grid padding exp(3 sqrt(vi)) overflows at total variance "
                         f"vi={vi!r} over t_start={t_start!r}, maturity={terms.maturity!r}: "
                         f"the inputs are out of float range") from exc
    return GridSpec(
        z_min=moneyness / (5.0 * pad),
        z_max=5.0 * moneyness * pad,
        n_z=n_z,
        n_t=n_t,
        t_start=t_start,
    )


# rows of the surface computed per block: a block's exponentials are one
# (_BLOCK_ROWS, modes) temporary, and a block keeps only the modes its
# smallest variance to go has not decayed below rounding (_MODE_CUT)
_BLOCK_ROWS = 32

# floor on s * eig. The modes it touches are gone to rounding either way,
# and e^-500 ~ 7e-218 keeps them out of the subnormal range, where they
# would slow the matrix product several-fold. One block can still span very
# different s near maturity, so the cut below does not make it redundant
_MIN_EXPONENT = -500.0

# a block keeps mode k while exp(s_min eig_k) >= 1e-20
_MODE_CUT = math.log(1e-20)

# the sine matrices kept between solves: the last _KEPT_SIZES sizes used
# with n <= _KEPT_SIDE interior nodes, each at most 512^2 x 8 B = 2 MiB, so
# at most 16 MiB; above the side the solve transforms by _dst, with no matrix
_KEPT_SIZES = 8
_KEPT_SIDE = 512


@lru_cache(maxsize=_KEPT_SIZES)
def _sine_matrix(n: int) -> np.ndarray:
    """sin(j k pi / (n + 1)) for j, k = 1 .. n, each angle reduced exactly
    modulo 2 pi before the sine is taken; read-only."""
    period = 2 * (n + 1)
    idx = np.arange(1, n + 1)
    idx = np.outer(idx, idx)
    idx %= period
    m = np.sin(np.arange(period) * (math.pi / (n + 1)))[idx]
    m.flags.writeable = False
    return m


def _dst(x: np.ndarray, n: int) -> np.ndarray:
    """x @ _sine_matrix(n)[:k] over the last axis of x, of length k <= n: a
    type-I discrete sine transform, -Im of the real FFT of x placed at
    1 .. k in zeros of length 2 (n + 1)."""
    padded = np.zeros(x.shape[:-1] + (2 * (n + 1),))
    padded[..., 1:x.shape[-1] + 1] = x
    return -np.fft.rfft(padded)[..., 1:n + 1].imag


def solve_theta_pde(grid: GridSpec, terms: WarrantTerms, params: ModelParams) -> ThetaSurface:
    """Solve the transformed problem backward from the payoff.

    Works in x = log z and the variance to go s (see the module docstring).
    The exponentially fitted weights, diffusion (h/2) coth(h/2) in place of
    1, are c = 1/(h (e^h - 1)) above and a = c e^h below the diagonal
    -(a + c). Both are positive for every h and a/c = e^h, so 1 and z are
    exact null vectors. The operator on the J = n_z - 2 interior nodes has
    eigenvalues -(a + c) + 2 sqrt(ac) cos(k pi / (J + 1)) and eigenvectors
    sin(j k pi / (J + 1)) scaled by e^(j h / 2), so row m is the payoff's
    eigen-coordinates times exp(s_m lambda_k), exact in time. The variance
    to go s_m is half of warrant.variance_integral(t_m, T), so the solver
    never evaluates the coefficient t^(2 alpha H - 1) that is singular at
    t = 0, and a row does not depend on the other rows of the time grid.

    Both sine products, the payoff's coordinates and each block of rows, go
    by the kept sine matrix up to J = _KEPT_SIDE and by _dst above it. Each
    block of _BLOCK_ROWS rows takes back only the leading modes with
    exp(s lambda_k) >= 1e-20 at its smallest s (the body bounds what the
    others could add). The time grid runs from grid.t_start to
    terms.maturity, and needs 0 <= t_start < maturity.

    Dirichlet boundaries: Theta(z_min, t) = 0 and Theta(z_max, t) =
    (k z_max - N X)^+ / (N + M k), both frozen in time; z_max should sit
    deep enough in the money for that to hold (default_grid arranges this).
    The discrete steady state, linear in z, lifts them.
    """
    if not 0.0 <= grid.t_start < terms.maturity:
        raise ValueError("need 0 <= t_start < maturity")
    z = np.geomspace(grid.z_min, grid.z_max, grid.n_z)
    t = np.linspace(grid.t_start, terms.maturity, grid.n_t + 1)
    # the variance to go at every row but the last, which is the payoff
    s = 0.5 * variance_integral(t[:-1], terms.maturity, params)
    payoff = dilution_payoff(z, terms)

    h = grid.log_step
    c = 1.0 / (h * math.expm1(h))
    a = c * math.exp(h)
    n_in = grid.n_z - 2
    j = np.arange(1, n_in + 1)  # the interior nodes, and the mode numbers k
    sines = _sine_matrix(n_in) if n_in <= _KEPT_SIDE else None  # None: by _dst
    # the solve is exact in time and cannot go unstable: a value leaves
    # float range only when the inputs do
    try:
        with np.errstate(over="raise", invalid="raise"):
            lift = payoff[-1] * (z - z[0]) / (z[-1] - z[0])
            # e^(j h / 2) up to a constant factor, centred to stay in range on wide grids
            tilt = np.exp((j - 0.5 * (n_in + 1)) * (0.5 * h))
            eig = -(a + c) + 2.0 * math.sqrt(a * c) * np.cos(j * (math.pi / (n_in + 1)))
            coords = (payoff[1:-1] - lift[1:-1]) / tilt
            start = (_dst(coords, n_in) if sines is None else sines @ coords) * (2.0 / (n_in + 1))

            # rows of values: exp(s_m eig) times the payoff's coordinates, taken back
            # to the grid by the sines, then tilted and lifted. eig falls with k, so
            # the modes a block keeps, exp(s_min eig_k) >= 1e-20, are a prefix; a
            # mode left out is below 1e-20 |start_k| tilt_j at node j, so all of
            # them change a value by at most n_in 1e-20 max|start| max(tilt)
            values = np.empty((grid.n_t + 1, grid.n_z))
            inner = values[:-1, 1:-1]
            for lo in range(0, grid.n_t, _BLOCK_ROWS):
                s_block = s[lo:lo + _BLOCK_ROWS]
                k = np.count_nonzero(s_block.min() * eig >= _MODE_CUT)
                f = np.multiply.outer(s_block, eig[:k])
                np.maximum(f, _MIN_EXPONENT, out=f)
                np.exp(f, out=f)
                f *= start[:k]
                rows = inner[lo:lo + _BLOCK_ROWS]
                if sines is None:
                    rows[...] = _dst(f, n_in)
                else:
                    np.matmul(f, sines[:k], out=rows)
                rows *= tilt
                rows += lift[1:-1]
            values[:-1, 0] = 0.0
            values[:-1, -1] = payoff[-1]
            values[-1] = payoff
            if not np.all(np.isfinite(values)):  # the backstop: a nan raises no flag
                raise FloatingPointError("the solve produced a non-finite value")
    except FloatingPointError as exc:
        raise ValueError(f"the solve leaves float range at z_max={grid.z_max!r}, "
                         f"strike={terms.strike!r}, maturity={terms.maturity!r}: "
                         f"the inputs are out of float range") from exc
    return ThetaSurface(z_grid=z, t_grid=t, values=values)


def _central_steps(steps):
    # the stencils divide by h^2 and h_v h_r, so a square must neither round
    # to 0 nor overflow (nan fails every comparison)
    h = tuple(float(s) for s in steps)
    if not all(s > 0.0 and 0.0 < s * s < math.inf for s in h):
        raise ValueError(f"finite-difference steps must be positive, with squares in "
                         f"float range, got {h!r}")
    return h


def _rate_side(f, r, t, h_r, h_t, params: ModelParams):
    """The rate side f_t + mu_r t^(alpha-1)/Gamma(alpha) f_r + sr~^2 f_rr - r f
    at (r, t), by central differences from f at (r, t), (r, t +- h_t) and
    (r +- h_r, t); returned with f(r, t) and sr~^2."""
    f0 = f(r, t)
    f_t = (f(r, t + h_t) - f(r, t - h_t)) / (2.0 * h_t)
    f_rp, f_rm = f(r + h_r, t), f(r - h_r, t)
    f_r = (f_rp - f_rm) / (2.0 * h_r)
    f_rr = (f_rp - 2.0 * f0 + f_rm) / h_r ** 2
    sr2 = _tilde_sq(params.sigma_r, t, params)
    drift = params.mu_r * t ** (params.alpha - 1.0) / gamma(params.alpha)
    return f_t + drift * f_r + sr2 * f_rr - r * f0, f0, sr2


def residual_warrant_pde(price_fn, point, steps, params: ModelParams) -> float:
    """Pricing-equation defect of price_fn(V, r, t) at an interior point:

        W_t + sv~^2 V^2 W_VV + sr~^2 W_rr + 2 rho sr~ sv~ V W_Vr
            + mu_r t^(alpha-1)/Gamma(alpha) W_r + r V W_V - r W.

    Central differences with steps (h_v, h_r, h_t); needs t - h_t > 0 and
    V - h_v > 0 so every stencil point is interior. The terms without V are
    residual_bond_pde's stencil at fixed V; only the V terms are added here.
    """
    v, r, t = (float(x) for x in point)
    h_v, h_r, h_t = _central_steps(steps)
    if t - h_t <= 0.0:
        raise ValueError("need t - h_t > 0: the coefficients are singular at t = 0")
    if v - h_v <= 0.0:
        raise ValueError("need V - h_v > 0")

    rate_side, w, sr2 = _rate_side(lambda r_, t_: price_fn(v, r_, t_), r, t, h_r, h_t, params)
    w_vp, w_vm = price_fn(v + h_v, r, t), price_fn(v - h_v, r, t)
    w_v = (w_vp - w_vm) / (2.0 * h_v)
    w_vv = (w_vp - 2.0 * w + w_vm) / h_v ** 2
    w_vr = (
        price_fn(v + h_v, r + h_r, t)
        - price_fn(v + h_v, r - h_r, t)
        - price_fn(v - h_v, r + h_r, t)
        + price_fn(v - h_v, r - h_r, t)
    ) / (4.0 * h_v * h_r)

    sv2 = _tilde_sq(params.sigma_v, t, params)
    return (rate_side + sv2 * v ** 2 * w_vv
            + 2.0 * params.rho * math.sqrt(sr2 * sv2) * v * w_vr + r * v * w_v)


def residual_bond_pde(price_fn, point, steps, params: ModelParams) -> float:
    """Pricing-equation defect of price_fn(r, t):

        P_t + mu_r t^(alpha-1)/Gamma(alpha) P_r + sr~^2 P_rr - r P,

    the warrant equation of a claim that does not depend on V, by the stencil
    residual_warrant_pde applies at fixed V; steps (h_r, h_t), t - h_t > 0.
    """
    r, t = (float(x) for x in point)
    h_r, h_t = _central_steps(steps)
    if t - h_t <= 0.0:
        raise ValueError("need t - h_t > 0: the coefficients are singular at t = 0")
    return _rate_side(price_fn, r, t, h_r, h_t, params)[0]
