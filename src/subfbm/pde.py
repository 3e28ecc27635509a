"""Finite-difference cross-validation of the closed-form prices.

Two tools live here: a backward marcher for the transformed terminal-value
problem

    Theta_t + sigma_bar^2(t) z^2 Theta_zz = 0,   z = V / P(r, t, T),
    Theta(z, T) = (k z - N X)^+ / (N + M k),

whose solution warrant.warrant_value_forward reproduces in closed form, and
pointwise residual evaluators that push a price function through central
differences and report how badly it violates the pricing equation. Both are
consistency instruments: the library's prices come from the closed forms,
not from this solver.

The marcher works in x = log z and the accumulated variance
s = int_t^T sigma_bar^2 (half of warrant.variance_integral), where the
problem becomes Theta_s = Theta_xx - Theta_x with constant coefficients.
On a grid uniform in x the central-difference operator is one tridiagonal
matrix with a closed-form eigendecomposition, so Crank-Nicolson and
implicit steps are elementwise factors and the whole surface is one
cumulative product taken back to the grid by a matrix product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import QuadratureSpec, gamma
from .processes import ModelParams
from .warrant import WarrantTerms, dilution_payoff, variance_integral

__all__ = [
    "InstabilityError",
    "GridSpec",
    "EffectiveVols",
    "ThetaSurface",
    "default_grid",
    "solve_theta_pde",
    "residual_warrant_pde",
    "residual_bond_pde",
]

SCHEMES = ("implicit", "crank_nicolson")


class InstabilityError(RuntimeError):
    """The marching produced a non-finite value."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid for the transformed problem: n_z nodes uniform in
    log z from z_min to z_max, n_t + 1 nodes uniform in t.

    The log spacing must stay below 2, where the central-difference weight
    1/h^2 - 1/(2h) of the upper neighbour would stop being positive.
    """

    z_min: float
    z_max: float
    n_z: int
    n_t: int
    t_start: float
    maturity: float

    def __post_init__(self):
        if not (0.0 < self.z_min < self.z_max) or not np.isfinite(self.z_max):
            raise ValueError("need 0 < z_min < z_max < inf")
        if self.n_z < 16 or self.n_t < 16:
            raise ValueError("need n_z >= 16 and n_t >= 16")
        if not 0.0 <= self.t_start < self.maturity:
            raise ValueError("need 0 <= t_start < maturity")
        if not self.log_step < 2.0:
            raise ValueError(f"log spacing {self.log_step!r} must stay below 2; raise n_z")

    @property
    def log_step(self) -> float:
        return (math.log(self.z_max) - math.log(self.z_min)) / (self.n_z - 1)


def _tilde_sq(sigma: float, t, params: ModelParams):
    """Squared effective volatility H sigma^2 t^(2 alpha H - 1) / Gamma(alpha)^(2H).

    The exponent 2 alpha H - 1 can be negative, so t = 0 is out of domain
    whenever 2 alpha H < 1; callers keep their evaluation points positive.
    """
    expo = 2.0 * params.alpha * params.hurst - 1.0
    return (
        params.hurst * sigma ** 2 * np.asarray(t, dtype=float) ** expo
        / gamma(params.alpha) ** (2.0 * params.hurst)
    )


@dataclass(frozen=True)
class EffectiveVols:
    """Deterministic time-dependent coefficients of the pricing equations."""

    params: ModelParams
    maturity: float

    def sigma_v_tilde_sq(self, t):
        return _tilde_sq(self.params.sigma_v, t, self.params)

    def sigma_r_tilde_sq(self, t):
        return _tilde_sq(self.params.sigma_r, t, self.params)

    def sigma_bar_sq(self, t):
        sv2 = self.sigma_v_tilde_sq(t)
        sr2 = self.sigma_r_tilde_sq(t)
        rem = self.maturity - np.asarray(t, dtype=float)
        return sv2 + 2.0 * self.params.rho * np.sqrt(sr2 * sv2) * rem + sr2 * rem ** 2

    def sigma_bar_sq_integral(self, t):
        """Antiderivative int_0^t sigma_bar^2(u) du, vectorised in t.

        sigma_bar^2(u) = K u^(beta - 1) (c0 + c1 u + c2 u^2) with
        beta = 2 alpha H and K = H / Gamma(alpha)^(2H), so the integral is
        K sum_j c_j t^(beta + j) / (beta + j): finite at t = 0 even where
        the integrand is not. Differences of it are half of
        warrant.variance_integral.
        """
        p = self.params
        beta = 2.0 * p.alpha * p.hurst
        cross = 2.0 * p.rho * p.sigma_r * p.sigma_v
        coeffs = (
            p.sigma_v ** 2 + cross * self.maturity + (p.sigma_r * self.maturity) ** 2,
            -cross - 2.0 * p.sigma_r ** 2 * self.maturity,
            p.sigma_r ** 2,
        )
        t = np.asarray(t, dtype=float)
        scale = p.hurst / gamma(p.alpha) ** (2.0 * p.hurst)
        return scale * sum(c * t ** (beta + j) / (beta + j) for j, c in enumerate(coeffs))


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
    spec: QuadratureSpec = None,
) -> GridSpec:
    """Grid sized from the total variance: z_max = 5 (NX/k) exp(3 sqrt(vi))."""
    vi = variance_integral(t_start, terms.maturity, params, spec)
    moneyness = terms.shares_outstanding * terms.strike / terms.shares_per_warrant
    pad = math.exp(3.0 * math.sqrt(vi))
    return GridSpec(
        z_min=moneyness / (5.0 * pad),
        z_max=5.0 * moneyness * pad,
        n_z=n_z,
        n_t=n_t,
        t_start=t_start,
        maturity=terms.maturity,
    )


# rows of the surface taken back from eigen-coordinates per matrix product,
# which bounds the product's temporary; the whole surface at once would put
# a third array of the grid's size beside values and the sine matrix
_BLOCK_ROWS = 32


def _sine_matrix(n: int) -> np.ndarray:
    """sin(j k pi / (n + 1)) for j, k = 1 .. n, each angle reduced exactly
    modulo 2 pi before the sine is taken."""
    period = 2 * (n + 1)
    idx = np.arange(1, n + 1)
    idx = np.outer(idx, idx)
    idx %= period
    return np.sin(np.arange(period) * (math.pi / (n + 1)))[idx]


def solve_theta_pde(
    grid: GridSpec,
    terms: WarrantTerms,
    params: ModelParams,
    scheme: str = "crank_nicolson",
) -> ThetaSurface:
    """March the transformed problem backward from the payoff.

    Works in x = log z and the variance to go s (see the module docstring).
    With central-difference weights a = 1/h^2 + 1/(2h) below and
    c = 1/h^2 - 1/(2h) above the diagonal, the operator on the J = n_z - 2
    interior nodes has eigenvalues -2/h^2 + 2 sqrt(ac) cos(k pi / (J + 1))
    and eigenvectors sin(j k pi / (J + 1)) scaled by (a/c)^(j/2), so each
    step is an elementwise factor on the eigen-coordinates. Each step's ds
    is a difference of EffectiveVols.sigma_bar_sq_integral, so the march
    never evaluates the coefficient t^(2 alpha H - 1) that is singular at
    t = 0.

    Dirichlet boundaries: Theta(z_min, t) = 0 and Theta(z_max, t) =
    (k z_max - N X)^+ / (N + M k), both frozen in time; z_max should sit
    deep enough in the money for that to hold (default_grid arranges this).
    The discrete steady state, proportional to (a/c)^j - 1, lifts them.

    crank_nicolson opens with two fully implicit steps (Rannacher start) to
    damp the oscillations the payoff kink would otherwise excite; implicit
    is first-order in time but obeys a discrete maximum principle.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if grid.maturity != terms.maturity:
        raise ValueError("grid.maturity must match terms.maturity")
    z = np.geomspace(grid.z_min, grid.z_max, grid.n_z)
    t = np.linspace(grid.t_start, grid.maturity, grid.n_t + 1)
    d_s = np.diff(EffectiveVols(params, grid.maturity).sigma_bar_sq_integral(t))
    payoff = dilution_payoff(z, terms)

    h = grid.log_step
    a, c = 1.0 / h ** 2 + 0.5 / h, 1.0 / h ** 2 - 0.5 / h
    growth = math.log(a / c)
    n_in = grid.n_z - 2
    j = np.arange(grid.n_z)
    # ((a/c)^j - 1) / ((a/c)^(n_in+1) - 1), in a form that cannot overflow
    lift = payoff[-1] * np.exp((j - n_in - 1) * growth) * (
        np.expm1(-j * growth) / math.expm1(-(n_in + 1) * growth)
    )
    # (a/c)^(j/2) up to a constant factor, centred to stay in range on wide grids
    tilt = np.exp((j[1:-1] - 0.5 * (n_in + 1)) * (0.5 * growth))
    k = np.arange(1, n_in + 1)
    sines = _sine_matrix(n_in)
    eig = -2.0 / h ** 2 + 2.0 * math.sqrt(a * c) * np.cos(k * (math.pi / (n_in + 1)))
    start = sines @ ((payoff[1:-1] - lift[1:-1]) / tilt) * (2.0 / (n_in + 1))
    sines *= tilt

    # row m of coef: the factors of steps m .. n_t - 1 multiplied together,
    # step m spanning t[m] .. t[m+1], times the payoff's coordinates. It is
    # built and turned into the solution inside values, every update in place.
    values = np.empty((grid.n_t + 1, grid.n_z))
    coef = values[:-1, 1:-1]
    np.multiply.outer(d_s, eig, out=coef)
    n_cn = grid.n_t - 2 if scheme == "crank_nicolson" else 0
    cn, implicit = coef[:n_cn], coef[n_cn:]
    # with g = ds * eig: Crank-Nicolson (2 + g) / (2 - g) = 4 / (2 - g) - 1
    np.subtract(2.0, cn, out=cn)
    np.divide(4.0, cn, out=cn)
    cn -= 1.0
    np.subtract(1.0, implicit, out=implicit)  # implicit 1 / (1 - g)
    np.reciprocal(implicit, out=implicit)
    np.cumprod(coef[::-1], axis=0, out=coef[::-1])
    coef *= start
    for lo in range(0, grid.n_t, _BLOCK_ROWS):
        rows = coef[lo:lo + _BLOCK_ROWS]
        rows[...] = rows @ sines
    coef += lift[1:-1]
    values[:-1, 0] = 0.0
    values[:-1, -1] = payoff[-1]
    values[-1] = payoff
    if not np.all(np.isfinite(values)):
        raise InstabilityError("the march produced a non-finite value")
    return ThetaSurface(z_grid=z, t_grid=t, values=values)


def _central_steps(steps):
    h = tuple(float(s) for s in steps)
    if any(not np.isfinite(s) or s <= 0.0 for s in h):
        raise ValueError("finite-difference steps must be positive")
    return h


def residual_warrant_pde(price_fn, point, steps, params: ModelParams) -> float:
    """Pricing-equation defect of price_fn(V, r, t) at an interior point:

        W_t + sv~^2 V^2 W_VV + sr~^2 W_rr + 2 rho sr~ sv~ V W_Vr
            + mu_r t^(alpha-1)/Gamma(alpha) W_r + r V W_V - r W.

    Central differences with steps (h_v, h_r, h_t); needs t - h_t > 0 and
    V - h_v > 0 so every stencil point is interior.
    """
    v, r, t = (float(x) for x in point)
    h_v, h_r, h_t = _central_steps(steps)
    if t - h_t <= 0.0:
        raise ValueError("need t - h_t > 0: the coefficients are singular at t = 0")
    if v - h_v <= 0.0:
        raise ValueError("need V - h_v > 0")

    w = price_fn(v, r, t)
    w_t = (price_fn(v, r, t + h_t) - price_fn(v, r, t - h_t)) / (2.0 * h_t)
    w_vp, w_vm = price_fn(v + h_v, r, t), price_fn(v - h_v, r, t)
    w_rp, w_rm = price_fn(v, r + h_r, t), price_fn(v, r - h_r, t)
    w_v = (w_vp - w_vm) / (2.0 * h_v)
    w_vv = (w_vp - 2.0 * w + w_vm) / h_v ** 2
    w_r = (w_rp - w_rm) / (2.0 * h_r)
    w_rr = (w_rp - 2.0 * w + w_rm) / h_r ** 2
    w_vr = (
        price_fn(v + h_v, r + h_r, t)
        - price_fn(v + h_v, r - h_r, t)
        - price_fn(v - h_v, r + h_r, t)
        + price_fn(v - h_v, r - h_r, t)
    ) / (4.0 * h_v * h_r)

    sv2 = float(_tilde_sq(params.sigma_v, t, params))
    sr2 = float(_tilde_sq(params.sigma_r, t, params))
    drift = params.mu_r * t ** (params.alpha - 1.0) / gamma(params.alpha)
    return (
        w_t
        + sv2 * v ** 2 * w_vv
        + sr2 * w_rr
        + 2.0 * params.rho * math.sqrt(sr2 * sv2) * v * w_vr
        + drift * w_r
        + r * v * w_v
        - r * w
    )


def residual_bond_pde(price_fn, point, steps, params: ModelParams) -> float:
    """Pricing-equation defect of price_fn(r, t):

        P_t + mu_r t^(alpha-1)/Gamma(alpha) P_r + sr~^2 P_rr - r P.
    """
    r, t = (float(x) for x in point)
    h_r, h_t = _central_steps(steps)
    if t - h_t <= 0.0:
        raise ValueError("need t - h_t > 0: the coefficients are singular at t = 0")

    p = price_fn(r, t)
    p_t = (price_fn(r, t + h_t) - price_fn(r, t - h_t)) / (2.0 * h_t)
    p_rp, p_rm = price_fn(r + h_r, t), price_fn(r - h_r, t)
    p_r = (p_rp - p_rm) / (2.0 * h_r)
    p_rr = (p_rp - 2.0 * p + p_rm) / h_r ** 2

    sr2 = float(_tilde_sq(params.sigma_r, t, params))
    drift = params.mu_r * t ** (params.alpha - 1.0) / gamma(params.alpha)
    return p_t + drift * p_r + sr2 * p_rr - r * p
