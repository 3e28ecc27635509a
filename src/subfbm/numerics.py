"""Scalar special functions, adaptive quadrature and an RK4 integrator.

Everything downstream (bond and warrant pricing, PDE coefficients) funnels
through this module, so the accuracy targets here are deliberately tighter
than anything the pricers need: gamma is the C library's (via math.gamma,
the domain restricted to x > 0), quadrature meets the tolerances carried in
QuadratureSpec.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "QuadratureSpec",
    "gamma",
    "normal_cdf",
    "integrate_singular",
    "integrate_adaptive",
    "rk4_solve",
]


class ConvergenceError(RuntimeError):
    """Adaptive quadrature ran out of subdivisions.

    Carries the best estimate so callers can decide whether the error bound
    is acceptable anyway.
    """

    def __init__(self, message, estimate, error_bound):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


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
    if math.isinf(x):
        return 1.0 if x > 0.0 else 0.0
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and the endpoint exponent for weighted integrals.

    singular_exponent is the alpha in the weight (b - v)^(alpha - 1); 1.0
    means no endpoint weight at all.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2 ** 16
    singular_exponent: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0) or not (0.0 < self.abs_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be positive")
        if not (0.0 < self.singular_exponent <= 1.0):
            raise ValueError(
                f"singular_exponent must lie in (0, 1], got {self.singular_exponent!r}"
            )


_DEFAULT_SPEC = QuadratureSpec()

# embedded Gauss-Legendre pair: the 7-point estimate is the error probe for
# the 15-point one on each panel
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)


def _vectorized(f, a, b):
    """Return a callable that accepts an ndarray of abscissae.

    Probes f with a two-point array inside (a, b); scalar-only callables get
    wrapped in a (slower) elementwise fallback.
    """
    probe = np.array([a + 0.3 * (b - a), a + 0.7 * (b - a)])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return f
    except Exception:
        pass
    return lambda xs: np.array([f(x) for x in xs], dtype=float)


def _panel(f, a, b):
    """15-point Gauss-Legendre estimate on [a, b] plus an error probe."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = np.concatenate((mid + half * _NODES_LO, mid + half * _NODES_HI))
    ys = f(xs)
    est_lo = half * np.dot(_WEIGHTS_LO, ys[:7])
    est_hi = half * np.dot(_WEIGHTS_HI, ys[7:])
    return est_hi, abs(est_hi - est_lo)


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec = None) -> float:
    """Integrate f over [a, b] by globally adaptive Gauss-Legendre.

    f must be finite on the open interval; endpoint behaviour as rough as
    |b - v|^(c) with c > 0 is handled by bisection toward the endpoint.
    Raises ConvergenceError (with the running estimate attached) once
    spec.max_subdivisions panels exist and the error bound still exceeds
    max(abs_tol, rel_tol * |integral|).
    """
    spec = spec or _DEFAULT_SPEC
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("integration limits must be finite")
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r} b={b!r}")
    if a == b:
        return 0.0

    fv = _vectorized(f, a, b)
    est, err = _panel(fv, a, b)
    if not np.isfinite(est):
        raise ValueError("integrand returned a non-finite value")
    # heap entries: (-err, tiebreak, a, b, est, err)
    counter = 0
    heap = [(-err, counter, a, b, est, err)]
    total, total_err = est, err
    n_panels = 1

    while total_err > max(spec.abs_tol, spec.rel_tol * abs(total)):
        if n_panels >= spec.max_subdivisions:
            raise ConvergenceError(
                f"quadrature did not converge after {n_panels} panels "
                f"(error bound {total_err:.3e})",
                estimate=total,
                error_bound=total_err,
            )
        _, _, pa, pb, pest, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:  # interval narrower than float spacing
            raise ConvergenceError(
                "quadrature stalled on an interval at float resolution",
                estimate=total,
                error_bound=total_err,
            )
        le, lerr = _panel(fv, pa, pm)
        re, rerr = _panel(fv, pm, pb)
        if not (np.isfinite(le) and np.isfinite(re)):
            raise ValueError("integrand returned a non-finite value")
        total += le + re - pest
        total_err += lerr + rerr - perr
        counter += 1
        heapq.heappush(heap, (-lerr, counter, pa, pm, le, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, pm, pb, re, rerr))
        n_panels += 1
    return float(total)


def integrate_singular(g, a: float, b: float, spec: QuadratureSpec = None) -> float:
    """Integral of g(v) * (b - v)^(alpha - 1) over [a, b].

    alpha = spec.singular_exponent. The substitution u = (b - v)^alpha is
    exact:

        int_a^b g(v) (b - v)^(alpha-1) dv
            = (1/alpha) * int_0^{(b-a)^alpha} g(b - u^(1/alpha)) du

    so the weight singularity at v = b never reaches the quadrature; what is
    left is Hoelder-smooth and the adaptive engine resolves it.
    """
    spec = spec or _DEFAULT_SPEC
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r} b={b!r}")
    if a == b:
        return 0.0
    alpha = spec.singular_exponent
    if alpha == 1.0:
        return integrate_adaptive(g, a, b, spec)
    gv = _vectorized(g, a, b)
    inv = 1.0 / alpha
    upper = (b - a) ** alpha

    def transformed(u):
        return gv(b - u ** inv)

    return integrate_adaptive(transformed, 0.0, upper, spec) / alpha


def rk4_solve(rhs, y0: float, grid) -> np.ndarray:
    """Classical fourth-order Runge-Kutta for a scalar ODE y' = rhs(t, y).

    Returns y evaluated at every node of `grid` (strictly increasing,
    grid[0] is the initial time). One RK4 step per grid interval; callers
    control accuracy through the grid.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("grid must contain at least two nodes")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    y = np.empty_like(t)
    y[0] = y0
    for i in range(t.size - 1):
        h = t[i + 1] - t[i]
        ti, yi = t[i], y[i]
        k1 = rhs(ti, yi)
        k2 = rhs(ti + 0.5 * h, yi + 0.5 * h * k1)
        k3 = rhs(ti + 0.5 * h, yi + 0.5 * h * k2)
        k4 = rhs(ti + h, yi + h * k3)
        y[i + 1] = yi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y[i + 1]):
            raise ValueError(f"rk4 produced a non-finite value at t={t[i + 1]!r}")
    return y
