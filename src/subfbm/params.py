"""Model parameters of the joint asset/short-rate market.

Standard library only, so that pricing (bond and warrant) imports no numpy.
"""

import math
from dataclasses import dataclass

__all__ = ["ModelParams"]


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
