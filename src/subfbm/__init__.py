"""Bond and warrant pricing under a subdiffusively time-changed
fractional Brownian market.

The asset follows geometric fBm and the short rate an arithmetic fBm,
both run on the inverse-stable clock T_alpha(t); closed-form prices,
their governing PDEs, path simulation (simulate_paths, which samples the
clock and the fBm pair together), and classical-limit Monte Carlo checks
live in the submodules re-exported here.
"""

from .bond import BondQuote, bond_price, bond_price_classical, f1_general
from .mc import McConfig, McEstimate, mc_bond_classical, mc_warrant_classical
from .numerics import gamma, normal_cdf
from .pde import (
    GridSpec,
    InstabilityError,
    ThetaSurface,
    default_grid,
    residual_bond_pde,
    residual_warrant_pde,
    solve_theta_pde,
)
from .processes import (
    HorizonError,
    ModelParams,
    RngSeed,
    SubdiffusivePath,
    one_sided_stable,
    simulate_paths,
)
from .warrant import (
    PriceResult,
    WarrantTerms,
    dilution_payoff,
    variance_integral,
    warrant_price,
    warrant_value_forward,
)

__version__ = "0.1.0"

__all__ = [
    "BondQuote",
    "GridSpec",
    "HorizonError",
    "InstabilityError",
    "McConfig",
    "McEstimate",
    "ModelParams",
    "PriceResult",
    "RngSeed",
    "SubdiffusivePath",
    "ThetaSurface",
    "WarrantTerms",
    "bond_price",
    "bond_price_classical",
    "default_grid",
    "dilution_payoff",
    "f1_general",
    "gamma",
    "mc_bond_classical",
    "mc_warrant_classical",
    "normal_cdf",
    "one_sided_stable",
    "residual_bond_pde",
    "residual_warrant_pde",
    "simulate_paths",
    "solve_theta_pde",
    "variance_integral",
    "warrant_price",
    "warrant_value_forward",
    "__version__",
]
