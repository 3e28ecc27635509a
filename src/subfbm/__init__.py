"""Bond and warrant pricing under a subdiffusively time-changed
fractional Brownian market.

The asset follows geometric fBm and the short rate an arithmetic fBm,
both run on the inverse-stable clock T_alpha(t); closed-form prices,
their governing PDEs, exact path simulation, and classical-limit Monte
Carlo checks live in the submodules re-exported here.
"""

from .bond import BondQuote, bond_price, bond_price_classical, bond_price_fbs_limit, f1_general
from .mc import McConfig, McEstimate, RegimeError, mc_bond_classical, mc_warrant_classical
from .numerics import gamma, normal_cdf, rk4_solve
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
    correlated_fbm_pair,
    fbm_path,
    inverse_subordinator,
    one_sided_stable,
    simulate_paths,
    stable_subordinator_path,
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
    "RegimeError",
    "RngSeed",
    "SubdiffusivePath",
    "ThetaSurface",
    "WarrantTerms",
    "bond_price",
    "bond_price_classical",
    "bond_price_fbs_limit",
    "correlated_fbm_pair",
    "default_grid",
    "dilution_payoff",
    "f1_general",
    "fbm_path",
    "gamma",
    "inverse_subordinator",
    "mc_bond_classical",
    "mc_warrant_classical",
    "normal_cdf",
    "one_sided_stable",
    "rk4_solve",
    "residual_bond_pde",
    "residual_warrant_pde",
    "simulate_paths",
    "solve_theta_pde",
    "stable_subordinator_path",
    "variance_integral",
    "warrant_price",
    "warrant_value_forward",
    "__version__",
]
