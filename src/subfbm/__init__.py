"""Bond and warrant pricing under a subdiffusively time-changed
fractional Brownian market.

The asset follows geometric fBm and the short rate an arithmetic fBm,
both run on the inverse-stable clock T_alpha(t); closed-form prices,
their governing PDEs, path simulation (simulate_paths, which samples the
clock and the fBm pair together), and classical-limit Monte Carlo checks
live in the submodules re-exported here.

The names below, and the submodules that define them (subfbm.warrant and
the like), are resolved on first use (PEP 562), so `import subfbm` loads no
submodule and pricing alone (ModelParams, bond_price, warrant_price, ...)
never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bond": ("BondQuote", "bond_price", "bond_price_classical", "f1_general"),
    "mc": ("McConfig", "McEstimate", "mc_bond_classical", "mc_warrant_classical"),
    "numerics": ("gamma", "normal_cdf"),
    "params": ("ModelParams",),
    "pde": ("GridSpec", "InstabilityError", "ThetaSurface", "default_grid",
            "residual_bond_pde", "residual_warrant_pde", "solve_theta_pde"),
    "processes": ("HorizonError", "RngSeed", "SubdiffusivePath", "one_sided_stable",
                  "simulate_paths"),
    "warrant": ("PriceResult", "WarrantTerms", "dilution_payoff", "variance_integral",
                "warrant_price", "warrant_value_forward"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:  # subfbm.warrant and the like; importing sets the attribute
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
