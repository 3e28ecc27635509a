import importlib
import pkgutil

import subfbm


def test_public_names():
    assert sorted(subfbm.__all__) == [
        "BondQuote", "F1_VARIANTS", "GridSpec", "HorizonError", "McConfig", "McEstimate",
        "ModelParams", "PriceResult", "RngSeed", "SubdiffusivePath",
        "ThetaSurface", "WARRANT_VARIANTS", "WarrantTerms", "__version__", "bond_price",
        "default_grid", "dilution_payoff", "f1_general", "gamma", "mc_bond_classical",
        "mc_warrant_classical", "normal_cdf", "one_sided_stable", "residual_bond_pde",
        "residual_warrant_pde", "simulate_paths", "solve_theta_pde", "variance_integral",
        "warrant_price",
    ]


def test_all_names_resolve():
    # a stale name in a module's __all__ would be skipped silently by anything
    # that walks it, such as a tracer wrapping each public function
    modules = [importlib.import_module(f"subfbm.{m.name}")
               for m in pkgutil.iter_modules(subfbm.__path__)]
    for mod in [subfbm] + modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        for name in getattr(mod, "__all__", ()):
            defined_in = getattr(getattr(mod, name), "__module__", mod.__name__)
            if mod is not subfbm:
                assert defined_in == mod.__name__, (mod.__name__, name, defined_in)


def test_submodules_read_their_names_from_the_package():
    # subfbm._EXPORTS is the one list of public names; no submodule keeps its own copy
    for module, names in subfbm._EXPORTS.items():
        assert getattr(subfbm, module).__all__ == list(names), module
