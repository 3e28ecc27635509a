"""Command-line front end.

Four subcommands: `simulate` (sample one subdiffusive path to CSV),
`price-bond` and `price-warrant` (single quotes, or maturity/Hurst grids to
CSV with --sweep), and `validate` (cross-oracle check suite). One body,
driven by a per-command table of header, variants and row function, serves
both pricing commands. Parameter precedence is flags over a `key=value`
config file over built-in defaults; the defaults are the unit-parameter
market used throughout the docs (mu = sigma = r0 = V0 = 1, rho = 0.5,
alpha = 0.9, H = 0.7).

Exit codes: 0 on success, 1 on numeric or domain validation failures,
2 on usage errors. Output files are only written after every row has been
computed, so a failed run never leaves a partial file behind.
"""

import csv
import functools
import io
import json
import math
from dataclasses import asdict, replace
from pathlib import Path

import click

from .bond import F1_VARIANTS, bond_price
from .params import ModelParams
from .warrant import WARRANT_VARIANTS, WarrantTerms, warrant_price

_DEFAULTS = ModelParams()
_TERM_DEFAULTS = WarrantTerms()

_MODEL_FLAGS = (
    ("alpha", "time-change stability index in (1/2, 1]"),
    ("hurst", "Hurst exponent in [1/2, 1)"),
    ("mu-v", "asset log drift"),
    ("sigma-v", "asset volatility"),
    ("mu-r", "rate drift"),
    ("sigma-r", "rate volatility"),
    ("rho", "asset/rate driver correlation"),
    ("r0", "short rate at valuation"),
    ("v0", "firm value at valuation"),
)

_TERM_FLAGS = (
    ("shares-N", "shares_outstanding", "shares outstanding"),
    ("warrants-M", "warrants_outstanding", "warrants outstanding"),
    ("ratio-k", "shares_per_warrant", "shares delivered per warrant"),
    ("strike-X", "strike", "exercise price"),
)


def _model_options(fn):
    for flag, helptext in reversed(_MODEL_FLAGS):
        fn = click.option(f"--{flag}", flag.replace("-", "_"), type=float,
                          default=None, help=helptext)(fn)
    return fn


def _term_options(fn):
    for flag, dest, helptext in reversed(_TERM_FLAGS):
        fn = click.option(f"--{flag}", dest, type=float, default=None,
                          help=helptext)(fn)
    return fn


_FORMATS = ("csv", "tsv")


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(_FORMATS),
                      default=None, help="table format (default csv)")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="output file (default stdout)")(fn)
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="key=value file of defaults")(fn)
    return fn


def _wrap_errors(fn):
    # domain violations (processes.HorizonError among them, and inputs whose
    # float arithmetic overflows, which the pricers raise as ValueError too)
    # are exit-code-1 failures, distinct from click's own usage errors (2)
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            raise click.ClickException(str(exc))
    return wrapper


def _read_config(path):
    table = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        table[key.strip().replace("-", "_")] = value.strip()
    return table


def _resolve(flag_value, config, key, default, cast=float):
    if flag_value is not None:
        return flag_value
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            raise click.ClickException(f"config value {key}={config[key]!r} is not a {cast.__name__}")
    return default


def _build_params(config, flags):
    fields = {}
    for flag, _ in _MODEL_FLAGS:
        key = flag.replace("-", "_")
        fields[key] = _resolve(flags[key], config, key, getattr(_DEFAULTS, key))
    return ModelParams(**fields)


def _build_terms(config, flags, maturity):
    fields = {"maturity": maturity}
    for flag, dest, _ in _TERM_FLAGS:
        # config files use the flag vocabulary (strike-X), not field names
        fields[dest] = _resolve(flags[dest], config, flag.replace("-", "_"),
                                getattr(_TERM_DEFAULTS, dest))
    return WarrantTerms(**fields)


def _resolve_choice(flag_value, config, key, allowed):
    # a config value gets the check click.Choice gives the flag; "-" and "_"
    # are interchangeable, and the first allowed value is the default
    value = _resolve(flag_value, config, key, allowed[0], cast=str)
    token = value.replace("-", "_")
    if token not in allowed:
        choices = ", ".join(a.replace("_", "-") for a in allowed)
        raise click.ClickException(f"unknown {key} {value!r}, expected one of: {choices}")
    return token


def _cell(value):
    if isinstance(value, float):
        return repr(float(value))  # plain float repr even for numpy scalars
    return str(value)


def _emit_table(header, rows, out, fmt):
    # rows is a fully materialized list by the time we get here
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(c) for c in row])
    if out is None or out == "-":
        click.echo(buf.getvalue(), nl=False)
    else:
        Path(out).write_text(buf.getvalue())


_PLOT_HEADER = """\
#!/usr/bin/env python
# generated plotting companion; run with matplotlib installed
import csv
from collections import defaultdict

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open({csv_path!r}), delimiter={delimiter!r}))
"""

_PLOT_BODIES = {
    "path": """\
t = [float(r["t"]) for r in rows]
for col in ("T_alpha", "asset", "rate"):
    plt.plot(t, [float(r[col]) for r in rows], label=col)
plt.xlabel("t")
plt.legend()
plt.tight_layout()
plt.savefig({png_path!r}, dpi=150)
""",
    "sweep": """\
by_h = defaultdict(list)
for r in rows:
    by_h[r["H"]].append((float(r["T"]), float(r["price"])))
for h, pts in sorted(by_h.items()):
    pts.sort()
    plt.plot([p[0] for p in pts], [p[1] for p in pts], label=f"H={{h}}")
plt.xlabel("T")
plt.ylabel("price")
plt.legend()
plt.tight_layout()
plt.savefig({png_path!r}, dpi=150)
""",
}


def _write_plot_script(script_path, kind, csv_path, fmt):
    if csv_path is None or csv_path == "-":
        raise click.ClickException("--plot-script requires --out FILE so the script can find the data")
    png = str(Path(csv_path).with_suffix(".png"))
    delimiter = "," if fmt == "csv" else "\t"
    text = (_PLOT_HEADER.format(csv_path=str(csv_path), delimiter=delimiter)
            + _PLOT_BODIES[kind].format(png_path=png))
    Path(script_path).write_text(text)


@click.group()
def main():
    """Pricing toolkit for a subdiffusive fractional market model."""


@main.command(name="simulate")
@_model_options
@click.option("-T", "--T", "horizon", type=float, default=None, help="calendar horizon (default 1)")
@click.option("-n", "--steps", "n_steps", type=int, default=None, help="grid steps (default 1000)")
@click.option("--seed", type=int, default=None, help="rng seed (default 42)")
@click.option("--variant", type=click.Choice(["wick", "pathwise"]), default=None,
              help="asset convention: risk-neutralized (wick) or raw exponential")
@click.option("--plot-script", type=click.Path(dir_okay=False), default=None,
              help="also write a matplotlib companion script here")
@_output_options
@_wrap_errors
def cmd_simulate(config, out, fmt, plot_script, horizon, n_steps, seed, variant, **flags):
    """Sample one path of the time-changed asset and rate."""
    from .processes import RngSeed, simulate_paths

    cfg = _read_config(config) if config else {}
    params = _build_params(cfg, flags)
    horizon = _resolve(horizon, cfg, "T", 1.0)
    n_steps = _resolve(n_steps, cfg, "n", 1000, cast=int)
    seed = _resolve(seed, cfg, "seed", 42, cast=int)
    fmt = _resolve_choice(fmt, cfg, "format", _FORMATS)
    variant = _resolve_choice(variant, cfg, "variant", ("wick", "pathwise"))
    path = simulate_paths(params, horizon, n_steps, RngSeed(seed),
                          wick_correction=variant == "wick")
    rows = list(zip(path.t_grid.tolist(), path.t_alpha.tolist(),
                    path.asset.tolist(), path.rate.tolist()))
    _emit_table(("t", "T_alpha", "asset", "rate"), rows, out, fmt)
    if plot_script:
        _write_plot_script(plot_script, "path", out, fmt)


_SWEEP_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)


def _bond_row(params, terms, variant, t, maturity):
    quote = bond_price(params.r0, t, maturity, params, variant=variant)
    return maturity, params.hurst, params.alpha, quote.price


def _warrant_row(params, terms, variant, t, maturity):
    res = warrant_price(params.v0, params.r0, t, replace(terms, maturity=maturity), params,
                        variant=variant)
    return (maturity, params.hurst, params.alpha, params.rho,
            res.price, res.d1, res.d2, res.variant)


# per pricing command: table header, formula variants, one row per quote
_PRICERS = {
    "price-bond": (("T", "H", "alpha", "price"), F1_VARIANTS, _bond_row),
    "price-warrant": (("T", "H", "alpha", "rho", "price", "d1", "d2", "variant"),
                      WARRANT_VARIANTS, _warrant_row),
}


def _pricing_options(variants, variant_help):
    def decorate(fn):
        fn = click.option("--plot-script", type=click.Path(dir_okay=False), default=None,
                          help="with --sweep, also write a matplotlib companion script here")(fn)
        fn = click.option("--t-max", type=float, default=None,
                          help="largest sweep maturity (default 2)")(fn)
        fn = click.option("--points", type=int, default=None,
                          help="sweep maturity grid size (default 200)")(fn)
        fn = click.option("--sweep", is_flag=True,
                          help="tabulate a maturity/Hurst grid instead of one quote")(fn)
        fn = click.option("--variant", type=click.Choice([v.replace("_", "-") for v in variants]),
                          default=None, help=variant_help)(fn)
        fn = click.option("-T", "--T", "maturity", type=float, default=None,
                          help="maturity (default 1)")(fn)
        return click.option("--t", "t", type=float, default=None,
                            help="valuation time (default 0)")(fn)
    return decorate


def _price(command, config, out, fmt, t, maturity, variant, sweep, points, t_max, plot_script,
           **flags):
    header, variants, row = _PRICERS[command]
    cfg = _read_config(config) if config else {}
    params = _build_params(cfg, flags)
    t = _resolve(t, cfg, "t", 0.0)
    maturity = _resolve(maturity, cfg, "T", 1.0)
    fmt = _resolve_choice(fmt, cfg, "format", _FORMATS)
    variant = _resolve_choice(variant, cfg, "variant", variants)
    # only price-warrant takes the contract-term flags
    terms = _build_terms(cfg, flags, maturity) if "strike" in flags else None
    if not sweep:
        if plot_script:
            raise click.UsageError("--plot-script needs --sweep")
        quote = row(params, terms, variant, t, maturity)
        if out is None:
            click.echo(repr(quote[header.index("price")]))
        else:
            _emit_table(header, [quote], out, fmt)
        return
    points = _resolve(points, cfg, "points", 200, cast=int)
    t_max = _resolve(t_max, cfg, "t_max", 2.0)
    if points < 1:
        raise click.ClickException("--points must be at least 1")
    if t_max <= 0.0:
        raise click.ClickException("--t-max must be positive")
    rows = []
    for hurst in _SWEEP_HURSTS:
        p = replace(params, hurst=hurst)
        rows += [row(p, terms, variant, 0.0, t_max * (i + 1) / points) for i in range(points)]
    _emit_table(header, rows, out, fmt)
    if plot_script:
        _write_plot_script(plot_script, "sweep", out, fmt)


@main.command(name="price-bond")
@_model_options
@_pricing_options(F1_VARIANTS, "drift-term coefficient convention")
@_output_options
@_wrap_errors
def cmd_price_bond(**kwargs):
    """Price the zero-coupon bond; prints the price unless --out is given."""
    _price("price-bond", **kwargs)


@main.command(name="price-warrant")
@_model_options
@_term_options
@_pricing_options(WARRANT_VARIANTS, "strike-leg discounting convention")
@_output_options
@_wrap_errors
def cmd_price_warrant(**kwargs):
    """Price the dilution-adjusted warrant; prints the price unless --out is given."""
    _price("price-warrant", **kwargs)


@main.command(name="validate")
@click.option("--quick", is_flag=True, help="smaller sample sizes, same checks")
@click.option("--variant", type=click.Choice(["derivation-consistent", "paper-literal"]),
              default="derivation-consistent",
              help="warrant formula fed to the checks; the literal one fails them")
@click.option("--seed", type=int, default=0,
              help="rng seed for the stochastic checks; their limits are 3 sigma, so "
                   "correct code fails some seeds (6 of 0-149 with --quick)")
@click.option("--json", "as_json", is_flag=True,
              help="one JSON object per check and line instead of the table")
@click.pass_context
@_wrap_errors
def cmd_validate(ctx, quick, variant, seed, as_json):
    """Run every cross-oracle check and exit nonzero if any fails."""
    from . import validation

    results = validation.run_checks(quick=quick, variant=variant.replace("-", "_"),
                                    seed=seed)
    failures = sum(not r.passed for r in results)
    if as_json:
        for r in results:
            click.echo(json.dumps(asdict(r)))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            tag = "PASS" if r.passed else "FAIL"
            click.echo(f"{tag}  {r.name:<{width}}  target: {r.target}  "
                       f"observed: {r.observed}  tol: {r.tolerance}")
        click.echo(f"{len(results) - failures} of {len(results)} checks passed")
    if failures:
        ctx.exit(1)


if __name__ == "__main__":
    main()
