"""Command-line front end.

Four subcommands: `simulate` (sample one subdiffusive path to CSV),
`price-bond` and `price-warrant` (single quotes, or maturity/Hurst grids to
CSV with --sweep), and `validate` (cross-oracle check suite). One body,
driven by a per-command table of header and row function, serves both
pricing commands. Each option declares its type, default and choices once;
the model and contract defaults are the `ModelParams` and `WarrantTerms`
field defaults, the unit-parameter market used throughout the docs
(mu = sigma = r0 = V0 = 1, rho = 0.5, alpha = 0.9, H = 0.7). A `key=value`
config file fills click's default map, so click itself takes a flag over
the file and the file over the built-in default.

Exit codes: 0 on success, 1 on numeric or domain validation failures, on
a bad config file and on a file that cannot be written, 2 on usage errors.
Output files are only written after every row has been computed, so a
failed run never leaves a partial file behind.
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

# (flag, field, help) rows of the float options that fill ModelParams and WarrantTerms
_MODEL_FLAGS = (
    ("alpha", "alpha", "time-change stability index in (1/2, 1]"),
    ("hurst", "hurst", "Hurst exponent in [1/2, 1)"),
    ("mu-v", "mu_v", "asset log drift"),
    ("sigma-v", "sigma_v", "asset volatility"),
    ("mu-r", "mu_r", "rate drift"),
    ("sigma-r", "sigma_r", "rate volatility"),
    ("rho", "rho", "asset/rate driver correlation"),
    ("r0", "r0", "short rate at valuation"),
    ("v0", "v0", "firm value at valuation"),
)

_TERM_FLAGS = (
    ("shares-N", "shares_outstanding", "shares outstanding"),
    ("warrants-M", "warrants_outstanding", "warrants outstanding"),
    ("ratio-k", "shares_per_warrant", "shares delivered per warrant"),
    ("strike-X", "strike", "exercise price"),
)


def _float_options(flags, defaults):
    # one --flag per row, defaulting to the field of the dataclass `defaults`
    def decorate(fn):
        for flag, dest, helptext in reversed(flags):
            fn = click.option(f"--{flag}", dest, type=float, default=getattr(defaults, dest),
                              help=helptext)(fn)
        return fn
    return decorate


def _variant_option(variants, helptext):
    # the library's variant names with "-" for "_"; the first is the default
    words = [v.replace("_", "-") for v in variants]
    return click.option("--variant", type=click.Choice(words), default=words[0], help=helptext)


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


def _config_options(command):
    """The options a config file can set for `command`, by config key: every
    option but on/off flags and file paths, keyed by its first flag without
    the dashes and with "-" read as "_" (-T is T, --strike-X is strike_X)."""
    return {opt.opts[0].lstrip("-").replace("-", "_"): opt for opt in command.params
            if not (opt.is_flag or isinstance(opt.type, click.Path))}


def _convert(opt, key, text, ctx):
    # the option's own type checks a config value; "-" and "_" are one in a choice
    kind = opt.type
    choice = isinstance(kind, click.Choice)
    try:
        return kind.convert(text.replace("_", "-") if choice else text, opt, ctx)
    except click.BadParameter:
        if choice:
            raise click.ClickException(
                f"unknown {key} {text!r}, expected one of: {', '.join(kind.choices)}")
        article = "an" if kind.name[0] in "aeiou" else "a"
        raise click.ClickException(f"config value {key}={text!r} is not {article} {kind.name}")


@_wrap_errors  # a file that is not UTF-8 text
def _load_config(ctx, param, path):
    """Callback of the eager --config: read the key=value file, convert each
    value with its option's type and put it in ctx.default_map, below the
    flags and above the declared defaults. Every value is checked, also one
    a flag overrides. A key that no command reads is an error, so a typo
    (sigma-V) or a field name (strike for strike-X) cannot price the default
    market; a key that only another command reads is skipped."""
    if path is None:
        return
    known = {key for command in main.commands.values()
             if any(p.name == "config" for p in command.params)
             for key in _config_options(command)}
    own = _config_options(ctx.command)
    defaults = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.ClickException(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        name = key.replace("-", "_")
        if name not in known:
            raise click.ClickException(f"{path}:{lineno}: unknown config key {key!r}")
        if name in own:
            defaults[own[name].name] = _convert(own[name], name, value.strip(), ctx)
    ctx.default_map = {**(ctx.default_map or {}), **defaults}


def _output_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["csv", "tsv"]), default="csv",
                      help="table format (default csv)")(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False),
                      help="output file (default stdout)")(fn)
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      is_eager=True, expose_value=False, callback=_load_config,
                      help="key=value file of defaults")(fn)
    return fn


def _write(path, text):
    # a missing directory or an unwritable file ends the run with exit 1
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise click.ClickException(f"cannot write {path}: {exc.strerror or exc}")


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
        _write(out, buf.getvalue())


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
    _write(script_path, text)


@click.group()
def main():
    """Pricing toolkit for a subdiffusive fractional market model."""


@main.command(name="simulate")
@_float_options(_MODEL_FLAGS, ModelParams)
@click.option("-T", "--T", "horizon", type=float, default=1.0, help="calendar horizon (default 1)")
@click.option("-n", "--steps", "n_steps", type=int, default=1000, help="grid steps (default 1000)")
@click.option("--seed", type=int, default=42, help="rng seed (default 42)")
@_variant_option(("wick", "pathwise"),
                 "asset convention: risk-neutralized (wick) or raw exponential")
@click.option("--plot-script", type=click.Path(dir_okay=False),
              help="also write a matplotlib companion script here")
@_output_options
@_wrap_errors
def cmd_simulate(out, fmt, plot_script, horizon, n_steps, seed, variant, **flags):
    """Sample one path of the time-changed asset and rate."""
    from .processes import RngSeed, simulate_paths

    path = simulate_paths(ModelParams(**flags), horizon, n_steps, RngSeed(seed),
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
    # terms already carry the maturity
    res = warrant_price(params.v0, params.r0, t, terms, params, variant=variant)
    return (maturity, params.hurst, params.alpha, params.rho,
            res.price, res.d1, res.d2, res.variant)


# per pricing command: table header, one row per quote
_PRICERS = {
    "price-bond": (("T", "H", "alpha", "price"), _bond_row),
    "price-warrant": (("T", "H", "alpha", "rho", "price", "d1", "d2", "variant"), _warrant_row),
}


def _pricing_options(variants, variant_help):
    def decorate(fn):
        fn = click.option("--plot-script", type=click.Path(dir_okay=False),
                          help="with --sweep, also write a matplotlib companion script here")(fn)
        fn = click.option("--t-max", type=float, default=2.0,
                          help="largest sweep maturity (default 2)")(fn)
        fn = click.option("--points", type=int, default=200,
                          help="sweep maturity grid size (default 200)")(fn)
        fn = click.option("--sweep", is_flag=True,
                          help="tabulate a maturity/Hurst grid instead of one quote")(fn)
        fn = _variant_option(variants, variant_help)(fn)
        fn = click.option("-T", "--T", "maturity", type=float, default=1.0,
                          help="maturity (default 1)")(fn)
        return click.option("--t", "t", type=float, default=0.0,
                            help="valuation time (default 0)")(fn)
    return decorate


def _price(command, out, fmt, t, maturity, variant, sweep, points, t_max, plot_script, **flags):
    header, row = _PRICERS[command]
    # only price-warrant takes the contract-term flags
    term_fields = {dest: flags.pop(dest) for _, dest, _ in _TERM_FLAGS if dest in flags}
    params = ModelParams(**flags)
    terms = WarrantTerms(**term_fields, maturity=maturity) if term_fields else None
    variant = variant.replace("-", "_")
    if not sweep:
        if plot_script:
            raise click.UsageError("--plot-script needs --sweep")
        quote = row(params, terms, variant, t, maturity)
        if out is None:
            click.echo(repr(quote[header.index("price")]))
        else:
            _emit_table(header, [quote], out, fmt)
        return
    if points < 1:
        raise click.ClickException("--points must be at least 1")
    if not 0.0 < t_max < math.inf:  # false for nan and inf too
        raise click.ClickException(f"--t-max must be finite and positive, got {t_max!r}")
    # (maturity, its terms) per grid point, each built at its first row, so a
    # sweep fails at its first bad row in row order
    grid, rows = [], []
    for hurst in _SWEEP_HURSTS:
        p = replace(params, hurst=hurst)
        for i in range(points):
            if i == len(grid):
                m = t_max * (i + 1) / points
                grid.append((m, None if terms is None else replace(terms, maturity=m)))
            m, m_terms = grid[i]
            rows.append(row(p, m_terms, variant, 0.0, m))
    _emit_table(header, rows, out, fmt)
    if plot_script:
        _write_plot_script(plot_script, "sweep", out, fmt)


@main.command(name="price-bond")
@_float_options(_MODEL_FLAGS, ModelParams)
@_pricing_options(F1_VARIANTS, "drift-term coefficient convention")
@_output_options
@_wrap_errors
def cmd_price_bond(**kwargs):
    """Price the zero-coupon bond; prints the price unless --out is given."""
    _price("price-bond", **kwargs)


@main.command(name="price-warrant")
@_float_options(_MODEL_FLAGS, ModelParams)
@_float_options(_TERM_FLAGS, WarrantTerms)
@_pricing_options(WARRANT_VARIANTS, "strike-leg discounting convention")
@_output_options
@_wrap_errors
def cmd_price_warrant(**kwargs):
    """Price the dilution-adjusted warrant; prints the price unless --out is given."""
    _price("price-warrant", **kwargs)


@main.command(name="validate")
@click.option("--quick", is_flag=True, help="smaller sample sizes, same checks")
@_variant_option(WARRANT_VARIANTS, "warrant formula fed to the checks; the literal one fails them")
@click.option("--seed", type=int, default=0,
              help="rng seed for the stochastic checks; their limits are 3 sigma, so "
                   "correct code fails some seeds (3 of 0-149 with --quick)")
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
