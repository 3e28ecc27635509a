import csv
import hashlib
import json
import math
import runpy
import sys
import types

import pytest
from click.testing import CliRunner

from subfbm import ModelParams, WarrantTerms, cli
from subfbm.bond import bond_price
from subfbm.cli import main
from subfbm.warrant import warrant_price


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def pyplot_calls(monkeypatch):
    """Stand-in matplotlib whose pyplot records every call as (name, args)."""
    calls = []
    plt = types.ModuleType("matplotlib.pyplot")
    plt.__getattr__ = lambda name: lambda *args, **kwargs: calls.append((name, args))
    mpl = types.ModuleType("matplotlib")
    mpl.pyplot = plt
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    return calls


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_deterministic_reruns_byte_identical(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            res = runner.invoke(main, ["simulate", "--seed", "42", "-T", "1",
                                       "-n", "1000", "--out", str(out)])
            assert res.exit_code == 0, res.output
        assert out1.read_bytes() == out2.read_bytes()

    def test_header_and_anchors(self, runner, tmp_path):
        out = tmp_path / "p.csv"
        res = runner.invoke(main, ["simulate", "--seed", "1", "-n", "50", "--out", str(out)])
        assert res.exit_code == 0
        rows = _rows(out)
        assert list(rows[0].keys()) == ["t", "T_alpha", "asset", "rate"]
        assert len(rows) == 51
        assert float(rows[0]["t"]) == 0.0 and float(rows[0]["T_alpha"]) == 0.0
        assert float(rows[0]["asset"]) == 1.0 and float(rows[0]["rate"]) == 1.0

    def test_stdout_and_tsv(self, runner):
        res = runner.invoke(main, ["simulate", "-n", "10", "--format", "tsv"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "t\tT_alpha\tasset\trate"

    def test_seed_changes_output(self, runner):
        a = runner.invoke(main, ["simulate", "--seed", "1", "-n", "20"]).output
        b = runner.invoke(main, ["simulate", "--seed", "2", "-n", "20"]).output
        assert a != b

    def test_vol_free_classical_columns_are_deterministic(self, runner):
        # sigma_v = sigma_r = 0, alpha = 1: asset = e^t, rate = 1 + t exactly
        res = runner.invoke(main, ["simulate", "--sigma-v", "0", "--sigma-r", "0",
                                   "--alpha", "1", "-n", "8", "-T", "1"])
        assert res.exit_code == 0
        for line in res.output.splitlines()[1:]:
            t, t_alpha, asset, rate = map(float, line.split(","))
            assert t_alpha == t
            assert asset == pytest.approx(math.exp(t), rel=1e-12)
            assert rate == pytest.approx(1.0 + t, rel=1e-12)

    def test_flat_segments_present(self, runner, tmp_path):
        # alpha = 0.9 trapping must show up as runs of identical asset values
        out = tmp_path / "p.csv"
        runner.invoke(main, ["simulate", "--seed", "42", "-n", "1000", "--out", str(out)])
        assets = [r["asset"] for r in _rows(out)]
        run, longest = 1, 1
        for a, b in zip(assets, assets[1:]):
            run = run + 1 if a == b else 1
            longest = max(longest, run)
        assert longest >= 5

    def test_plot_script_requires_out(self, runner, tmp_path):
        res = runner.invoke(main, ["simulate", "-n", "10",
                                   "--plot-script", str(tmp_path / "s.py")])
        assert res.exit_code == 1
        assert not (tmp_path / "s.py").exists()

    def test_plot_script_written(self, runner, tmp_path):
        out, script = tmp_path / "p.csv", tmp_path / "s.py"
        res = runner.invoke(main, ["simulate", "-n", "10", "--out", str(out),
                                   "--plot-script", str(script)])
        assert res.exit_code == 0
        text = script.read_text()
        assert "matplotlib" in text and str(out) in text
        compile(text, str(script), "exec")


class TestPriceBond:
    def test_par_bond_prints_one(self, runner):
        res = runner.invoke(main, ["price-bond", "--t", "1", "--T", "1"])
        assert res.exit_code == 0
        assert res.output == "1.0\n"

    def test_classical_value(self, runner):
        res = runner.invoke(main, ["price-bond", "--alpha", "1", "--hurst", "0.5"])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-12)

    def test_matches_library(self, runner):
        res = runner.invoke(main, ["price-bond", "--T", "1.5", "--r0", "0.7"])
        want = bond_price(0.7, 0.0, 1.5, ModelParams()).price
        assert float(res.output) == want

    def test_sweep_mode(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        res = runner.invoke(main, ["price-bond", "--sweep", "--points", "4",
                                   "--out", str(out)])
        assert res.exit_code == 0
        rows = _rows(out)
        assert list(rows[0].keys()) == ["T", "H", "alpha", "price"]
        assert len(rows) == 20  # 4 maturities x 5 Hurst values
        assert {r["H"] for r in rows} == {"0.5", "0.6", "0.7", "0.8", "0.9"}
        assert all(float(r["price"]) > 0.0 for r in rows)

    def test_t_beyond_maturity_fails_cleanly(self, runner):
        res = runner.invoke(main, ["price-bond", "--t", "2", "--T", "1"])
        assert res.exit_code == 1

    def test_usage_errors_exit_two(self, runner):
        assert runner.invoke(main, ["price-bond", "--no-such-flag", "1"]).exit_code == 2
        assert runner.invoke(main, ["price-bond", "--alpha", "abc"]).exit_code == 2
        assert runner.invoke(main, ["price-bond", "--variant", "bogus"]).exit_code == 2


class TestPriceWarrant:
    def test_black_scholes_market(self, runner):
        res = runner.invoke(main, [
            "price-warrant", "--alpha", "1", "--hurst", "0.5", "--sigma-r", "0",
            "--mu-r", "0", "--rho", "0", "--sigma-v", "0.2", "--r0", "0.05",
            "--v0", "100", "--strike-X", "100", "--warrants-M", "0"])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(10.450583572185565, abs=1e-10)

    def test_expiry_payoff(self, runner):
        res = runner.invoke(main, ["price-warrant", "--t", "1", "--T", "1",
                                   "--v0", "3", "--strike-X", "2"])
        assert float(res.output) == pytest.approx(0.5)

    def test_sweep_schema_and_roundtrip(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        res = runner.invoke(main, ["price-warrant", "--sweep", "--points", "5",
                                   "--out", str(out)])
        assert res.exit_code == 0
        rows = _rows(out)
        assert list(rows[0].keys()) == ["T", "H", "alpha", "rho", "price",
                                        "d1", "d2", "variant"]
        assert len(rows) == 25
        # CSV must round-trip: repricing from the stored columns reproduces
        # the stored price bit for bit
        for row in rows[::6]:
            p = ModelParams(alpha=float(row["alpha"]), hurst=float(row["H"]),
                            rho=float(row["rho"]))
            terms = WarrantTerms(maturity=float(row["T"]))
            res2 = warrant_price(p.v0, p.r0, 0.0, terms, p, variant=row["variant"])
            assert res2.price == float(row["price"])
            assert res2.d1 == float(row["d1"]) and res2.d2 == float(row["d2"])

    def test_paper_literal_variant_flag(self, runner):
        lit = runner.invoke(main, ["price-warrant", "--variant", "paper-literal"])
        def_ = runner.invoke(main, ["price-warrant"])
        assert lit.exit_code == def_.exit_code == 0
        assert float(lit.output) > float(def_.output)


@pytest.mark.parametrize("argv,message", [
    (["price-bond", "--r0", "-1000"], "bond price overflows"),
    (["price-warrant", "--r0", "-1000"], "bond price overflows"),
    (["price-warrant", "--r0", "1000"], "bond price underflows to 0"),
])
def test_extreme_rate_fails_cleanly(runner, argv, message):
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a click error, no traceback
    assert res.output.startswith("Error: ") and message in res.output


class TestSweepCommand:
    """The --sweep form of price-bond and price-warrant."""

    def test_warrant_target_stdout(self, runner):
        res = runner.invoke(main, ["price-warrant", "--sweep", "--points", "2"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "T,H,alpha,rho,price,d1,d2,variant"

    def test_failure_leaves_no_file(self, runner, tmp_path):
        out = tmp_path / "never.csv"
        res = runner.invoke(main, ["price-bond", "--sweep", "--points", "3",
                                   "--alpha", "0.6", "--out", str(out)])
        assert res.exit_code == 1
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["price-bond", "price-warrant"])
    def test_plot_script_names_csv(self, runner, tmp_path, cmd):
        out, script = tmp_path / "s.csv", tmp_path / "plot.py"
        res = runner.invoke(main, [cmd, "--sweep", "--points", "2", "--out", str(out),
                                   "--plot-script", str(script)])
        assert res.exit_code == 0, res.output
        text = script.read_text()
        assert repr(str(out)) in text and repr(str(out.with_suffix(".png"))) in text
        compile(text, str(script), "exec")

    @pytest.mark.parametrize("cmd", ["price-bond", "price-warrant"])
    @pytest.mark.parametrize("argv, message", [
        (["--t-max", "-1"], "--t-max must be finite and positive, got -1.0"),
        (["--t-max", "nan"], "--t-max must be finite and positive, got nan"),
        (["--t-max", "inf"], "--t-max must be finite and positive, got inf"),
        (["--points", "0"], "--points must be at least 1"),
    ])
    def test_bad_grid_names_its_flag(self, runner, cmd, argv, message):
        res = runner.invoke(main, [cmd, "--sweep", *argv])
        assert res.exit_code == 1
        assert res.output == f"Error: {message}\n"

    def test_warrant_sweep_builds_one_terms_per_maturity(self, runner, monkeypatch):
        # the flags' terms, then one per maturity shared by the five Hurst rows
        built = []
        check = WarrantTerms.__post_init__

        def counted(self):
            built.append(self.maturity)
            check(self)

        monkeypatch.setattr(WarrantTerms, "__post_init__", counted)
        res = runner.invoke(main, ["price-warrant", "--sweep", "--points", "4"])
        assert res.exit_code == 0, res.output
        assert built == [1.0, 0.5, 1.0, 1.5, 2.0]
        assert hashlib.sha256(res.output.encode()).hexdigest() == (
            "1e9522e1627b86e77ce638281c15000852e7e519746dfc9b33de2ffd1409de34")

    @pytest.mark.parametrize("argv, message", [
        # the first Hurst of the sweep breaks the admissibility condition
        (["--alpha", "0.6"], "need alpha*(1+hurst) > 1 when alpha < 1, got alpha=0.6 hurst=0.5"),
        # the first maturity, 5e307, overflows the variance integral before
        # the second, 2 * 1e308 / 2 = inf, reaches the contract terms
        (["--points", "2", "--t-max", "1e308"],
         "the variance integral overflows at maturity=5e+307: the inputs are out of "
         "float range (Numerical result out of range)"),
    ])
    def test_warrant_sweep_fails_at_its_first_bad_row(self, runner, argv, message):
        res = runner.invoke(main, ["price-warrant", "--sweep", *argv])
        assert res.exit_code == 1
        assert res.output == f"Error: {message}\n"

    def test_plot_script_needs_sweep(self, runner, tmp_path):
        res = runner.invoke(main, ["price-bond", "--out", str(tmp_path / "b.csv"),
                                   "--plot-script", str(tmp_path / "plot.py")])
        assert res.exit_code == 2
        assert not (tmp_path / "plot.py").exists()


@pytest.mark.parametrize("fmt", ["csv", "tsv"])
@pytest.mark.parametrize("argv, lines, points", [
    (["simulate", "-n", "20"], 3, 21),
    (["price-warrant", "--sweep", "--points", "3"], 5, 3),
], ids=["simulate", "sweep"])
def test_plot_script_runs(runner, tmp_path, pyplot_calls, argv, lines, points, fmt):
    out, script = tmp_path / f"table.{fmt}", tmp_path / "plot.py"
    res = runner.invoke(main, argv + ["--format", fmt, "--out", str(out),
                                      "--plot-script", str(script)])
    assert res.exit_code == 0, res.output
    runpy.run_path(str(script))
    curves = [args for name, args in pyplot_calls if name == "plot"]
    assert len(curves) == lines
    assert all(len(x) == len(y) == points for x, y in curves)
    assert ("savefig", (str(out.with_suffix(".png")),)) in pyplot_calls


class TestConfigPrecedence:
    def test_config_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("alpha=1\nhurst=0.5\nsigma-r = 0  # deterministic rate\n"
                       "mu-r=0\nrho=0\nsigma_v=0.2\nr0=0.05\nv0=100\n"
                       "strike-X=100\nwarrants-M=0\n")
        res = runner.invoke(main, ["price-warrant", "--config", str(cfg)])
        assert res.exit_code == 0
        assert float(res.output) == pytest.approx(10.450583572185565, abs=1e-10)

    def test_flag_beats_config(self, runner, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("alpha=1\nhurst=0.5\nT=2\n")
        with_cfg = runner.invoke(main, ["price-bond", "--config", str(cfg)])
        override = runner.invoke(main, ["price-bond", "--config", str(cfg), "--T", "1"])
        assert float(with_cfg.output) == pytest.approx(
            bond_price(1.0, 0.0, 2.0, ModelParams(alpha=1.0, hurst=0.5)).price)
        assert float(override.output) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-12)

    def test_malformed_config_fails(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.9\n")
        assert runner.invoke(main, ["price-bond", "--config", str(cfg)]).exit_code == 1
        cfg.write_text("alpha=zebra\n")
        assert runner.invoke(main, ["price-bond", "--config", str(cfg)]).exit_code == 1

    @pytest.mark.parametrize("command", ["price-bond", "price-warrant", "simulate"])
    def test_config_choices_are_checked(self, runner, tmp_path, command):
        # a config value outside the flag's choices fails like a bad variant,
        # and writes nothing
        out = tmp_path / "o.csv"
        codes = []
        for line in ("variant=bogus", "format=json"):
            cfg = tmp_path / "c.cfg"
            cfg.write_text(line + "\n")
            res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
            assert "unknown " + line.split("=")[0] in res.output
            codes.append(res.exit_code)
        assert codes == [1, 1]
        assert not out.exists()

    def test_unknown_config_key_fails(self, runner, tmp_path):
        # a misspelt key (sigma-V) or a field name in place of the flag
        # (strike for strike-X) would otherwise price the default market
        out = tmp_path / "o.csv"
        cfg = tmp_path / "c.cfg"
        for text, lineno, key in (("alpha=1\nsigma-V = 0.05\n", 2, "sigma-V"),
                                  ("# contract\nalpha=1\n\nstrike = 2\n", 4, "strike")):
            cfg.write_text(text)
            res = runner.invoke(main, ["price-warrant", "--config", str(cfg), "--out", str(out)])
            assert res.exit_code == 1
            assert f"{cfg}:{lineno}: unknown config key {key!r}" in res.output
            assert not out.exists()

    def test_keys_of_other_commands_are_allowed(self, runner, tmp_path):
        # one file can serve every command: price-bond ignores strike-X and n
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha=1\nhurst=0.5\nstrike-X=2\nn=50\nseed=3\n")
        res = runner.invoke(main, ["price-bond", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert float(res.output) == bond_price(1.0, 0.0, 1.0, ModelParams(alpha=1.0, hurst=0.5)).price

    def test_missing_config_exits_two(self, runner, tmp_path):
        res = runner.invoke(main, ["price-bond", "--config", str(tmp_path / "none.cfg")])
        assert res.exit_code == 2

    def test_config_keys_are_the_options(self):
        # every option of a command that takes --config, but on/off flags and
        # file paths, under its first flag with "-" read as "_"
        keys = {key for command in main.commands.values()
                if any(p.name == "config" for p in command.params)
                for key in cli._config_options(command)}
        assert sorted(keys) == [
            "T", "alpha", "format", "hurst", "mu_r", "mu_v", "n", "points", "r0", "ratio_k",
            "rho", "seed", "shares_N", "sigma_r", "sigma_v", "strike_X", "t", "t_max", "v0",
            "variant", "warrants_M"]

    @pytest.mark.parametrize("key", ["out", "config", "plot-script", "plot_script", "sweep"])
    def test_paths_and_flags_are_not_config_keys(self, runner, tmp_path, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = x\n")
        for command in ("simulate", "price-bond", "price-warrant"):
            res = runner.invoke(main, [command, "--config", str(cfg)])
            assert res.exit_code == 1
            assert f"{cfg}:1: unknown config key {key!r}" in res.output

    @pytest.mark.parametrize("line, flag, message", [
        ("alpha=zebra", ["--alpha", "1"], "config value alpha='zebra' is not a float"),
        ("n=3.5", ["-n", "4"], "config value n='3.5' is not an integer"),
        ("seed=x", ["--seed", "1"], "config value seed='x' is not an integer"),
        ("format=json", ["--format", "csv"], "unknown format 'json', expected one of: csv, tsv"),
    ])
    def test_bad_value_fails_under_a_flag(self, runner, tmp_path, line, flag, message):
        # the file is checked whole, so a flag over a malformed key does not
        # hide it
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["simulate", "--config", str(cfg)] + flag)
        assert res.exit_code == 1
        assert res.output == f"Error: {message}\n"

    def test_choice_takes_underscores(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("variant = paper_literal\n")
        lit = runner.invoke(main, ["price-warrant", "--config", str(cfg)])
        flag = runner.invoke(main, ["price-warrant", "--variant", "paper-literal"])
        assert lit.exit_code == 0 and lit.output == flag.output

    def test_undecodable_config_fails(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"alpha = \xff\n")
        res = runner.invoke(main, ["price-bond", "--config", str(cfg)])
        assert res.exit_code == 1
        assert res.output.startswith("Error: 'utf-8' codec can't decode")


@pytest.mark.parametrize("argv", [
    ["price-bond", "--out", "{missing}/x.csv"],
    ["price-bond", "--sweep", "--points", "2", "--out", "{missing}/x.csv"],
    ["simulate", "-n", "3", "--out", "{tmp}/o.csv", "--plot-script", "{missing}/p.py"],
    ["price-warrant", "--sweep", "--points", "2", "--out", "{tmp}/o.csv",
     "--plot-script", "{missing}/p.py"],
], ids=["bond-out", "sweep-out", "simulate-plot-script", "sweep-plot-script"])
def test_unwritable_file_is_an_error_line(runner, tmp_path, argv):
    # a missing directory ends in one "Error:" line naming the file, not a
    # FileNotFoundError traceback
    argv = [a.format(missing=tmp_path / "missing", tmp=tmp_path) for a in argv]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    target = argv[-1]
    assert res.output == f"Error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["price-bond", "--sigma-r", "1e200"],
    ["price-warrant", "--sigma-v", "1e200"],
    ["price-bond", "-T", "1e300"],
    ["price-warrant", "--variant", "paper-literal", "--r0", "-710", "--mu-r", "100"],
    ["price-bond", "--sweep", "--t-max", "1e300", "--points", "2"],
    ["price-warrant", "--v0", "1e308", "--ratio-k", "10"],
    ["price-warrant", "--strike-X", "1e308", "--shares-N", "10"],
    ["simulate", "--mu-v", "1e5", "-n", "4"],
    ["simulate", "--sigma-v", "1e200", "-n", "4"],
])
def test_overflow_is_an_error_line(runner, argv):
    # float overflow deep in a pricer ends like any domain error: exit 1 and
    # one "Error:" line, not a traceback (which CliRunner would keep in
    # res.exception, with exit code 1 as well)
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    assert "Error:" in res.output
    assert isinstance(res.exception, SystemExit)


class TestValidate:
    def test_quick_passes(self, runner):
        res = runner.invoke(main, ["validate", "--quick"])
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert "13 of 13 checks passed" in lines[-1]

    def test_paper_literal_injection_fails(self, runner):
        res = runner.invoke(main, ["validate", "--quick", "--variant", "paper-literal"])
        assert res.exit_code == 1
        assert "FAIL" in res.output
        assert "11 of 13 checks passed" in res.output

    def test_paper_literal_fails_exactly_the_warrant_formula_checks(self, runner):
        # the literal formula breaks the Black-Scholes limit and the PDE
        # residual of the warrant, and nothing else
        res = runner.invoke(main, ["validate", "--quick", "--json", "--variant", "paper-literal"])
        failed = [c["name"] for c in map(json.loads, res.output.splitlines()) if not c["passed"]]
        assert failed == ["warrant Black-Scholes limit (paper_literal)",
                          "warrant PDE residual refinement (paper_literal)"]

    def test_json_one_object_per_check(self, runner):
        res = runner.invoke(main, ["validate", "--quick", "--json", "--variant", "paper-literal"])
        assert res.exit_code == 1
        checks = [json.loads(line) for line in res.output.splitlines()]
        assert len(checks) == 13
        for c in checks:
            assert set(c) == {"name", "target", "observed", "tolerance", "passed", "elapsed_s"}
            assert all(isinstance(c[k], str) for k in ("name", "target", "observed", "tolerance"))
            assert isinstance(c["passed"], bool)
            assert isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0.0
        assert sum(not c["passed"] for c in checks) == 2
