import csv
import json
import math

import pytest
from click.testing import CliRunner

from subfbm import ModelParams, WarrantTerms
from subfbm.bond import bond_price
from subfbm.cli import main
from subfbm.warrant import warrant_price


@pytest.fixture
def runner():
    return CliRunner()


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


class TestSweepCommand:
    def test_bond_target(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        res = runner.invoke(main, ["sweep", "bond", "--points", "3", "--out", str(out)])
        assert res.exit_code == 0
        assert len(_rows(out)) == 15

    def test_warrant_target_stdout(self, runner):
        res = runner.invoke(main, ["sweep", "warrant", "--points", "2"])
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == "T,H,alpha,rho,price,d1,d2,variant"

    def test_failure_leaves_no_file(self, runner, tmp_path):
        out = tmp_path / "never.csv"
        res = runner.invoke(main, ["sweep", "bond", "--points", "3",
                                   "--alpha", "0.6", "--out", str(out)])
        assert res.exit_code == 1
        assert not out.exists()

    def test_unknown_target_exits_two(self, runner):
        assert runner.invoke(main, ["sweep", "swap"]).exit_code == 2


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

    def test_missing_config_exits_two(self, runner, tmp_path):
        res = runner.invoke(main, ["price-bond", "--config", str(tmp_path / "none.cfg")])
        assert res.exit_code == 2


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
