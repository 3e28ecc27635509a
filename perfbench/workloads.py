"""The four workloads: seeded inputs for one round of operations, and the
checks of the program's outputs against the oracle and the properties the
method must have.

Inputs that drive the cost of an operation (valuation-time slice, alpha
class, grid sizes, path lengths) are stratified, so every seed gives rounds
of nearly the same cost; the seed moves the values inside each stratum.
"""

import csv
import math
import random
import statistics

import mpmath as mp

import oracle

# tolerances of the output checks
F1_TOL = 1e-8          # |f1 - oracle| / (|vol term| + |drift term|)
BOND_TOL = 1e-8        # relative, bond price
VI_TOL = 1e-8          # relative, variance integral
WARRANT_TOL = 1e-9     # |W - oracle| / (k V / (N + M k))
GAP_TOL = 1e-12        # |d1 - d2 - sqrt(vi)| / max(1, |d1|)
GRID_TOL = 1e-12       # relative, the maturity column of a sweep
PDE_TOL = {"classical": 1e-3, "fractional": 5e-3}  # validate's scale-normalised sup error
MC_SIGMAS = 4.0
RATIO_RANGE = (3.0, 5.0)
PATH_SIGMAS = 5.0

# the one fault the benchmark keeps: f1 near expiry (see README)
KNOWN_FAULT = "f1_near_expiry"
NEAR_EXPIRY_SEED = 20071228  # the near-expiry slice does not depend on --seed
# nor do the streams of `paths`: they fix which scenarios need range
# doublings, and those set most of the workload's cost
PATHS_RNG_SEED = 20200724

SWEEP_HURSTS = (0.5, 0.6, 0.7, 0.8, 0.9)
# the CLI's documented default market and contract terms
DEFAULT_MARKET = dict(mu_v=1.0, sigma_v=1.0, mu_r=1.0, sigma_r=1.0, rho=0.5,
                      hurst=0.7, alpha=0.9, r0=1.0, v0=1.0)
DEFAULT_TERMS = dict(shares_outstanding=1.0, warrants_outstanding=1.0,
                     shares_per_warrant=1.0, strike=1.0, maturity=1.0)
DEFAULT_T_MAX = 2.0
RESIDUAL_STEPS = (0.08, 0.04, 0.02, 0.01)


class Verdict:
    """Collects every comparison; failures are keyed by (run, op, output)."""

    def __init__(self):
        self.n_checks = 0
        self.failures = {}
        self.notes = []
        self.worst = {}

    def expect(self, key, ok, tag, detail):
        self.n_checks += 1
        if not ok:
            self.failures.setdefault(key, set()).add(tag)
            if tag != KNOWN_FAULT and len(self.notes) < 20:
                self.notes.append(f"{key}: {tag}: {detail}")

    def record(self, name, value):
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))

    @property
    def correct(self):
        return all(tags <= {KNOWN_FAULT} for tags in self.failures.values())


def _strata(rng, n):
    """n draws in [0, 1), one in each of n equal strata, in random order."""
    cells = list(range(n))
    rng.shuffle(cells)
    return [(c + rng.random()) / n for c in cells]


def _lin(lo, hi, u):
    return lo + (hi - lo) * u


def _log(lo, hi, u):
    return lo * (hi / lo) ** u


def _terms(rng, maturity, diluted=True):
    n = _log(1e5, 1e7, rng.random())
    return dict(shares_outstanding=n,
                warrants_outstanding=n * _lin(0.05, 0.5, rng.random()) if diluted else 0.0,
                shares_per_warrant=_lin(0.5, 2.0, rng.random()),
                strike=_lin(20.0, 200.0, rng.random()),
                maturity=maturity)


def _firm_value(rng, terms):
    """Firm value with k V / (N X) between 0.6 and 1.6."""
    return (_log(0.6, 1.6, rng.random()) * terms["shares_outstanding"]
            * terms["strike"] / terms["shares_per_warrant"])


def _market(rng, alpha, hurst):
    return dict(alpha=alpha, hurst=hurst,
                mu_v=_lin(-0.05, 0.1, rng.random()), sigma_v=_lin(0.1, 0.6, rng.random()),
                mu_r=_lin(-0.05, 0.1, rng.random()), sigma_r=_lin(0.01, 0.1, rng.random()),
                rho=_lin(-0.8, 0.8, rng.random()), r0=_lin(0.0, 0.08, rng.random()), v0=1.0)


def _alpha(cls, u, hurst):
    if cls == "one":
        return 1.0
    if cls == "interior":
        return _lin(0.72, 0.98, u)
    return (1.0 + _log(0.002, 0.05, u)) / (1.0 + hurst)  # alpha (1 + H) just above 1


def _cap(terms, value):
    """k V / (N + M k), the upper bound of the warrant price."""
    k = terms["shares_per_warrant"]
    return k * value / (terms["shares_outstanding"] + terms["warrants_outstanding"] * k)


def _z(samples, mean):
    n = len(samples)
    if n < 2:
        return 0.0
    sd = statistics.stdev(samples)
    return (statistics.fmean(samples) - mean) / (sd / math.sqrt(n)) if sd > 0.0 else math.inf


class Quotes:
    """warrant_price + bond_price on a book of distinct quotes."""

    imports = ["subfbm"]
    classes = ("one", "interior", "boundary")

    def __init__(self, seed, short):
        rng = random.Random(seed)
        n_each, n_near = (4, 6) if short else (150, 100)
        book = []
        for cls in self.classes:
            for slice_ in ("zero", "interior"):
                book += self._quotes(rng, cls, slice_, n_each)
        near = random.Random(NEAR_EXPIRY_SEED)
        for i, cls in enumerate(self.classes):
            book += self._quotes(near, cls, "near_expiry", n_near // 3 + (i < n_near % 3))
        rng.shuffle(book)
        self.ops = book
        self._oracle = {}

    @staticmethod
    def _quotes(rng, cls, slice_, n):
        out = []
        for u_t, u_h, u_a, u_s in zip(*(_strata(rng, n) for _ in range(4))):
            hurst = _lin(0.5, 0.95, u_h)
            maturity = _log(0.25, 10.0, u_t)
            market = _market(rng, _alpha(cls, u_a, hurst), hurst)
            terms = _terms(rng, maturity, diluted=rng.random() < 2.0 / 3.0)
            if slice_ == "zero":
                t = 0.0
            elif slice_ == "interior":
                t = maturity * _lin(0.05, 0.95, u_s)
            else:
                t = maturity - maturity * _log(1e-4, 1e-2, u_s)
            value = _firm_value(rng, terms)
            market["v0"] = value
            out.append(dict(kind="quote", slice=slice_, market=market, terms=terms,
                            value=value, r=market["r0"], t=t))
        return out

    def _reference(self, i):
        if i not in self._oracle:
            op = self.ops[i]
            m, terms = op["market"], op["terms"]
            bp, f1, scale = oracle.bond(op["r"], op["t"], terms["maturity"], m)
            wp, vi = oracle.warrant(op["value"], op["r"], op["t"], m, terms, bp)
            self._oracle[i] = (bp, f1, scale, wp, vi)
        return self._oracle[i]

    def check_op(self, i, out, v, key):
        op = self.ops[i]
        bp_o, f1_o, scale, wp_o, vi_o = self._reference(i)
        wp, d1, d2, vi, bp, f1 = out
        f1_err = float(abs(f1 - f1_o) / scale)
        v.record("bond.f1_max_rel_err", f1_err)
        v.expect(key, f1_err <= F1_TOL,
                 KNOWN_FAULT if op["slice"] == "near_expiry" else "f1", f"f1 rel err {f1_err:.3g}")
        bond_err = float(abs(bp / bp_o - 1))
        v.expect(key, bond_err <= BOND_TOL, "bond", f"bond rel err {bond_err:.3g}")
        vi_err = float(abs(vi / vi_o - 1))
        v.expect(key, vi_err <= VI_TOL, "variance", f"variance rel err {vi_err:.3g}")
        cap = _cap(op["terms"], op["value"])
        w_err = float(abs(wp - wp_o)) / cap
        v.record("warrant.price_max_rel_err", w_err)
        v.expect(key, w_err <= WARRANT_TOL, "warrant", f"warrant err {w_err:.3g} of kV/(N+Mk)")
        gap = abs(d1 - d2 - math.sqrt(vi)) / max(1.0, abs(d1))
        v.expect(key, gap <= GAP_TOL, "d_gap", f"d1 - d2 - sqrt(vi) = {gap:.3g}")
        v.expect(key, 0.0 <= wp <= cap * (1.0 + 1e-12), "bounds", f"W = {wp!r} outside [0, {cap!r}]")

    def check_run(self, outputs, v, label):
        pass


class Sweep:
    """`subfbm price-bond|price-warrant --sweep` through cli.main, CSV to a file."""

    imports = ["subfbm", "subfbm.cli"]
    # the default market runs with --points 4 and the default --t-max; the
    # seeded markets cycle through these alpha classes and --points
    n_markets = 50
    classes = ("one", "interior")
    points = (1, 2, 3)

    def __init__(self, seed, short):
        rng = random.Random(seed)
        n_markets = 1 if short else self.n_markets
        self.ops = []
        for cmd in ("price-bond", "price-warrant"):
            self.ops.append(self._op(cmd, DEFAULT_MARKET, DEFAULT_TERMS, 4, DEFAULT_T_MAX, []))
        for j, u_a, u_h, u_t in zip(range(n_markets), *(_strata(rng, n_markets) for _ in range(3))):
            cls, points = self.classes[j % 2], self.points[j % 3]
            market = _market(rng, _alpha(cls, u_a, 0.5), _lin(0.5, 0.95, u_h))
            terms = _terms(rng, 1.0, diluted=rng.random() < 2.0 / 3.0)
            market["v0"] = _firm_value(rng, terms)
            t_max = _lin(1.0, 5.0, u_t)
            flags = ["--t-max", repr(t_max)]
            for key, val in market.items():
                flags += ["--" + key.replace("_", "-"), repr(val)]
            for cmd in ("price-bond", "price-warrant"):
                extra = flags
                if cmd == "price-warrant":
                    extra = flags + ["--shares-N", repr(terms["shares_outstanding"]),
                                     "--warrants-M", repr(terms["warrants_outstanding"]),
                                     "--ratio-k", repr(terms["shares_per_warrant"]),
                                     "--strike-X", repr(terms["strike"])]
                self.ops.append(self._op(cmd, market, terms, points, t_max, extra))
        self._oracle = {}

    @staticmethod
    def _op(cmd, market, terms, points, t_max, flags):
        return dict(kind="sweep", cmd=cmd, market=market, terms=terms, points=points,
                    t_max=t_max, argv=[cmd, "--sweep", "--points", str(points)] + flags)

    def _reference(self, i):
        """Per row: (T, H, price, sqrt(vi) or None, f1 scale or None)."""
        if i not in self._oracle:
            op = self.ops[i]
            rows = []
            for hurst in SWEEP_HURSTS:
                m = dict(op["market"], hurst=hurst)
                for j in range(op["points"]):
                    mat = op["t_max"] * (j + 1) / op["points"]
                    if op["cmd"] == "price-bond":
                        p, _, scale = oracle.bond(m["r0"], 0.0, mat, m)
                        rows.append((mat, hurst, p, None, scale))
                    else:
                        w, vi = oracle.warrant(m["v0"], m["r0"], 0.0, m, dict(op["terms"], maturity=mat))
                        rows.append((mat, hurst, w, float(mp.sqrt(vi)), None))
            self._oracle[i] = rows
        return self._oracle[i]

    def check_op(self, i, out, v, key):
        op = self.ops[i]
        rc, text = out
        v.expect(key, rc == 0, "exit", f"exit code {rc}")
        rows = list(csv.reader(text.splitlines()))
        bond = op["cmd"] == "price-bond"
        header = ["T", "H", "alpha", "price"] if bond else \
            ["T", "H", "alpha", "rho", "price", "d1", "d2", "variant"]
        ref = self._reference(i)
        v.expect(key, rows[:1] == [header], "header", f"header {rows[:1]}")
        v.expect(key, len(rows) - 1 == len(ref), "rows", f"{len(rows) - 1} rows, want {len(ref)}")
        if len(rows) - 1 != len(ref) or rows[:1] != [header]:
            return
        m, terms = op["market"], op["terms"]
        for row, (mat, hurst, price_o, sq_o, scale) in zip(rows[1:], ref):
            t_col, h_col, a_col = (float(c) for c in row[:3])
            v.expect(key, abs(t_col / mat - 1) <= GRID_TOL and h_col == hurst
                     and a_col == m["alpha"], "grid", f"row {row[:3]}")
            if bond:
                price = float(row[3])
                err = float(abs(price / price_o - 1))
                v.expect(key, err <= BOND_TOL, "bond", f"bond rel err {err:.3g} at T={mat} H={hurst}")
                # f2 = T exactly at t = 0, so log P - log P_oracle = f1 - f1_oracle
                v.record("bond.f1_max_rel_err", abs(math.log(price) - float(mp.log(price_o))) / float(scale))
                continue
            rho, price, d1, d2 = (float(c) for c in row[3:7])
            cap = _cap(terms, m["v0"])
            err = float(abs(price - price_o)) / cap
            v.record("warrant.price_max_rel_err", err)
            v.expect(key, err <= WARRANT_TOL, "warrant", f"warrant err {err:.3g} at T={mat} H={hurst}")
            gap = abs((d1 - d2) / sq_o - 1)
            v.expect(key, gap <= VI_TOL, "d_gap", f"(d1 - d2)/sqrt(vi) - 1 = {gap:.3g}")
            v.expect(key, 0.0 <= price <= cap * (1.0 + 1e-12), "bounds", f"W = {price!r}")
            v.expect(key, rho == m["rho"] and row[7] == "derivation_consistent", "columns", f"row {row}")

    def check_run(self, outputs, v, label):
        pass


class Paths:
    """simulate_paths scenarios, each on its own RngSeed stream."""

    imports = ["subfbm"]
    alphas = (0.9, 0.7, 1.0)
    hursts = (0.55, 0.7, 0.85)
    # fixed path lengths keep the distinct (H, n) keys of the fGn spectrum
    # cache well below its 64 entries, so the steady state does not recompute it
    n_steps = (250, 500, 1000, 1500, 2000)
    replicas = 4

    def __init__(self, seed, short):
        rng = random.Random(seed)
        lengths = self.n_steps[:2] if short else self.n_steps
        self.ops = []
        for alpha in self.alphas:
            for wick in (True, False):
                for n_steps in lengths:
                    for hurst in self.hursts:
                        for _ in range(self.replicas):
                            self.ops.append(self._scenario(rng, alpha, hurst, n_steps, wick))
        for i, op in enumerate(self.ops):
            op["rng"] = [PATHS_RNG_SEED, 1 + i]

    @staticmethod
    def _scenario(rng, alpha, hurst, n_steps, wick):
        market = _market(rng, alpha, hurst)
        market.update(sigma_v=_lin(0.1, 0.4, rng.random()), v0=_log(0.5, 2.0, rng.random()))
        if wick:
            market["mu_v"] = 0.0  # E[asset(t)] = v0 under the Wick correction
        return dict(kind="paths", market=market, n_steps=n_steps, wick=wick,
                    horizon=_log(0.5, 2.0, rng.random()))

    def check_op(self, i, out, v, key):
        op = self.ops[i]
        shapes, monotone, clock0, exact, positive, t_end, _, _ = out
        v.expect(key, shapes, "shape", "arrays do not all have n_steps + 1 entries")
        v.expect(key, monotone and clock0 == 0.0, "clock", f"clock decreasing or T(0) = {clock0}")
        v.expect(key, t_end == op["horizon"], "grid", f"t grid ends at {t_end}")
        v.expect(key, positive, "values", "asset not positive or rate not finite")
        if op["market"]["alpha"] == 1.0:
            v.expect(key, exact, "clock", "clock differs from t at alpha = 1")

    def check_run(self, outputs, v, label):
        """Seeded z-tests over the distinct scenarios of the run: the Mittag-Leffler
        clock moments E[T(t)^n] / t^(n alpha) = n! / Gamma(1 + n alpha), n = 1, 2,
        and E[asset(t)] = v0 under the Wick correction with mu_v = 0."""
        clock, asset = {}, {}
        for op, outs in zip(self.ops, outputs):
            alpha = op["market"]["alpha"]
            for out, count in outs:
                if out[0] == "error":
                    continue
                t_end, clock_end, asset_end = out[5:8]
                if alpha < 1.0:
                    clock.setdefault(alpha, []).append(clock_end / t_end ** alpha)
                if op["wick"]:
                    asset.setdefault(alpha, []).append(asset_end / op["market"]["v0"])
        for alpha, ys in sorted(clock.items()):
            for n in (1, 2):
                z = _z([y ** n for y in ys], float(oracle.clock_moment(n, alpha)))
                v.expect((label, "clock", alpha, n), abs(z) <= PATH_SIGMAS, "clock_moment",
                         f"alpha={alpha} n={n} z={z:.2f} over {len(ys)} paths")
        for alpha, xs in sorted(asset.items()):
            z = _z(xs, 1.0)
            v.expect((label, "asset", alpha), abs(z) <= PATH_SIGMAS, "asset_mean",
                     f"alpha={alpha} z={z:.2f} over {len(xs)} paths")


class Crosscheck:
    """The PDE solver, Monte Carlo, the PDE residuals and `validate --quick`."""

    imports = ["subfbm", "subfbm.cli"]

    def __init__(self, seed, short):
        rng = random.Random(seed)
        classical = dict(alpha=1.0, hurst=0.5, mu_v=0.0, sigma_v=_lin(0.15, 0.35, rng.random()),
                         mu_r=0.0, sigma_r=0.0, rho=0.0, r0=0.05, v0=100.0)
        fractional = dict(alpha=_lin(0.85, 0.95, rng.random()), hurst=_lin(0.6, 0.8, rng.random()),
                          mu_v=0.0, sigma_v=_lin(0.15, 0.35, rng.random()), mu_r=0.0,
                          sigma_r=_lin(0.0, 0.1, rng.random()), rho=_lin(-0.5, 0.5, rng.random()),
                          r0=0.05, v0=100.0)
        pde_terms = {}
        for name in ("classical", "fractional"):
            pde_terms[name] = dict(shares_outstanding=1.0,
                                   warrants_outstanding=_lin(0.0, 0.5, rng.random()),
                                   shares_per_warrant=1.0, strike=_lin(80.0, 120.0, rng.random()),
                                   maturity=_lin(0.5, 1.5, rng.random()))
        self.ops = []
        for n in (100,) if short else (100, 125, 150, 175, 200):
            for name, market in (("classical", classical), ("fractional", fractional)):
                self.ops.append(dict(kind="pde", case=name, market=market,
                                     terms=pde_terms[name], n=n))
        for j in range(1 if short else 2):
            self.ops.append(dict(kind="mc_bond", n_paths=100_000, n_steps=100, rng=[seed, 101 + j],
                                 r0=_lin(0.02, 0.1, rng.random()), tau=_lin(0.5, 2.0, rng.random()),
                                 mu_r=_lin(-0.1, 0.2, rng.random()),
                                 sigma_r=_lin(0.1, 0.5, rng.random())))
            self.ops.append(dict(kind="mc_warrant", n_paths=100_000, n_steps=50, rng=[seed, 201 + j],
                                 v0=_lin(80.0, 120.0, rng.random()), r=_lin(0.0, 0.08, rng.random()),
                                 sigma_v=_lin(0.15, 0.35, rng.random()),
                                 terms=dict(shares_outstanding=1.0,
                                            warrants_outstanding=_lin(0.0, 0.5, rng.random()),
                                            shares_per_warrant=1.0,
                                            strike=_lin(80.0, 120.0, rng.random()),
                                            maturity=_lin(0.5, 1.5, rng.random()))))
        unit = dict(DEFAULT_MARKET)
        for group in range(1 if short else 12):
            # around validate's (0.8, 0.45); nearer t = 0.40 the leading error
            # term of the central differences vanishes and the ratio at h = 0.08
            # leaves [3, 5] although the price is right
            point = [_lin(0.76, 0.84, rng.random()), _lin(0.44, 0.48, rng.random())]
            for h in RESIDUAL_STEPS:
                self.ops.append(dict(kind="residual_bond", group=group, market=unit,
                                     maturity=1.0, point=point, h=h))
        for group in range(1 if short else 10):
            point = [_lin(1.0, 1.2, rng.random()), _lin(0.7, 0.9, rng.random()),
                     _lin(0.4, 0.5, rng.random())]
            for h in RESIDUAL_STEPS:
                self.ops.append(dict(kind="residual_warrant", group=group, market=unit,
                                     terms=DEFAULT_TERMS, point=point, h=h))
        # validate's own seed: its 3-sigma checks fail on some seeds (see README)
        self.ops.append(dict(kind="validate", argv=["validate", "--quick"]))

    def check_op(self, i, out, v, key):
        op = self.ops[i]
        getattr(self, "_check_" + op["kind"])(op, out, v, key)

    @staticmethod
    def _check_pde(op, out, v, key):
        z_grid, values = out
        terms = op["terms"]
        if op["case"] == "classical":
            k, nx = terms["shares_per_warrant"], terms["shares_outstanding"] * terms["strike"]
            dil = 1.0 / (terms["shares_outstanding"] + terms["warrants_outstanding"] * k)
            sigma, tau = op["market"]["sigma_v"], terms["maturity"]
            exact = [dil * float(oracle.black_scholes_call(k * z, nx, 0.0, sigma, tau)) for z in z_grid]
        else:
            m = op["market"]
            vi = float(oracle.variance_integral(0.0, terms["maturity"], m["alpha"], m["hurst"],
                                                m["sigma_v"], m["sigma_r"], m["rho"]))
            exact = [oracle.forward_value(z, vi, terms) for z in z_grid]
        err = max(abs(a - b) for a, b in zip(values, exact)) / max(abs(e) for e in exact)
        tol = PDE_TOL[op["case"]]
        v.record("pde.max_scaled_err", err / tol)
        v.expect(key, err <= tol, "pde", f"{op['case']} n={op['n']} scaled err {err:.3g} > {tol}")

    @staticmethod
    def _check_mc_bond(op, out, v, key):
        mean, se, _ = out
        want = float(oracle.classical_bond(op["r0"], op["tau"], op["mu_r"], op["sigma_r"]))
        z = abs(mean - want) / se
        v.expect(key, z <= MC_SIGMAS, "mc", f"bond z={z:.2f}")

    @staticmethod
    def _check_mc_warrant(op, out, v, key):
        mean, se, _ = out
        terms = op["terms"]
        k, nx = terms["shares_per_warrant"], terms["shares_outstanding"] * terms["strike"]
        dil = 1.0 / (terms["shares_outstanding"] + terms["warrants_outstanding"] * k)
        want = dil * k * float(oracle.black_scholes_call(op["v0"], nx / k, op["r"], op["sigma_v"],
                                                         terms["maturity"]))
        z = abs(mean - want) / se
        v.expect(key, z <= MC_SIGMAS, "mc", f"warrant z={z:.2f}")

    @staticmethod
    def _check_residual_bond(op, out, v, key):
        v.expect(key, math.isfinite(out[0]), "residual", f"residual {out[0]}")

    _check_residual_warrant = _check_residual_bond

    @staticmethod
    def _check_validate(op, out, v, key):
        rc, text = out
        lines = text.strip().splitlines()
        v.expect(key, rc == 0, "validate", f"exit code {rc}")
        v.expect(key, len(lines) > 1 and all(ln.startswith("PASS") for ln in lines[:-1]),
                 "validate", "a check line does not read PASS")

    def check_run(self, outputs, v, label):
        """Residual refinement: |residual(h)| / |residual(h/2)| in [3, 5]."""
        groups = {}
        for i, op in enumerate(self.ops):
            if op["kind"].startswith("residual"):
                groups.setdefault((op["kind"], op["group"]), []).append(i)
        for (kind, _), idx in groups.items():
            if any(outputs[i][0][0][0] == "error" for i in idx):
                continue
            vals = [abs(outputs[i][0][0][0]) for i in idx]
            ratios = [a / b if b else math.inf for a, b in zip(vals, vals[1:])]
            ok = all(RATIO_RANGE[0] <= r <= RATIO_RANGE[1] for r in ratios)
            for i in idx:
                for j in range(len(outputs[i])):
                    v.expect((label, i, j), ok, "residual_ratio",
                             f"{kind} ratios " + ", ".join(f"{r:.2f}" for r in ratios))


WORKLOADS = {"quotes": Quotes, "sweep": Sweep, "paths": Paths, "crosscheck": Crosscheck}
