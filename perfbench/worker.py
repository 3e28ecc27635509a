"""The process that runs a workload: it imports `subfbm`, receives the
generated inputs and calls the public API in a closed loop with one caller.

    python3 perfbench/worker.py cold JOB            # one cold start
    python3 perfbench/worker.py loop JOB OUT SECONDS SEGMENTS TRACE

`cold` imports the package, runs the first operation of the job and prints
one JSON line with the timings and the output. `loop` runs SEGMENTS
stretches of whole rounds of the job's operations, each until SECONDS have
passed, pausing between them, and writes the outputs, latencies, round
count and the times of a reference kernel sampled between the operations
to OUT; with TRACE=1 the second half of the segments runs with every
public function wrapped in a span recorder.

This file imports nothing of the benchmark's oracle, so the process holds
only the program, numpy, click and the inputs.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
CPUS = sorted(os.sched_getaffinity(0))
REFERENCE_EVERY_S = 0.025  # operation time between two samples of the reference kernel


def _program(imports):
    for name in imports:
        __import__(name)


class _Op:
    """One prepared operation: inputs built once, `run()` times only the
    calls into the program and returns (seconds, output)."""

    def __init__(self, spec, scratch):
        import subfbm

        self.spec = spec
        self.run = getattr(self, "_prep_" + spec["kind"])(subfbm, spec, scratch)

    @staticmethod
    def _prep_quote(sf, spec, scratch):
        params = sf.ModelParams(**spec["market"])
        terms = sf.WarrantTerms(**spec["terms"])
        value, r, t, maturity = spec["value"], spec["r"], spec["t"], spec["terms"]["maturity"]

        def run():
            t0 = time.perf_counter()
            w = sf.warrant_price(value, r, t, terms, params)
            b = sf.bond_price(r, t, maturity, params)
            dt = time.perf_counter() - t0
            return dt, [w.price, w.d1, w.d2, w.variance_integral, b.price, b.f1]

        return run

    @staticmethod
    def _prep_sweep(sf, spec, scratch):
        from subfbm import cli

        out = scratch / f"sweep-{os.getpid()}.csv"
        argv = spec["argv"] + ["--out", str(out)]

        def run():
            t0 = time.perf_counter()
            rc = _cli_span(cli.main, argv)
            dt = time.perf_counter() - t0
            text = out.read_text()
            out.unlink()
            return dt, [rc or 0, text]

        return run

    @staticmethod
    def _prep_paths(sf, spec, scratch):
        import numpy as np

        params = sf.ModelParams(**spec["market"])
        horizon, n_steps, wick = spec["horizon"], spec["n_steps"], spec["wick"]
        rng = sf.RngSeed(*spec["rng"])

        def run():
            t0 = time.perf_counter()
            path = sf.simulate_paths(params, horizon, n_steps, rng, wick_correction=wick)
            dt = time.perf_counter() - t0
            arrays = (path.t_grid, path.t_alpha, path.asset, path.rate)
            return dt, [
                all(a.shape == (n_steps + 1,) for a in arrays),
                bool(np.all(np.diff(path.t_alpha) >= 0.0)),
                float(path.t_alpha[0]),
                bool(np.array_equal(path.t_alpha, path.t_grid)),
                bool(np.all(path.asset > 0.0) and np.all(np.isfinite(path.rate))),
                float(path.t_grid[-1]),
                float(path.t_alpha[-1]),
                float(path.asset[-1]),
            ]

        return run

    @staticmethod
    def _prep_pde(sf, spec, scratch):
        params = sf.ModelParams(**spec["market"])
        terms = sf.WarrantTerms(**spec["terms"])
        n = spec["n"]

        def run():
            t0 = time.perf_counter()
            grid = sf.default_grid(terms, params, n_z=n, n_t=n)
            surf = sf.solve_theta_pde(grid, terms, params)
            dt = time.perf_counter() - t0
            return dt, [surf.z_grid[1:-1].tolist(), surf.values[0][1:-1].tolist()]

        return run

    @staticmethod
    def _prep_mc_bond(sf, spec, scratch):
        cfg = sf.McConfig(n_paths=spec["n_paths"], n_steps=spec["n_steps"],
                          seed=sf.RngSeed(*spec["rng"]), antithetic=True)
        args = (spec["r0"], spec["tau"], spec["mu_r"], spec["sigma_r"])

        def run():
            t0 = time.perf_counter()
            est = sf.mc_bond_classical(*args, cfg)
            dt = time.perf_counter() - t0
            return dt, [est.mean, est.std_error, est.n_paths]

        return run

    @staticmethod
    def _prep_mc_warrant(sf, spec, scratch):
        cfg = sf.McConfig(n_paths=spec["n_paths"], n_steps=spec["n_steps"],
                          seed=sf.RngSeed(*spec["rng"]), antithetic=True)
        terms = sf.WarrantTerms(**spec["terms"])
        v0, r, sigma_v = spec["v0"], spec["r"], spec["sigma_v"]

        def run():
            t0 = time.perf_counter()
            est = sf.mc_warrant_classical(v0, r, terms, sigma_v, cfg)
            dt = time.perf_counter() - t0
            return dt, [est.mean, est.std_error, est.n_paths]

        return run

    @staticmethod
    def _prep_residual_bond(sf, spec, scratch):
        params = sf.ModelParams(**spec["market"])
        maturity, h, point = spec["maturity"], spec["h"], tuple(spec["point"])

        def price(r, t):
            return sf.bond_price(r, t, maturity, params).price

        def run():
            t0 = time.perf_counter()
            res = sf.residual_bond_pde(price, point, (h, h), params)
            dt = time.perf_counter() - t0
            return dt, [res]

        return run

    @staticmethod
    def _prep_residual_warrant(sf, spec, scratch):
        params = sf.ModelParams(**spec["market"])
        terms = sf.WarrantTerms(**spec["terms"])
        h, point = spec["h"], tuple(spec["point"])

        def price(v, r, t):
            return sf.warrant_price(v, r, t, terms, params).price

        def run():
            t0 = time.perf_counter()
            res = sf.residual_warrant_pde(price, point, (h, h, h), params)
            dt = time.perf_counter() - t0
            return dt, [res]

        return run

    @staticmethod
    def _prep_validate(sf, spec, scratch):
        from subfbm import cli

        argv = spec["argv"]

        def run():
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = _cli_span(cli.main, argv)
            dt = time.perf_counter() - t0
            return dt, [rc or 0, buf.getvalue()]

        return run


def _cli_span(main, argv):
    """The benchmark's own call into the CLI layer; tracing swaps this for a
    recorded span named cli.main."""
    return main(argv, standalone_mode=False)


class _Reference:
    """A fixed kernel that shares nothing with the program: a pure-Python
    loop of float math and a numpy FFT with elementwise work, the two kinds
    of work the program does. Its time, sampled through the run, says how
    fast the machine ran at the time; run.py scales the run's timings by it."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.linspace(0.1, 1.0, 8192)

    def __call__(self):
        np = self.np
        t0 = time.perf_counter()
        s = 0.0
        for i in range(1, 1500):
            s += math.exp(-1e-3 * i) * math.sqrt(i) / (1.0 + math.log(i))
        y = np.abs(np.fft.rfft(self.x * s))
        float(np.sum(np.sqrt(np.cumsum(y)) * np.exp(-y / y.max())))
        return (time.perf_counter() - t0) * 1e3


class _Record:
    """Distinct outputs per operation with their counts, every latency, the
    number of rounds, and the times of the reference kernel, sampled after
    each REFERENCE_EVERY_S of operation time and at the end of a segment."""

    def __init__(self, n_ops, reference):
        self.outputs = [dict() for _ in range(n_ops)]
        self.latencies_ms = []
        self.rounds = 0
        self.reference = reference
        self.reference_ms = []
        self._since = 0.0

    def run_rounds(self, ops, seconds):
        """Whole rounds until `seconds` have passed, each round on the next of
        the CPUs this process may use: at any moment one of them can be slowed
        by another tenant while the other is not, so every operation gets its
        repeats on each of them."""
        start = time.perf_counter()
        while True:
            os.sched_setaffinity(0, {CPUS[self.rounds % len(CPUS)]})
            for i, op in enumerate(ops):
                try:
                    dt, out = op.run()
                except Exception as exc:  # an operation that raises counts as failed
                    dt, out = 0.0, ["error", f"{type(exc).__name__}: {exc}"]
                self.latencies_ms.append(dt * 1e3)
                key = json.dumps(out)
                self.outputs[i][key] = self.outputs[i].get(key, 0) + 1
                self._since += dt
                if self._since >= REFERENCE_EVERY_S:
                    self._sample_reference()
            self.rounds += 1
            if time.perf_counter() - start >= seconds:
                self._sample_reference()
                return

    def _sample_reference(self):
        if self._since > 0.0:
            self.reference_ms.append(self.reference())
            self._since = 0.0

    def as_json(self):
        return {
            "rounds": self.rounds,
            "latencies_ms": self.latencies_ms,
            "reference_ms": self.reference_ms,
            "outputs": [[[json.loads(k), n] for k, n in o.items()] for o in self.outputs],
        }


def _warm_up(ops, budget_s=0.5):
    """Runs the first operations of the round once, uncounted, so first-call
    costs and lazy caches are paid before timing starts."""
    start = time.perf_counter()
    for op in ops:
        op.run()
        if time.perf_counter() - start >= budget_s:
            break


def cold(job_path):
    job = json.loads(Path(job_path).read_text())
    t0 = time.perf_counter()
    _program(job["imports"])
    t1 = time.perf_counter()
    op = _Op(job["ops"][0], ROOT / job["scratch"])
    _, out = op.run()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_op_s": t2 - t1, "output": out}), flush=True)


def _pause():
    """Hands the machine to the benchmark between segments (it makes cold
    starts then) and waits until it says go on."""
    print("pause", flush=True)
    if sys.stdin.readline().strip() != "go":
        sys.exit("benchmark went away")


def loop(job_path, out_path, seconds, segments, trace):
    """`segments` stretches of about `seconds` each, with a pause before each
    but the first; with trace the second half of the segments runs traced."""
    job = json.loads(Path(job_path).read_text())
    _program(job["imports"])
    scratch = ROOT / job["scratch"]
    ops = [_Op(spec, scratch) for spec in job["ops"]]
    _warm_up(ops)
    reference = _Reference()
    for _ in range(20):
        reference()
    plain = record = _Record(len(ops), reference)
    traced = tracer = None
    spent = 0.0
    for seg in range(segments):
        if seg:
            _pause()
        if trace and seg == segments // 2:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            global _cli_span
            _cli_span = tracer.wrap("cli.main", _cli_span)
            traced = record = _Record(len(ops), reference)
        # each segment ends on a whole round; the next one makes up the overrun
        t0 = time.perf_counter()
        record.run_rounds(ops, (seg + 1) * seconds - spent)
        spent += time.perf_counter() - t0
    result = plain.as_json()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["traced"] = dict(traced.as_json(), spans=tracer.summary())
        tracer.dump(Path(out_path).with_suffix(".spans.jsonl"))
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cold":
        cold(sys.argv[2])
    elif mode == "loop":
        loop(sys.argv[2], sys.argv[3], float(sys.argv[4]), int(sys.argv[5]), sys.argv[6] == "1")
    else:
        sys.exit(f"unknown mode {mode!r}")
