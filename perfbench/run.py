"""Benchmark of the `subfbm` pricing library; run from the repository root:

    python3 perfbench/run.py --workload quotes --seed 1 --seconds 25 --trace 0

Workloads: quotes, sweep, paths, crosscheck (see perfbench/README.md).
Inputs come from --seed; the program receives only those inputs. Every
output is checked against the mpmath oracle or a property the method must
have. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run. The exit code is 1 when a check fails
outside the one known fault, and when the program cannot be found or run.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Verdict

HERE = Path(__file__).resolve().parent
CPUS = sorted(os.sched_getaffinity(0))
WORKER = HERE / "worker.py"
OUT = "perfbench/out"
SEGMENTS = 4  # stretches of the loop; with --trace the last two run traced
COLDS_PER_GROUP = 3
REFERENCE_MS = 1.0  # the reference kernel's time that timings are scaled to (worker.py)  # cold starts before, between and after the segments
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def _write_job(path, wl, ops):
    path.write_text(json.dumps({"imports": wl.imports, "scratch": OUT, "ops": ops}))


def cold_starts(job, n, env, cpus):
    """n fresh interpreters, each through import and the first operation,
    each pinned to the next CPU of `cpus` (see worker.py)."""
    records = []
    for _ in range(n):
        cpu = next(cpus)
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), "cold", str(job)],
                              stdout=subprocess.PIPE, env=env, text=True,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu})) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or not line:
            raise RuntimeError(f"cold start exited with code {rc}")
        rec = json.loads(line)
        rec["wall_s"] = wall
        records.append(rec)
    return records


def measure(job, cold_job, out, seconds, trace, short, env):
    """The loop in SEGMENTS stretches, with a group of cold starts before,
    between and after them, so set-up is sampled across the whole run. The
    first cold start fills the bytecode and file caches and is dropped."""
    per_group = 1 if short else COLDS_PER_GROUP
    cpus = itertools.cycle(CPUS)
    colds = cold_starts(cold_job, per_group + 1, env, cpus)[1:]
    cmd = [sys.executable, str(WORKER), "loop", str(job), str(out),
           repr(seconds / SEGMENTS), str(SEGMENTS), "1" if trace else "0"]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        for line in proc.stdout:
            if line.strip() == "pause":
                colds += cold_starts(cold_job, per_group, env, cpus)
                proc.stdin.write("go\n")
                proc.stdin.flush()
        rc = proc.wait(timeout=60)
    if rc != 0:
        raise RuntimeError(f"workload process exited with code {rc}")
    colds += cold_starts(cold_job, per_group, env, cpus)
    return json.loads(out.read_text()), colds


def check(wl, loops, colds):
    """Checks every distinct output; returns (verdict, attempted, failed)."""
    v = Verdict()
    attempted = failed = 0
    for label, res in loops:
        for i, outs in enumerate(res["outputs"]):
            for j, (out, count) in enumerate(outs):
                key = (label, i, j)
                if out[0] == "error":
                    v.expect(key, False, "raised", out[1])
                else:
                    wl.check_op(i, out, v, key)
                attempted += count
        wl.check_run(res["outputs"], v, label)
        failed += sum(res["outputs"][key[1]][key[2]][1] for key in v.failures
                      if key[0] == label and isinstance(key[1], int))
    for c, rec in enumerate(colds):
        wl.check_op(0, rec["output"], v, ("cold", c, 0))
    return v, attempted, failed


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _faster_mean(values):
    """Mean of the faster nine tenths of the values: a stray stall, such as
    an interrupt in the middle of a 1 ms sample, does not move it."""
    values = sorted(values)
    return statistics.fmean(values[:max(1, len(values) - len(values) // 10)])


def _reference_ms(res):
    return _faster_mean(res["reference_ms"])


def _scale(res):
    """Factor that brings the run's timings to a machine on which the
    reference kernel takes REFERENCE_MS. Other tenants of a shared machine
    slow whole stretches of a run by 10-40 %, and a run that falls in one
    reads slow throughout; the kernel, sampled between the operations,
    slows with it, while a change to the program leaves the kernel alone."""
    return REFERENCE_MS / _reference_ms(res)


def _steady_ms(res, n_ops):
    """Each operation's latency over the rounds of the run (the mean of its
    faster nine tenths), scaled."""
    lat, k = res["latencies_ms"], _scale(res)
    return [k * _faster_mean(lat[i::n_ops]) for i in range(n_ops)]


def _ops_per_s(steady):
    return len(steady) / (sum(steady) / 1e3)


def end_to_end(res, colds, n_ops):
    steady = _steady_ms(res, n_ops)
    return {
        "setup_s": (_scale(res) * statistics.median(r["wall_s"] for r in colds), "s"),
        "ops_per_s": (_ops_per_s(steady), "1/s"),
        "op_p50_ms": (_quantile(steady, 50), "ms"),
        "op_p90_ms": (_quantile(steady, 90), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def _csv_rows(wl, outputs):
    return sum((len(out[1].splitlines()) - 1) * count
               for op, outs in zip(wl.ops, outputs) if op["kind"] == "sweep"
               for out, count in outs if out[0] != "error")


def per_layer(wl, res, colds, v):
    traced = res["traced"]
    stats, counts = traced["spans"]["stats"], traced["spans"]["counts"]
    ops = len(traced["latencies_ms"])

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    quad = ("numerics.integrate_adaptive", "numerics.integrate_singular")
    special = ("numerics.gamma", "numerics.normal_cdf")
    mc_fns = ("mc.mc_bond_classical", "mc.mc_warrant_classical")
    paths = counts.get("paths", 0)
    n_ops = len(wl.ops)
    traced_rate = _ops_per_s(_steady_ms(traced, n_ops))
    untraced_rate = _ops_per_s(_steady_ms(res, n_ops))
    m = {
        "numerics.integrate_calls": (ratio(calls(*quad), ops), "count/op"),
        "numerics.integrate_ms": (ratio(own(*quad) * 1e3, ops), "ms/op"),
        "numerics.special_calls": (ratio(calls(*special), ops), "count/op"),
        "numerics.special_ms": (ratio(own(*special) * 1e3, ops), "ms/op"),
        "bond.f1_ms": (ratio(own("bond.f1_general") * 1e3, calls("bond.f1_general")), "ms/call"),
        "bond.f1_max_rel_err": (v.worst.get("bond.f1_max_rel_err", 0.0), "ratio"),
        "warrant.variance_integral_ms": (ratio(own("warrant.variance_integral") * 1e3,
                                               calls("warrant.variance_integral")), "ms/call"),
        "warrant.warrant_price_ms": (ratio(own("warrant.warrant_price") * 1e3,
                                           calls("warrant.warrant_price")), "ms/call"),
        "warrant.price_max_rel_err": (v.worst.get("warrant.price_max_rel_err", 0.0), "ratio"),
        "cli.self_ms": (ratio(own("cli.main") * 1e3, calls("cli.main")), "ms/invocation"),
        "cli.rows_per_s": (ratio(_csv_rows(wl, traced["outputs"]), total("cli.main")), "1/s"),
        "processes.simulate_paths_ms": (ratio(own("processes.simulate_paths") * 1e3,
                                              calls("processes.simulate_paths")), "ms/call"),
        "processes.fbm_path_ms": (ratio(total("processes.fbm_path") * 1e3,
                                        calls("processes.fbm_path")), "ms/call"),
        "processes.fbm_steps_per_path": (ratio(counts.get("sim_fbm_steps", 0), paths), "count"),
        "processes.stable_draws_per_path": (ratio(counts.get("sim_stable_draws", 0), paths), "count"),
        "processes.doublings_per_path": (ratio(counts.get("sim_stable_calls", 0)
                                               - counts.get("clocked_paths", 0), paths), "count"),
        "processes.one_sided_stable_ms": (ratio(total("processes.one_sided_stable") * 1e3,
                                                calls("processes.one_sided_stable")), "ms/call"),
        "pde.solve_ms": (ratio(total("pde.solve_theta_pde") * 1e3,
                               calls("pde.solve_theta_pde")), "ms/call"),
        "pde.cell_updates_per_s": (ratio(counts.get("pde_cells", 0), total("pde.solve_theta_pde")), "1/s"),
        "pde.max_scaled_err": (v.worst.get("pde.max_scaled_err", 0.0), "ratio"),
        "mc.paths_per_s": (ratio(counts.get("mc_paths", 0), total(*mc_fns)), "1/s"),
        "mc.estimate_ms": (ratio(total(*mc_fns) * 1e3, calls(*mc_fns)), "ms/call"),
        "validation.run_checks_ms": (ratio(total("validation.run_checks") * 1e3,
                                           calls("validation.run_checks")), "ms/call"),
        "setup.import_s": (statistics.median(r["import_s"] for r in colds), "s"),
        "setup.first_op_s": (statistics.median(r["first_op_s"] for r in colds), "s"),
        "tracing.overhead_ratio": (ratio(untraced_rate, traced_rate), "ratio"),
        "tracing.traced_ops_per_s": (traced_rate, "1/s"),
        "tracing.untraced_ops_per_s": (untraced_rate, "1/s"),
        "machine.reference_ms": (_reference_ms(res), "ms"),
    }
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="tiny rounds and one cold start; for the benchmark's own test")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "subfbm" / "__init__.py").is_file():
        sys.exit("src/subfbm not found: run from the root of a subfbm checkout")
    out_dir = root / OUT
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    env = _env()

    wl = WORKLOADS[args.workload](args.seed, args.short)
    job, cold_job = out_dir / f"{tag}.job.json", out_dir / f"{tag}.cold.json"
    _write_job(job, wl, wl.ops)
    _write_job(cold_job, wl, wl.ops[:1])

    res, colds = measure(job, cold_job, out_dir / f"{tag}.result.json", args.seconds,
                         args.trace, args.short, env)
    loops = [("loop", res)] + ([("traced", res["traced"])] if args.trace else [])
    v, attempted, failed = check(wl, loops, colds)

    metrics = per_layer(wl, res, colds, v) if args.trace else end_to_end(res, colds, len(wl.ops))
    print(f"checks: {v.n_checks} comparisons over {attempted} operations "
          f"({sum(r['rounds'] for _, r in loops)} rounds) and {len(colds)} cold starts")
    print(f"failed: {failed} operations; unexpected failures: {0 if v.correct else 'yes'}")
    for note in v.notes:
        print("  " + note)
    print(json.dumps({
        "correct": v.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }))
    return 0 if v.correct else 1


if __name__ == "__main__":
    sys.exit(main())
