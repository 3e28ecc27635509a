"""Span recorder for the traced run.

`Tracer.install()` wraps every public function (the names in each module's
`__all__`) of the `subfbm` layers, in its own module and under every name
another module of the package imports it by, such as `bond.integrate_singular`
or `cli.warrant_price`. Each call records a span: name, start, end and the
span that called it. Spans are aggregated as they close (calls, total time,
self time = total minus the time of child spans); the first KEEP spans are
also kept verbatim and written out when the run ends.

A function that a later version deletes is simply not wrapped and reports
zero calls.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("numerics", "processes", "bond", "warrant", "pde", "mc", "validation", "cli")
KEEP = 5000
SIMULATE = "processes.simulate_paths"


def _on_simulate(tracer, args):
    tracer.count("paths", 1)
    params = args.get("params")
    if params is not None and params.alpha < 1.0:
        tracer.count("clocked_paths", 1)


def _on_stable(tracer, args):
    if tracer.inside(SIMULATE):
        tracer.count("sim_stable_calls", 1)
        tracer.count("sim_stable_draws", args.get("size", 0))


def _on_fbm(tracer, args):
    if tracer.inside(SIMULATE):
        tracer.count("sim_fbm_steps", args.get("n", 0))


def _on_solve(tracer, args):
    grid = args.get("grid")
    if grid is not None:
        tracer.count("pde_cells", grid.n_z * grid.n_t)


def _on_mc(tracer, args):
    cfg = args.get("cfg")
    if cfg is not None:
        tracer.count("mc_paths", cfg.n_paths)


# work counts read from the arguments of a few rarely called functions
HOOKS = {
    SIMULATE: _on_simulate,
    "processes.one_sided_stable": _on_stable,
    "processes.fbm_path": _on_fbm,
    "pde.solve_theta_pde": _on_solve,
    "mc.mc_bond_classical": _on_mc,
    "mc.mc_warrant_classical": _on_mc,
}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds, span id]
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self.spans = []
        self.next_id = 0

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name):
        return any(frame[0] == name for frame in self.stack)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, sig.bind(*args, **kwargs).arguments)
            parent = stack[-1][2] if stack else None
            frame = [name, 0.0, self.next_id]
            self.next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                d = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if len(spans) < KEEP:
                    spans.append((frame[2], parent, name, t0, t1))

        return wrapper

    def install(self):
        import subfbm

        modules = [subfbm]
        wrapped = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"subfbm.{layer}")
            except ModuleNotFoundError:
                continue
            modules.append(mod)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, key, wrapped[val])

    def summary(self):
        return {"stats": self.stats, "counts": self.counts}

    def dump(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
