"""Spans around calls into the library, for the traced benchmark run.

The library is not edited. Instead the benchmark replaces public
functions at the module attributes their callers look up (for example
``capacity.are_solve`` or ``riccati.solve_spd``) with timing wrappers,
and puts the originals back afterwards. Spans live in memory with the
index of their parent span and are written out when the run ends.

Functions called once per Riccati or schedule step (``LEAVES``) would
make millions of spans; their calls and time are summed per name and
charged to the enclosing span as child time instead of being recorded
one by one. A layer's self time is its spans' duration minus the time of
the wrapped calls they contain.
"""

import time
from collections import defaultdict

# (module, attribute, span name, layer); the attribute is the name the
# calling code resolves at run time, so every call site is covered
WRAPS = (
    ("capacity", "asymptotic_rate", "capacity.asymptotic_rate", "capacity"),
    ("capacity", "finite_n_rate", "capacity.finite_n_rate", "capacity"),
    ("capacity", "optimize_input", "capacity.optimize_input", "capacity"),
    ("capacity", "sweep_kappa", "capacity.sweep_kappa", "capacity"),
    ("capacity", "asymptotic_power", "capacity.asymptotic_power", "capacity"),
    ("capacity", "are_solve", "riccati.are_solve", "riccati"),
    ("capacity", "lyap_solve", "lyapunov.lyap_solve", "lyapunov"),
    ("capacity", "feasibility_report", "systests.feasibility_report", "systests"),
    ("capacity", "build_augmented", "models.build_augmented", "models"),
    ("capacity", "to_quadruple", "models.to_quadruple", "models"),
    ("capacity", "validate", "models.validate", "models"),
    ("capacity", "block_diag", "linalg.block_diag", "linalg"),
    ("capacity", "chol_logdet", "linalg.chol_logdet", "linalg"),
    ("riccati", "solve_spd", "riccati.solve_spd", "linalg"),
    ("models", "validate", "models.validate", "models"),
    ("models", "block_diag", "linalg.block_diag", "linalg"),
    ("systests", "pbh_test", "systests.pbh_test", "systests"),
    ("systests", "validate", "models.validate", "models"),
    ("systests", "build_augmented", "models.build_augmented", "models"),
    ("systests", "to_quadruple", "models.to_quadruple", "models"),
    ("simulate", "kalman_run", "simulate.kalman_run", "simulate"),
    ("simulate", "dre_run", "riccati.dre_run", "riccati"),
    ("simulate", "build_augmented", "models.build_augmented", "models"),
    ("simulate", "to_quadruple", "models.to_quadruple", "models"),
    ("cli", "main", "cli.main", "cli"),
    ("cli", "asymptotic_rate", "capacity.asymptotic_rate", "capacity"),
    ("cli", "sample_paths", "simulate.sample_paths", "simulate"),
    ("cli", "empirical_report", "simulate.empirical_report", "simulate"),
    ("cli", "validate", "models.validate", "models"),
)

LEAVES = frozenset({
    "riccati.solve_spd", "linalg.block_diag", "linalg.chol_logdet",
    "models.validate", "systests.pbh_test", "models.NoiseModel",
})

LAYERS = ("models", "linalg", "riccati", "lyapunov", "systests", "capacity",
          "simulate", "cli")

# the L-BFGS driver inside optimize_input, reached as scipy.optimize.minimize
LBFGS = ("capacity.lbfgs", "capacity")


class Tracer:
    """Span recorder; ``install`` wraps the library, ``remove`` restores it."""

    def __init__(self):
        self.spans = []        # [name, layer, parent, start, end, child_s]
        self.stack = []
        self.leaf = defaultdict(lambda: [0, 0.0])
        self.layer_of = {}
        self.counters = defaultdict(float)
        self._patches = []

    # ---------------------------------------------------------- recording

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), None, 0.0])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        index = self.stack.pop()
        span = self.spans[index]
        span[4] = time.perf_counter()
        if self.stack:
            self.spans[self.stack[-1]][5] += span[4] - span[3]

    def add_leaf(self, name, layer, seconds):
        record = self.leaf[name]
        record[0] += 1
        record[1] += seconds
        self.layer_of[name] = layer
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def timed(self, name, layer, fn, *args, **kwargs):
        """Call fn as a leaf span; used by the benchmark's own callbacks."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add_leaf(name, layer, time.perf_counter() - start)

    def _wrap(self, original, name, layer, on_result):
        if name in LEAVES:
            def leaf(*args, **kwargs):
                return self.timed(name, layer, original, *args, **kwargs)
            return leaf

        def span(*args, **kwargs):
            self._open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return span

    # ---------------------------------------------------------- counters

    def _are_result(self, default_max_iter):
        def count(sol, args, kwargs):
            max_iter = kwargs.get("max_iter", args[3] if len(args) > 3 else default_max_iter)
            self.counters["riccati.are_solve.iterations"] += sol.iterations
            self.counters["riccati.are_solve.unconverged"] += not sol.converged
            self.counters["riccati.are_solve.budget_exhausted"] += (
                sol.iterations >= int(max_iter))
        return count

    def _lyap_result(self, sol, args, kwargs):
        key = "direct" if sol.method == "direct-vectorized" else "fixed_point"
        self.counters["lyapunov.lyap_solve." + key] += 1

    def _lbfgs_result(self, res, args, kwargs):
        self.counters["capacity.lbfgs.nfev"] += int(res.nfev)

    # ---------------------------------------------------------- install

    def install(self, package):
        import inspect

        import scipy.optimize

        from riccati_capacity import riccati

        default_max_iter = inspect.signature(riccati.are_solve).parameters["max_iter"].default
        on_result = {
            "riccati.are_solve": self._are_result(default_max_iter),
            "lyapunov.lyap_solve": self._lyap_result,
        }
        for module_name, attr, name, layer in WRAPS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            self.layer_of[name] = layer
            setattr(module, attr, self._wrap(original, name, layer, on_result.get(name)))
        original = scipy.optimize.minimize
        self._patches.append((scipy.optimize, "minimize", original))
        self.layer_of[LBFGS[0]] = LBFGS[1]
        scipy.optimize.minimize = self._wrap(original, *LBFGS, self._lbfgs_result)

    def remove(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- summary

    def totals(self):
        """Per span name: calls, seconds and self seconds; plus layer self times."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, layer, parent, start, end, child in self.spans:
            record = out[name]
            record["calls"] += 1
            record["s"] += end - start
            record["self_s"] += end - start - child
        for name, (calls, seconds) in self.leaf.items():
            record = out[name]
            record["calls"] += calls
            record["s"] += seconds
            record["self_s"] += seconds
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, record in out.items():
            layers[self.layer_of[name]] += record["self_s"]
        return dict(out), layers

    def span_records(self):
        return [
            {"name": name, "parent": parent, "start": start, "end": end,
             "self_s": end - start - child}
            for name, layer, parent, start, end, child in self.spans
        ]
