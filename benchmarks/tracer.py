"""Spans and work counts at the layer boundaries of `mfrac`, recorded from
outside the library.

`Tracer.install()` replaces the public names each layer is called through
(for example `mfrac.cli.fourier_coeffs` or `HeatSolution.evaluate`) with
wrappers.  A span records (id, name, start, end, parent, op).  Names called
thousands of times per operation are leaves: their time and call count are
summed per (name, parent span) instead of stored one by one, and a leaf never
calls another instrumented name.  Everything stays in memory until `dump()`.

Run as a script it traces one CLI call in this interpreter:

    PYTHONPATH=src python3 benchmarks/tracer.py SPANS.json OP_ID figures --output-dir DIR
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "expr", "special", "fracderiv", "fracint", "ode", "heat")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaves = {}
        self.counts = Counter()
        self.stack = [(0, "")]
        self.next_id = 1
        self.op = -1
        self.error_type = None
        self.saved = []

    def _error(self, name, parent_name):
        # Count an exception once per layer it leaves, not once per wrapper.
        if layer_of(parent_name) != layer_of(name):
            self.counts[f"{layer_of(name)}.errors"] += 1

    def span(self, name, fn, after=None):
        pc, stack = time.perf_counter, self.stack

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1]
            stack.append((sid, name))
            start = pc()
            try:
                result = fn(*args, **kwargs)
            except self.error_type:
                self._error(name, parent[1])
                raise
            finally:
                end = pc()
                stack.pop()
                self.spans.append((sid, name, start, end, parent[0], self.op))
            if after is not None:
                after(result)
            return result

        return wrapper

    def leaf(self, name, fn, before=None):
        pc, stack, leaves = time.perf_counter, self.stack, self.leaves

        def wrapper(*args):
            if before is not None:
                before(*args)
            start = pc()
            try:
                return fn(*args)
            except self.error_type:
                self._error(name, stack[-1][1])
                raise
            finally:
                elapsed = pc() - start
                key = (name, stack[-1][0])
                record = leaves.get(key)
                if record is None:
                    leaves[key] = [1, elapsed, self.op]
                else:
                    record[0] += 1
                    record[1] += elapsed

        return wrapper

    def install(self):
        """Wrap the names each layer is called through, until `uninstall()`."""
        from mfrac import MfracError, cli, fracint, fracderiv, heat, ode, special

        self.error_type = MfracError
        counts, span, leaf = self.counts, self.span, self.leaf

        def main_done(code):
            if code:
                counts["cli.errors"] += 1

        def project_done(coeffs):
            counts["heat.coeffs"] += len(coeffs)

        def quad(fn):
            traced = span("fracint.quad", fn)

            def counted_quad(f, *args, **kwargs):
                def integrand(x):
                    counts["fracint.integrand_evals"] += 1
                    return f(x)

                counts["fracint.quad_calls"] += 1
                result = traced(integrand, *args, **kwargs)
                counts["fracint.panels"] += result.subdivisions
                return result

            return counted_quad

        def series_terms(sol, x, t):
            if 0.0 < x < sol.problem.L:
                counts["heat.series_terms"] += len(sol.coefficients)

        def ln_gamma(fn):
            def counted(x):
                counts["special.lngamma_calls"] += 1
                return fn(x)

            return counted

        targets = (
            (cli, "main", lambda f: span("cli.main", f, main_done)),
            (cli, "build_parser", lambda f: span("cli.build_parser", f)),
            (cli, "parse", lambda f: span("expr.parse", f)),
            (cli, "as_fn", lambda f: lambda tree: leaf("expr.value", f(tree))),
            (cli, "as_dual_fn", lambda f: lambda tree: leaf("expr.dual", f(tree))),
            (cli, "fourier_coeffs", lambda f: span("heat.project", f, project_done)),
            (cli, "deriv_closed", lambda f: span("fracderiv.closed", f)),
            (ode, "deriv_closed", lambda f: span("fracderiv.closed", f)),
            (cli, "deriv_limit", lambda f: span("fracderiv.limit", f)),
            (cli, "mfrac_integral", lambda f: span("fracint.mfrac_integral", f)),
            (cli, "solve_linear", lambda f: span("ode.solve", f)),
            (cli, "verify_linear", lambda f: span("ode.solve", f)),
            (cli, "ml_truncated", lambda f: leaf("special.ml", f)),
            (fracderiv, "ml_truncated", lambda f: leaf("special.ml", f)),
            (heat, "integrate_adaptive", quad),
            (fracint, "integrate_adaptive", quad),
            (heat, "evaluate", lambda f: leaf("expr.value", f)),
            (special, "ln_gamma", ln_gamma),
            (heat.HeatSolution, "evaluate", lambda f: leaf("heat.series", f, series_terms)),
            (heat.HeatSolution, "__call__", lambda f: leaf("heat.series", f, series_terms)),
            (cli.CsvTable, "to_csv", lambda f: span("cli.csv", f)),
        )
        self.saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        for obj, attr, wrap in targets:
            setattr(obj, attr, wrap(getattr(obj, attr)))
        return self

    def uninstall(self):
        """Put back every name `install()` replaced."""
        for obj, attr, original in self.saved:
            setattr(obj, attr, original)
        self.saved = []

    def dump(self, path):
        leaves = [[name, parent, n, total, op] for (name, parent), (n, total, op)
                  in self.leaves.items()]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "leaves": leaves, "counts": self.counts}, handle)


if __name__ == "__main__":
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    tracer.op = op_id
    from mfrac import cli

    code = cli.main(argv)
    tracer.dump(spans_path)
    sys.exit(code)
