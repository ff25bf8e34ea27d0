"""Command line front-end.

Subcommands: ml-eval, deriv, integrate, ode, heat, compare, figures.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence,
3 I/O error.  All CSV output is deterministic: 17-significant-digit decimal
floats, '.' decimal separator, ',' delimiter, '\n' line endings.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import sys

from .errors import ConvergenceError, DomainError, Record, ValidationError
from .errors import require_finite, require_int, require_positive, require_real
from .expr import as_dual_fn, as_fn, parse
from .heat import HeatProblem, fourier_coeffs, series_grid, solve_heat
from .special import INFINITY, MLParams, TruncationIndex, ml_truncated

__all__ = ["CsvTable", "main", "run"]

# The names that only deriv, integrate, ode and compare call, with their home
# modules.  They are bound on first use, so that `figures` and `heat` never
# load fracderiv, fracint or ode.
_DEFERRED = {
    "DerivFamily": "fracderiv",
    "FracParams": "fracderiv",
    "deriv_closed": "fracderiv",
    "deriv_limit": "fracderiv",
    "family_params": "fracderiv",
    "mfrac_integral": "fracint",
    "LinearOdeProblem": "ode",
    "TermSign": "ode",
    "solve_linear": "ode",
    "verify_linear": "ode",
}

_BOTH_METHODS_TOL = 1e-5

_FIGURE_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
_FIGURE_BETAS = ((1, 0.5), (2, 1.0), (3, 2.0))
_FIGURE_PROFILE = "50*x*(1-x)"


class CsvTable(Record):
    """Rectangular table rendered as deterministic CSV text."""

    __slots__ = ("header", "rows")

    def __init__(self, header: tuple[str, ...], rows: list[tuple]):
        super().__init__(header, rows)

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, str):
            return value
        return f"{value:.17g}"

    def to_csv(self) -> str:
        """The header and rows as CSV text, one ``%`` format call per row.

        A row that the all-number format rejects (a str cell such as a
        compare label, or a row that is not a tuple) is formatted cell by
        cell into the same bytes; a row of the wrong width raises
        ValidationError.
        """
        number = ",".join(["%.17g"] * len(self.header))
        lines = [",".join(self.header)]
        for row in self.rows:
            try:
                lines.append(number % row)
            except TypeError:
                # A row of the wrong width always lands here: ``%`` rejects it.
                if len(row) != len(self.header):
                    raise ValidationError("table rows must match the header width") from None
                lines.append(",".join([self._cell(v) for v in row]))
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        """Write the CSV as ASCII bytes; a table that is not ASCII creates no file."""
        try:
            data = self.to_csv().encode("ascii")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"a CSV table must be ASCII text: {exc}") from None
        with open(path, "wb") as handle:
            handle.write(data)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this interface reserves
    # for numerical non-convergence; bad flags are validation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _trunc_arg(text: str) -> TruncationIndex:
    if text.lower() in ("inf", "infinity"):
        return INFINITY
    try:
        return TruncationIndex(int(text))
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'inf', got {text!r}"
        ) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by later ones.

    Parsing leaves the parser unchanged (every result goes to a fresh
    namespace), so `main` may be called any number of times in one process.
    """
    parser = _Parser(prog="mfrac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ml-eval",
                       help="evaluate the truncated Mittag-Leffler sum")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--i", type=_trunc_arg, required=True, metavar="I|inf")
    p.set_defaults(handler=_cmd_ml_eval)

    p = sub.add_parser("deriv",
                       help="fractional derivative of an expression at a point")
    p.add_argument("--f", required=True, help="expression in x or t")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--i", type=_trunc_arg, default=INFINITY, metavar="I|inf")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=("closed", "limit", "both"), default="both")
    p.set_defaults(handler=_cmd_deriv)

    p = sub.add_parser("integrate",
                       help="weighted fractional integral of an expression")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("ode",
                       help="closed-form linear equation D v +/- mu^2 v = 0")
    p.add_argument("--mu-sq", type=float, required=True, dest="mu_sq")
    p.add_argument("--sign", choices=("plus", "minus"), required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, action="append", dest="ts", metavar="T",
                   help="sample time; repeatable (default 1.0)")
    p.set_defaults(handler=_cmd_ode)

    p = sub.add_parser("heat",
                       help="heat-equation series solution written as CSV")
    p.add_argument("--config", help="JSON file with keys "
                   "L, k, alpha, beta, f, n_terms, t, x_points, output")
    p.add_argument("--L", type=float, dest="L")
    p.add_argument("--k", type=float)
    p.add_argument("--alpha", type=float, action="append",
                   help="derivative order; repeatable for several columns")
    p.add_argument("--beta", type=float)
    p.add_argument("--f")
    p.add_argument("--n-terms", type=int, dest="n_terms")
    p.add_argument("--t", type=float)
    p.add_argument("--x-points", type=int, dest="x_points")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("compare",
                       help="limit-definition values across the derivative families")
    p.add_argument("--f", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("figures",
                       help="emit the three reference figure data sets")
    p.add_argument("--output-dir", required=True, dest="output_dir")
    p.set_defaults(handler=_cmd_figures)

    return parser


@functools.cache
def _bind_deferred():
    """Bind every name of _DEFERRED, once.  A name that is already bound, such
    as a wrapper set on this module from outside, keeps its value."""
    namespace = globals()
    for name, module in _DEFERRED.items():
        if name not in namespace:
            namespace[name] = getattr(__import__(module, namespace, None, (name,), 1), name)


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_deferred()
    return globals()[name]


def _cmd_ml_eval(args) -> int:
    value = ml_truncated(args.z, MLParams(args.beta, args.i))
    print(repr(value))
    return 0


def _cmd_deriv(args) -> int:
    _bind_deferred()
    tree = parse(args.f)
    p = FracParams(args.alpha, args.beta, args.i)
    if args.method != "limit":
        closed = require_finite("closed-form derivative", deriv_closed(as_dual_fn(tree), p, args.t))
    if args.method == "closed":
        print(repr(closed))
        return 0
    limit = require_finite("limit derivative", deriv_limit(as_fn(tree), p, args.t).value)
    if args.method == "limit":
        print(repr(limit))
        return 0
    gap = require_finite("gap between the closed-form and limit derivatives", abs(closed - limit))
    print(f"{closed!r},{limit!r},{gap!r}")
    if gap > _BOTH_METHODS_TOL * (1.0 + abs(closed)):
        print(f"error: closed and limit values disagree by {gap:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_integrate(args) -> int:
    _bind_deferred()
    result = mfrac_integral(
        as_fn(parse(args.f)), args.a, args.t, FracParams(args.alpha, args.beta)
    )
    value = require_finite("integral", result.value)
    print(f"{value!r},{require_finite('error estimate', result.abs_error_estimate)!r}")
    return 0


def _cmd_ode(args) -> int:
    _bind_deferred()
    p = FracParams(args.alpha, args.beta)
    prob = LinearOdeProblem(args.mu_sq, TermSign(args.sign), args.c, p)
    sol = solve_linear(prob)
    rows = [(t, sol(t), require_finite("residual", verify_linear(sol, prob, (t,))))
            for t in args.ts or [1.0]]
    sys.stdout.write(CsvTable(("t", "v", "residual"), rows).to_csv())
    return 0


_HEAT_DEFAULTS = {"n_terms": 51, "x_points": 201}
_HEAT_KEYS = ("L", "k", "alpha", "beta", "f", "n_terms", "t", "x_points", "output")


def _load_heat_config(args) -> dict:
    config = dict(_HEAT_DEFAULTS)
    if args.config is not None:
        import json  # imported here, so that a run without a config never loads it

        with open(args.config, "r", encoding="utf-8") as handle:
            try:
                loaded = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError("config must be a JSON object")
        for key in loaded:
            if key not in _HEAT_KEYS:
                raise ValidationError(f"config key '{key}' is not recognized")
        config.update(loaded)
    for key in _HEAT_KEYS:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    return config


def _config_value(config, key, check, *args):
    """``config[key]`` passed through ``check``, which names it by its key."""
    if config.get(key) is None:
        raise ValidationError(f"config key '{key}' is required")
    return check(f"config key '{key}'", config[key], *args)


def _reals(name, value):
    """A real or a non-empty list of reals, as a list of floats."""
    values = value if isinstance(value, list) and value else [value]
    return [float(require_real(name, v)) for v in values]


def _column_label(alpha: float) -> str:
    """The header ``u_alpha_`` plus alpha to six significant digits when
    that text reads back as alpha, or its repr otherwise, so that distinct
    alphas get distinct headers."""
    text = f"{alpha:g}"
    return f"u_alpha_{text if float(text) == alpha else repr(alpha)}"


def _heat_setup(config) -> tuple[list[HeatProblem], float, list[float]]:
    """The validated problems of a heat config (one per alpha), its time and its grid."""
    length = float(_config_value(config, "L", require_positive))
    diffusivity = float(_config_value(config, "k", require_positive))
    beta = float(_config_value(config, "beta", require_positive))
    t = float(_config_value(config, "t", require_real))
    n_terms = _config_value(config, "n_terms", require_int, 1)
    x_points = _config_value(config, "x_points", require_int, 2)
    if t < 0:
        raise ValidationError(f"config key 't' must be non-negative, got {t}")
    if "f" not in config:
        raise ValidationError("config key 'f' is required")
    if not isinstance(config["f"], str):
        raise ValidationError(f"config key 'f' must be an expression string, got {config['f']!r}")
    alphas = _config_value(config, "alpha", _reals)
    labels = [_column_label(a) for a in alphas]
    if len(set(labels)) != len(labels):
        raise ValidationError("config key 'alpha' contains duplicate values")

    try:
        profile = parse(config["f"])
    except ValidationError as exc:
        raise ValidationError(f"config key 'f': {exc}") from None

    problems = [HeatProblem(length, diffusivity, a, beta, profile, n_terms) for a in alphas]
    xs = [length * i / (x_points - 1) for i in range(x_points)]
    # L*(n-1)/(n-1) can round above L and no other finite point can; the grid
    # must stay inside [0, L].  series_grid rejects the inf of an overflowing L*i.
    xs[-1] = min(xs[-1], length)
    return problems, t, xs


def _heat_tables(groups, t, xs, coefficients) -> list[CsvTable]:
    """One table per group of problems, with one column per problem.

    Every problem shares L, the profile and hence the coefficients, so one
    series pass over all columns computes each term c_n * sin(n*pi*x/L) once
    per grid point.
    """
    solutions = [solve_heat(prob, coefficients=coefficients) for group in groups for prob in group]
    columns = series_grid(solutions, xs, t)
    bounds = list(itertools.accumulate((len(group) for group in groups), initial=0))
    return [
        CsvTable(("x", *(_column_label(prob.alpha) for prob in group)),
                 list(zip(xs, *columns[lo:hi])))
        for group, lo, hi in zip(groups, bounds, bounds[1:])
    ]


def _cmd_heat(args) -> int:
    config = _load_heat_config(args)
    if "output" not in config or config["output"] is None:
        raise ValidationError("config key 'output' is required")
    if not isinstance(config["output"], str):
        raise ValidationError(f"config key 'output' must be a path, got {config['output']!r}")
    problems, t, xs = _heat_setup(config)
    # The projection depends on neither alpha nor beta; compute it once.
    [table] = _heat_tables([problems], t, xs, fourier_coeffs(problems[0]))
    table.write(config["output"])
    return 0


def _cmd_figures(args) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    groups = []
    for _, beta in _FIGURE_BETAS:
        problems, t, xs = _heat_setup({
            "L": 1.0, "k": 0.003, "alpha": list(_FIGURE_ALPHAS), "beta": beta,
            "f": _FIGURE_PROFILE, "n_terms": 51, "t": 150.0, "x_points": 201,
        })
        groups.append(problems)
    # The figures differ only in beta: one projection and one series pass
    # serve all three.
    tables = _heat_tables(groups, t, xs, fourier_coeffs(groups[0][0]))
    for (index, _), table in zip(_FIGURE_BETAS, tables):
        table.write(os.path.join(args.output_dir, f"figure{index}.csv"))
    return 0


def _compare_families() -> list[DerivFamily]:
    families = [DerivFamily.conformable()]
    families += [DerivFamily.generalized(i) for i in (1, 2, 5, 10, 20)]
    families.append(DerivFamily.alternative())
    families += [DerivFamily.m_fractional(b) for b in (0.5, 1.0, 2.0)]
    return families


def _cmd_compare(args) -> int:
    _bind_deferred()
    tree = parse(args.f)
    f = as_fn(tree)
    reference = deriv_closed(as_dual_fn(tree), FracParams(args.alpha, 1.0), args.t)
    rows = [("closed_beta1", require_finite("closed-form derivative", reference), 0.0)]
    for family in _compare_families():
        value = deriv_limit(f, family_params(family, args.alpha), args.t).value
        deviation = abs(require_finite(f"{family.label} limit derivative", value) - reference)
        rows.append((family.label, value, require_finite(f"{family.label} deviation", deviation)))
    sys.stdout.write(
        CsvTable(("family", "value", "abs_deviation_from_beta1_closed"), rows).to_csv()
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValidationError, DomainError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConvergenceError) else 3 if isinstance(exc, OSError) else 1


def run():
    """Run `main` on the command line and exit with its code.

    Standard output is flushed here, so that a write that fails only at the
    flush (a full disk, say) exits 3 with one error line like any I/O error.
    The heap is then frozen: the interpreter's collections at exit skip every
    object the process built, instead of walking them all for nothing.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
        # The interpreter flushes stdout once more at exit; make that one succeed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
