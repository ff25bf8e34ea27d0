"""Command line front-end.

Subcommands: ml-eval, deriv, integrate, ode, heat, compare, figures.
Exit codes: 0 success, 1 validation error, 2 numerical non-convergence,
3 I/O error.  All CSV output is deterministic: 17-significant-digit decimal
floats, '.' decimal separator, ',' delimiter, '\n' line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ValidationError
from .expr import as_dual_fn, as_fn, parse
from .fracderiv import (
    DerivFamily,
    FracParams,
    deriv_closed,
    deriv_limit,
    family_params,
)
from .fracint import mfrac_integral
from .heat import HeatProblem, fourier_coeffs, series_grid, solve_heat
from .ode import LinearOdeProblem, TermSign, solve_linear, verify_linear
from .special import INFINITY, MLParams, TruncationIndex, ml_truncated

__all__ = ["CsvTable", "main", "run"]

_BOTH_METHODS_TOL = 1e-5

_FIGURE_ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)
_FIGURE_BETAS = ((1, 0.5), (2, 1.0), (3, 2.0))
_FIGURE_PROFILE = "50*x*(1-x)"


@dataclass
class CsvTable:
    """Rectangular table rendered as deterministic CSV text."""

    header: tuple[str, ...]
    rows: list[tuple]

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, str):
            return value
        return f"{value:.17g}"

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValidationError("table rows must match the header width")
            lines.append(",".join(self._cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path: str):
        with open(path, "w", encoding="ascii", newline="") as handle:
            handle.write(self.to_csv())


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
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'inf', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"truncation index must be >= 0, got {value}")
    return TruncationIndex(value)


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


def _cmd_ml_eval(args) -> int:
    value = ml_truncated(args.z, MLParams(args.beta, args.i))
    print(repr(value))
    return 0


def _cmd_deriv(args) -> int:
    tree = parse(args.f)
    p = FracParams(args.alpha, args.beta, args.i)
    if args.method == "closed":
        print(repr(deriv_closed(as_dual_fn(tree), p, args.t)))
        return 0
    if args.method == "limit":
        print(repr(deriv_limit(as_fn(tree), p, args.t).value))
        return 0
    closed = deriv_closed(as_dual_fn(tree), p, args.t)
    limit = deriv_limit(as_fn(tree), p, args.t).value
    gap = abs(closed - limit)
    print(f"{closed!r},{limit!r},{gap!r}")
    if gap > _BOTH_METHODS_TOL * (1.0 + abs(closed)):
        print(f"error: closed and limit values disagree by {gap:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_integrate(args) -> int:
    result = mfrac_integral(
        as_fn(parse(args.f)), args.a, args.t, FracParams(args.alpha, args.beta)
    )
    print(f"{result.value!r},{result.abs_error_estimate!r}")
    return 0


def _cmd_ode(args) -> int:
    prob = LinearOdeProblem(
        mu_sq=args.mu_sq,
        sign=TermSign(args.sign),
        c=args.c,
        p=FracParams(args.alpha, args.beta),
    )
    sol = solve_linear(prob)
    ts = args.ts if args.ts else [1.0]
    rows = []
    for t in ts:
        residual = verify_linear(sol, prob, (t,))
        rows.append((t, sol(t), residual))
    sys.stdout.write(CsvTable(("t", "v", "residual"), rows).to_csv())
    return 0


_HEAT_DEFAULTS = {"n_terms": 51, "x_points": 201}
_HEAT_KEYS = ("L", "k", "alpha", "beta", "f", "n_terms", "t", "x_points", "output")


def _load_heat_config(args) -> dict:
    config = dict(_HEAT_DEFAULTS)
    if args.config is not None:
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
    overrides = {
        "L": args.L, "k": args.k, "alpha": args.alpha, "beta": args.beta,
        "f": args.f, "n_terms": args.n_terms, "t": args.t,
        "x_points": args.x_points, "output": args.output,
    }
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    return config


def _require_number(config, key, *, integer=False):
    if key not in config:
        raise ValidationError(f"config key '{key}' is required")
    value = config[key]
    if integer:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"config key '{key}' must be an integer, got {value!r}")
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
        raise ValidationError(f"config key '{key}' must be a finite number, got {value!r}")
    return float(value)


def _column_label(alpha: float) -> str:
    return f"u_alpha_{alpha:g}"


def _heat_setup(config) -> tuple[list[HeatProblem], float, list[float]]:
    """The validated problems of a heat config (one per alpha), its time and its grid."""
    length = _require_number(config, "L")
    diffusivity = _require_number(config, "k")
    beta = _require_number(config, "beta")
    t = _require_number(config, "t")
    n_terms = _require_number(config, "n_terms", integer=True)
    x_points = _require_number(config, "x_points", integer=True)
    if x_points < 2:
        raise ValidationError(f"config key 'x_points' must be at least 2, got {x_points}")
    if t < 0:
        raise ValidationError(f"config key 't' must be non-negative, got {t}")
    if "f" not in config:
        raise ValidationError("config key 'f' is required")
    if not isinstance(config["f"], str):
        raise ValidationError(f"config key 'f' must be an expression string, got {config['f']!r}")
    alphas = config.get("alpha")
    if alphas is None:
        raise ValidationError("config key 'alpha' is required")
    if isinstance(alphas, (int, float)) and not isinstance(alphas, bool):
        alphas = [float(alphas)]
    elif isinstance(alphas, list) and alphas and all(
        isinstance(a, (int, float)) and not isinstance(a, bool) for a in alphas
    ):
        alphas = [float(a) for a in alphas]
    else:
        raise ValidationError(
            f"config key 'alpha' must be a number or a non-empty list of numbers, got {alphas!r}"
        )
    labels = [_column_label(a) for a in alphas]
    if len(set(labels)) != len(labels):
        raise ValidationError("config key 'alpha' contains duplicate values")

    try:
        profile = parse(config["f"])
    except ValidationError as exc:
        raise ValidationError(f"config key 'f': {exc}") from None

    def build_problem(alpha):
        try:
            return HeatProblem(L=length, k=diffusivity, alpha=alpha, beta=beta,
                               initial_profile=profile, n_terms=n_terms)
        except ValidationError as exc:
            raise ValidationError(f"config key 'alpha': {exc}") from None

    problems = [build_problem(a) for a in alphas]
    # L*(n-1)/(n-1) can round above L; the grid must stay inside [0, L].
    xs = [min(length * i / (x_points - 1), length) for i in range(x_points)]
    return problems, t, xs


def _heat_table(problems, t, xs, coefficients) -> CsvTable:
    solutions = [solve_heat(prob, coefficients=coefficients) for prob in problems]
    rows = [(x, *cells) for x, cells in zip(xs, series_grid(solutions, xs, t))]
    return CsvTable(("x", *(_column_label(prob.alpha) for prob in problems)), rows)


def _cmd_heat(args) -> int:
    config = _load_heat_config(args)
    if "output" not in config or config["output"] is None:
        raise ValidationError("config key 'output' is required")
    if not isinstance(config["output"], str):
        raise ValidationError(f"config key 'output' must be a path, got {config['output']!r}")
    problems, t, xs = _heat_setup(config)
    # The projection depends on neither alpha nor beta; compute it once.
    table = _heat_table(problems, t, xs, fourier_coeffs(problems[0]))
    table.write(config["output"])
    return 0


def _cmd_figures(args) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    coefficients = None
    for index, beta in _FIGURE_BETAS:
        problems, t, xs = _heat_setup({
            "L": 1.0, "k": 0.003, "alpha": list(_FIGURE_ALPHAS), "beta": beta,
            "f": _FIGURE_PROFILE, "n_terms": 51, "t": 150.0, "x_points": 201,
        })
        if coefficients is None:
            # All three figures share the profile, so one projection serves them.
            coefficients = fourier_coeffs(problems[0])
        table = _heat_table(problems, t, xs, coefficients)
        table.write(os.path.join(args.output_dir, f"figure{index}.csv"))
    return 0


def _compare_families() -> list[DerivFamily]:
    families = [DerivFamily.conformable()]
    families += [DerivFamily.generalized(i) for i in (1, 2, 5, 10, 20)]
    families.append(DerivFamily.alternative())
    families += [DerivFamily.m_fractional(b) for b in (0.5, 1.0, 2.0)]
    return families


def _cmd_compare(args) -> int:
    tree = parse(args.f)
    f = as_fn(tree)
    reference = deriv_closed(as_dual_fn(tree), FracParams(args.alpha, 1.0), args.t)
    rows = [("closed_beta1", reference, 0.0)]
    for family in _compare_families():
        value = deriv_limit(f, family_params(family, args.alpha), args.t).value
        rows.append((family.label, value, abs(value - reference)))
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
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
