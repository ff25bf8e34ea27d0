"""Local fractional calculus built on a truncated Mittag-Leffler kernel.

The package provides the kernel special functions, an expression front-end
with forward-mode differentiation, the derivative and integral operators of
the kernel family, the closed-form linear first-order ODE, an analytical
heat-equation solver, and a CSV-emitting command line interface.

``import mfrac`` loads no submodule: each public name is imported from its
home module on first access (PEP 562), so a process pays only for the
modules it uses.
"""

__version__ = "0.1.0"

# Each submodule with the public names it defines.
_PUBLIC = {
    "errors": ("ConvergenceError", "DomainError", "MfracError", "ToleranceNotMetError",
               "ValidationError"),
    "expr": ("DualNumber", "Expr", "ParseError", "UnknownIdentifierError", "as_dual_fn",
             "as_fn", "evaluate", "evaluate_dual", "parse", "unparse"),
    "fracderiv": ("DerivFamily", "FracParams", "LimitEstimate", "deriv_closed",
                  "deriv_higher", "deriv_higher_limit", "deriv_limit", "family_params",
                  "mvt_witness", "rolle_witness"),
    "fracint": ("check_inverse_di", "check_inverse_id", "mfrac_integral"),
    "heat": ("HeatProblem", "HeatSolution", "fourier_coeffs", "heat_residual", "series_grid",
             "solve_heat"),
    "ode": ("LinearOdeProblem", "OdeSolution", "TermSign", "solve_linear", "verify_linear"),
    "quad": ("QuadratureResult", "integrate_adaptive"),
    "special": ("INFINITY", "MLParams", "TruncationIndex", "gamma", "ln_gamma", "ml_kernel",
                "ml_truncated"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # ``from .<module> import <name>``, bound here so later lookups skip this hook.
    value = globals()[name] = getattr(__import__(module, globals(), None, (name,), 1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
