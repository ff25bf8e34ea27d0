"""Local fractional calculus built on a truncated Mittag-Leffler kernel.

The package provides the kernel special functions, an expression front-end
with forward-mode differentiation, the derivative and integral operators of
the kernel family, linear and general first-order ODE solvers, an analytical
heat-equation solver, and a CSV-emitting command line interface.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    MfracError,
    ToleranceNotMetError,
    ValidationError,
)
from .expr import DualNumber, Expr, ParseError, UnknownIdentifierError
from .expr import as_dual_fn, as_fn, evaluate, evaluate_dual, parse, unparse
from .fracderiv import (
    DerivFamily,
    FracParams,
    LimitEstimate,
    deriv_at_zero,
    deriv_closed,
    deriv_higher,
    deriv_higher_limit,
    deriv_limit,
    family_params,
    mvt_witness,
    rolle_witness,
)
from .fracint import (
    QuadratureResult,
    check_inverse_di,
    check_inverse_id,
    integrate_adaptive,
    mfrac_integral,
)
from .heat import (
    HeatProblem,
    HeatSolution,
    fourier_coeffs,
    heat_residual,
    limit_solutions,
    series_grid,
    solve_heat,
)
from .ode import LinearOdeProblem, OdeSolution, TermSign, solve_general, solve_linear, verify_linear
from .special import (
    INFINITY,
    MLParams,
    TruncationIndex,
    gamma,
    ln_gamma,
    ml_kernel,
    ml_truncated,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DerivFamily",
    "DomainError",
    "DualNumber",
    "Expr",
    "FracParams",
    "HeatProblem",
    "HeatSolution",
    "INFINITY",
    "LimitEstimate",
    "LinearOdeProblem",
    "MLParams",
    "MfracError",
    "OdeSolution",
    "ParseError",
    "QuadratureResult",
    "TermSign",
    "ToleranceNotMetError",
    "TruncationIndex",
    "UnknownIdentifierError",
    "ValidationError",
    "__version__",
    "as_dual_fn",
    "as_fn",
    "check_inverse_di",
    "check_inverse_id",
    "deriv_at_zero",
    "deriv_closed",
    "deriv_higher",
    "deriv_higher_limit",
    "deriv_limit",
    "evaluate",
    "evaluate_dual",
    "family_params",
    "fourier_coeffs",
    "gamma",
    "heat_residual",
    "integrate_adaptive",
    "limit_solutions",
    "ln_gamma",
    "mfrac_integral",
    "ml_kernel",
    "ml_truncated",
    "mvt_witness",
    "parse",
    "rolle_witness",
    "series_grid",
    "solve_general",
    "solve_heat",
    "solve_linear",
    "unparse",
    "verify_linear",
]
