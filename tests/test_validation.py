"""One rule for every input: each public entry that takes a real or a count
rejects what is not one with ValidationError, and only `errors.py` spells
out the bool exclusion and the finite-result check."""

import math
import re
from pathlib import Path

import pytest

import mfrac
from mfrac.errors import ValidationError
from mfrac.expr import DualNumber, as_dual_fn, as_fn, parse
from mfrac.fracderiv import (
    DerivFamily,
    FracParams,
    deriv_closed,
    deriv_higher,
    deriv_higher_limit,
    deriv_limit,
    family_params,
    mvt_witness,
    rolle_witness,
)
from mfrac.fracint import (
    QuadratureResult,
    check_inverse_di,
    check_inverse_id,
    integrate_adaptive,
    mfrac_integral,
)
from mfrac.heat import HeatProblem, heat_residual, series_grid, solve_heat
from mfrac.ode import LinearOdeProblem, TermSign, solve_linear
from mfrac.special import MLParams, TruncationIndex, gamma, ln_gamma, ml_kernel, ml_truncated

P = FracParams(0.5, 1.0)
PROFILE = parse("50*x*(1-x)")
SQUARE = parse("x^2")
HEAT = solve_heat(HeatProblem(1.0, 0.003, 0.5, 1.0, PROFILE, 5))
ODE = LinearOdeProblem(1.0, TermSign.PLUS, 1.0, P)


def cubic_derivs(t, m):
    return (t**3, 3.0 * t**2, 6.0 * t, 6.0)[m]


def constant_dual(t):
    return DualNumber(0.0, 0.0)


# Every public entry that takes a real, with that real as the one argument.
# Before one check served them all, HeatSolution.evaluate(0.5, True) returned
# the t = 1 value and ln_gamma(10**400) raised a bare OverflowError.
REAL_ENTRIES = {
    "ln_gamma": ln_gamma,
    "gamma": gamma,
    "ml_truncated-z": lambda v: ml_truncated(v, MLParams(1.0)),
    "ml_kernel-z": lambda v: ml_kernel(MLParams(1.0, TruncationIndex(5)))(v),
    "MLParams-beta": MLParams,
    "FracParams-alpha": lambda v: FracParams(v, 1.0),
    "FracParams-beta": lambda v: FracParams(0.5, v),
    "family_params-alpha": lambda v: family_params(DerivFamily.conformable(), v),
    "deriv_closed-t": lambda v: deriv_closed(as_dual_fn(SQUARE), P, v),
    "deriv_limit-t": lambda v: deriv_limit(as_fn(SQUARE), P, v),
    "deriv_higher-t": lambda v: deriv_higher(cubic_derivs, FracParams(1.5, 1.0), 1, v),
    "deriv_higher_limit-t": lambda v: deriv_higher_limit(cubic_derivs, FracParams(1.5, 1.0), 1, v),
    "rolle_witness-a": lambda v: rolle_witness(constant_dual, v, 2.0, P),
    "rolle_witness-b": lambda v: rolle_witness(constant_dual, 0.5, v, P),
    "mvt_witness-a": lambda v: mvt_witness(constant_dual, v, 2.0, P),
    "mvt_witness-b": lambda v: mvt_witness(constant_dual, 0.5, v, P),
    "integrate_adaptive-a": lambda v: integrate_adaptive(math.sin, v, 2.0),
    "integrate_adaptive-b": lambda v: integrate_adaptive(math.sin, 0.0, v),
    "integrate_adaptive-abs_tol": lambda v: integrate_adaptive(math.sin, 0.0, 1.0, abs_tol=v),
    "integrate_adaptive-rel_tol": lambda v: integrate_adaptive(math.sin, 0.0, 1.0, rel_tol=v),
    "mfrac_integral-a": lambda v: mfrac_integral(math.sin, v, 2.0, P),
    "mfrac_integral-t": lambda v: mfrac_integral(math.sin, 0.0, v, P),
    "check_inverse_di-a": lambda v: check_inverse_di(math.sin, v, 2.0, P),
    "check_inverse_di-t": lambda v: check_inverse_di(math.sin, 0.0, v, P),
    "check_inverse_id-a": lambda v: check_inverse_id(
        as_fn(SQUARE), as_dual_fn(SQUARE), v, 2.0, P),
    "check_inverse_id-t": lambda v: check_inverse_id(
        as_fn(SQUARE), as_dual_fn(SQUARE), 1.0, v, P),
    "LinearOdeProblem-mu_sq": lambda v: LinearOdeProblem(v, TermSign.PLUS, 1.0, P),
    "LinearOdeProblem-c": lambda v: LinearOdeProblem(1.0, TermSign.PLUS, v, P),
    "solve_linear-t": lambda v: solve_linear(ODE)(v),
    "HeatProblem-L": lambda v: HeatProblem(v, 0.003, 0.5, 1.0, PROFILE),
    "HeatProblem-k": lambda v: HeatProblem(1.0, v, 0.5, 1.0, PROFILE),
    "HeatProblem-alpha": lambda v: HeatProblem(1.0, 0.003, v, 1.0, PROFILE),
    "HeatProblem-beta": lambda v: HeatProblem(1.0, 0.003, 0.5, v, PROFILE),
    "HeatSolution.evaluate-x": lambda v: HEAT.evaluate(v, 1.0),
    "HeatSolution.evaluate-t": lambda v: HEAT.evaluate(0.5, v),
    "series_grid-x": lambda v: list(series_grid([HEAT], [0.5, v], 1.0)),
    "series_grid-t": lambda v: list(series_grid([HEAT], [0.5], v)),
    "heat_residual-x": lambda v: heat_residual(HEAT, v, 1.0),
    "heat_residual-t": lambda v: heat_residual(HEAT, 0.5, v),
    "solve_heat-coefficient": lambda v: solve_heat(HEAT.problem, coefficients=(v, 0, 0, 0, 0)),
}

NOT_REALS = {"true": True, "nan": math.nan, "inf": math.inf, "huge-int": 10**400}


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS.keys())
@pytest.mark.parametrize("call", REAL_ENTRIES.values(), ids=REAL_ENTRIES.keys())
def test_a_real_that_is_not_one_is_rejected(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


# Every public count, with its smallest admissible value.
COUNT_ENTRIES = {
    "TruncationIndex": (TruncationIndex, 0),
    "DerivFamily.generalized": (DerivFamily.generalized, 0),
    "HeatProblem-n_terms": (lambda n: HeatProblem(1.0, 0.003, 0.5, 1.0, PROFILE, n), 1),
    "deriv_higher-n": (lambda n: deriv_higher(cubic_derivs, FracParams(1.5, 1.0), n, 2.0), 0),
    "deriv_higher_limit-n": (
        lambda n: deriv_higher_limit(cubic_derivs, FracParams(1.5, 1.0), n, 2.0), 0),
    "QuadratureResult-subdivisions": (lambda n: QuadratureResult(0.0, 0.0, n), 1),
}


@pytest.mark.parametrize("kind", ["true", "float", "below-minimum"])
@pytest.mark.parametrize("call,minimum", COUNT_ENTRIES.values(), ids=COUNT_ENTRIES.keys())
def test_a_count_that_is_not_one_is_rejected(call, minimum, kind):
    bad = {"true": True, "float": 2.0, "below-minimum": minimum - 1}[kind]
    with pytest.raises(ValidationError):
        call(bad)


def test_only_errors_module_tests_for_bool():
    package = Path(mfrac.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"isinstance\([^)]*\bbool\b", line)
    ]
    assert offenders == [], "check reals and counts with the mfrac.errors helpers"


def test_only_errors_module_judges_computed_results():
    package = Path(mfrac.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if "is not finite (" in line
    ]
    assert offenders == [], "check computed results with mfrac.errors.require_finite"
