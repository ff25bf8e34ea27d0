"""Analytical heat-equation solver by separation of variables.

The fractional-in-time equation D_t^alpha u = k * u_xx on (0, L) with zero
boundary values and initial profile f(x) separates into sine eigenfunctions
sin(n*pi*x/L) and time factors exp(-Gamma(beta+1) * (n*pi/L)^2 * (k/alpha)
* t^alpha); only the negative separation constant produces nontrivial modes,
so the solver carries exactly that branch.  alpha = 1 is admitted here to
realize the classical limit even though the limit-definition operators keep
alpha < 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

from .errors import DomainError, ToleranceNotMetError, ValidationError
from .expr import Expr, as_fn, evaluate
from .fracint import integrate_adaptive
from .special import gamma

__all__ = [
    "HeatProblem",
    "HeatSolution",
    "fourier_coeffs",
    "heat_residual",
    "limit_solutions",
    "series_grid",
    "solve_heat",
]

_COEFF_ABS_TOL = 1e-12
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class HeatProblem:
    """Domain length L, diffusivity k, operator orders, initial profile, and
    the series truncation N."""

    L: float
    k: float
    alpha: float
    beta: float
    initial_profile: Expr
    n_terms: int = 51

    def __post_init__(self):
        for name in ("L", "k", "alpha", "beta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(f"{name} must be a finite real, got {v!r}")
        if self.L <= 0.0:
            raise ValidationError(f"L must be positive, got {self.L}")
        if self.k <= 0.0:
            raise ValidationError(f"k must be positive, got {self.k}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.beta <= 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if not isinstance(self.n_terms, int) or isinstance(self.n_terms, bool) or self.n_terms < 1:
            raise ValidationError(f"n_terms must be a positive integer, got {self.n_terms!r}")
        if not isinstance(self.initial_profile, Expr):
            raise ValidationError("initial_profile must be an expression tree")
        for edge in (0.0, self.L):
            value = evaluate(self.initial_profile, edge)
            if abs(value) > _BOUNDARY_TOL:
                raise ValidationError(
                    f"initial profile must vanish on the boundary: f({edge}) = {value!r}"
                )


def fourier_coeffs(prob: HeatProblem) -> list[float]:
    """Sine-projection coefficients c_n = (2/L) * integral of f(x) sin(n pi x / L).

    Each coefficient carries an absolute quadrature error of at most 1e-12.
    The coefficients depend only on the profile, L, and N, never on alpha or
    beta.
    """
    coeffs = []
    freq = math.pi / prob.L
    front = 2.0 / prob.L
    raw_tol = _COEFF_ABS_TOL / front
    profile = as_fn(prob.initial_profile)
    for n in range(1, prob.n_terms + 1):
        integrand = lambda x, w=n * freq: profile(x) * math.sin(w * x)
        try:
            result = integrate_adaptive(integrand, 0.0, prob.L, abs_tol=raw_tol, rel_tol=0.0)
        except ToleranceNotMetError as exc:
            raise ToleranceNotMetError(
                f"coefficient n={n} did not reach tolerance: {exc}", best=exc.best
            ) from None
        coeffs.append(front * result.value)
    return coeffs


@dataclass(frozen=True)
class HeatSolution:
    """Truncated sine-series solution; term n decays like
    exp(-decay_rates[n-1] * t^alpha)."""

    problem: HeatProblem
    coefficients: tuple[float, ...]
    decay_rates: tuple[float, ...]

    def evaluate(self, x: float, t: float) -> float:
        """Series value at (x, t); exactly 0 on the boundary."""
        return next(series_grid((self,), (x,), t))[0]

    __call__ = evaluate


def series_grid(solutions, xs, t: float):
    """Yield, for each x in ``xs``, the tuple of the solutions' values at (x, t).

    The solutions must share L and the coefficients, as the alpha columns of
    one table do.  The time factors exp(-rate_n * t^alpha) are computed once
    per solution and the terms c_n * sin(n*pi*x/L) once per x, so a grid of X
    points and A columns costs N*X sines and N*A exponentials.  Each value is
    exactly 0 on the boundary.  Rows are produced lazily, so a point outside
    [0, L] raises when its row is reached.
    """
    solutions = tuple(solutions)
    first = solutions[0]
    length = first.problem.L
    coeffs = first.coefficients
    if any(sol.problem.L != length or sol.coefficients != coeffs for sol in solutions):
        raise ValidationError("the solutions of one grid must share L and the coefficients")
    if not isinstance(t, (int, float)) or not math.isfinite(t):
        raise ValidationError(f"t must be a finite real, got {t!r}")
    if t < 0.0:
        raise ValidationError(f"t must be non-negative, got {t}")
    decays = []
    for sol in solutions:
        t_pow = t**sol.problem.alpha
        decays.append([math.exp(-rate * t_pow) for rate in sol.decay_rates])
    freq = math.pi / length
    freqs = [n * freq for n in range(1, len(coeffs) + 1)]
    edge = (0.0,) * len(solutions)
    for x in xs:
        if not 0.0 <= x <= length:
            raise ValidationError(f"x must lie in [0, {length}], got {x}")
        if x == 0.0 or x == length:
            yield edge
            continue
        terms = [c * math.sin(w * x) for c, w in zip(coeffs, freqs)]
        yield tuple([sum(map(operator.mul, terms, decay)) for decay in decays])


def solve_heat(prob: HeatProblem, *, coefficients=None) -> HeatSolution:
    """Build the truncated series solution.

    ``coefficients`` short-circuits the projection when the caller already
    holds them (they are alpha- and beta-independent); lengths must match.
    A decay rate Gamma(beta+1) * (n*pi/L)^2 * k / alpha that overflows a
    double raises DomainError.
    """
    if coefficients is None:
        coefficients = fourier_coeffs(prob)
    coefficients = tuple(float(c) for c in coefficients)
    if len(coefficients) != prob.n_terms:
        raise ValidationError(
            f"expected {prob.n_terms} coefficients, got {len(coefficients)}"
        )
    if not all(math.isfinite(c) for c in coefficients):
        raise ValidationError("coefficients must all be finite")
    scale = gamma(prob.beta + 1.0)
    rates = []
    for n in range(1, prob.n_terms + 1):
        try:
            rate = scale * (n * math.pi / prob.L) ** 2 * prob.k / prob.alpha
        except OverflowError:
            rate = math.inf
        # An infinite rate would turn exp(-rate * t^alpha) into nan at t = 0.
        if not math.isfinite(rate):
            raise DomainError(f"the decay rate of mode n={n} exceeds the largest double")
        rates.append(rate)
    return HeatSolution(problem=prob, coefficients=coefficients, decay_rates=tuple(rates))


def heat_residual(sol: HeatSolution, x: float, t: float) -> float:
    """|D_t^alpha u - k u_xx| at an interior point, formed term by term.

    The time factor of each term differentiates analytically: applying the
    closed-form operator to exp(-Gamma(beta+1) B t^alpha / alpha) leaves
    -B times the term, which is exactly what the spatial side produces, so
    only rounding noise survives.
    """
    prob = sol.problem
    if not 0.0 < x < prob.L:
        raise ValidationError(f"x must be interior to (0, {prob.L}), got {x}")
    if t <= 0.0:
        raise ValidationError(f"t must be positive, got {t}")
    scale = gamma(prob.beta + 1.0)
    freq = math.pi / prob.L
    t_pow = t**prob.alpha
    lhs = 0.0
    rhs = 0.0
    for n, (c, rate) in enumerate(zip(sol.coefficients, sol.decay_rates), start=1):
        term = c * math.sin(n * freq * x) * math.exp(-rate * t_pow)
        spatial_sq = (n * freq) ** 2
        # Chain through the exponent: d/dt exp(-rate t^alpha) carries
        # rate * alpha * t^(alpha-1); the operator multiplies by
        # t^(1-alpha)/Gamma(beta+1).
        time_factor = t ** (1.0 - prob.alpha) * (-rate * prob.alpha * t ** (prob.alpha - 1.0)) / scale
        lhs += time_factor * term
        rhs += prob.k * (-spatial_sq) * term
    return abs(lhs - rhs)


def limit_solutions(prob: HeatProblem) -> tuple[HeatSolution, HeatSolution]:
    """The beta -> 1 solution and the classical alpha = beta = 1 solution."""
    reduced = solve_heat(replace(prob, beta=1.0))
    classical = solve_heat(
        replace(prob, beta=1.0, alpha=1.0), coefficients=reduced.coefficients
    )
    return reduced, classical
