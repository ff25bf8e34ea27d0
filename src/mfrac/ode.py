"""First-order ODE solvers for the kernel derivative.

The linear constant-coefficient equation D v +/- mu^2 v = 0 has the closed
form v(t) = c * exp(-/+ Gamma(beta+1) * mu^2 * t^alpha / alpha); note the
exponent sign is opposite the sign of the mu^2 term, which is what
substituting the closed-form derivative forces (a plus-signed term decays).

A general D v = g(t, v) reduces through the closed form to the classical
equation v' = Gamma(beta+1) * t^(alpha-1) * g(t, v), integrated here with the
classical fourth-order Runge-Kutta scheme and cubic Hermite dense output.
The t^(alpha-1) factor is singular at 0, so integration must start at t0 > 0.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable

from .errors import ConvergenceError, DomainError, Record, ValidationError
from .errors import require_int, require_order, require_positive, require_real
from .expr import DualNumber
from .fracderiv import DualFn, FracParams, RealFn, deriv_closed
from .special import gamma

__all__ = [
    "LinearOdeProblem",
    "OdeSolution",
    "TermSign",
    "solve_general",
    "solve_linear",
    "verify_linear",
]


class TermSign(enum.Enum):
    """Sign of the mu^2 v term in D v +/- mu^2 v = 0."""

    PLUS = "plus"
    MINUS = "minus"


class LinearOdeProblem(Record):
    """D v +/- mu^2 v = 0 with v(0+) = c."""

    __slots__ = ("mu_sq", "sign", "c", "p")

    def __init__(self, mu_sq: float, sign: TermSign, c: float, p: FracParams):
        if not isinstance(sign, TermSign):
            raise ValidationError(f"sign must be a TermSign, got {sign!r}")
        require_positive("mu_sq", mu_sq)
        require_real("c", c)
        require_order(p.alpha, closed=True)
        super().__init__(mu_sq, sign, c, p)


class OdeSolution(Record):
    """Solution evaluator with its derivative-carrying twin.

    ``description`` holds the closed form when one exists, None for sampled
    solutions.
    """

    __slots__ = ("evaluator", "dual_evaluator", "description")

    def __init__(self, evaluator: RealFn, dual_evaluator: DualFn, description: str | None = None):
        super().__init__(evaluator, dual_evaluator, description)

    def __call__(self, t: float) -> float:
        return self.evaluator(t)


def solve_linear(prob: LinearOdeProblem) -> OdeSolution:
    """Closed-form solution of D v +/- mu^2 v = 0.

    A plus-signed term yields decay, a minus-signed term growth.
    """
    scale = gamma(prob.p.beta + 1.0)
    coeff = -scale * prob.mu_sq / prob.p.alpha
    if prob.sign is TermSign.MINUS:
        coeff = -coeff
    alpha = prob.p.alpha
    c = prob.c

    def value(t: float) -> float:
        if require_real("t", t) <= 0.0:
            raise DomainError(f"the solution is defined for t > 0, got {t!r}")
        try:
            v = c * math.exp(coeff * t**alpha)
        except OverflowError:
            v = math.inf
        return _finite(v, t)

    def dual(t: float) -> DualNumber:
        v = value(t)
        try:
            der = v * coeff * alpha * t ** (alpha - 1.0)
        except OverflowError:  # t^(alpha - 1) beyond the largest double
            der = math.inf
        return DualNumber(v, _finite(der, t, "solution's derivative"))

    description = f"v(t) = {c!r} * exp({coeff!r} * t^{alpha!r})"
    return OdeSolution(value, dual, description)


def verify_linear(sol: OdeSolution, prob: LinearOdeProblem, ts) -> float:
    """Largest residual |D v +/- mu^2 v| over the sample times."""
    sgn = 1.0 if prob.sign is TermSign.PLUS else -1.0
    worst = 0.0
    for t in ts:
        residual = abs(
            deriv_closed(sol.dual_evaluator, prob.p, t) + sgn * prob.mu_sq * sol.evaluator(t)
        )
        worst = max(worst, residual)
    return worst


def _finite(v: float, t: float, what: str = "solution") -> float:
    if not math.isfinite(v):
        raise DomainError(f"the {what} overflows a double at t={t!r}")
    return v


def solve_general(
    g: Callable[[float, float], float],
    t0: float,
    v0: float,
    t1: float,
    p: FracParams,
    steps: int,
) -> OdeSolution:
    """Integrate D v = g(t, v) from (t0, v0) to t1 on a uniform grid.

    Classical RK4 on the transformed equation, returning a piecewise-cubic
    Hermite evaluator valid on [t0, t1].
    """
    require_int("steps", steps, 4)
    require_order(p.alpha, closed=True)
    require_real("v0", v0)
    if not 0.0 < require_real("t0", t0) < require_real("t1", t1):
        raise ValidationError(f"need 0 < t0 < t1, got t0={t0}, t1={t1}")

    scale = gamma(p.beta + 1.0)
    exponent = p.alpha - 1.0

    def rhs(t: float, v: float) -> float:
        return scale * t**exponent * g(t, v)

    h = (t1 - t0) / steps
    values = [float(v0)]
    slopes = [rhs(t0, v0)]
    v = float(v0)
    for i in range(steps):
        t = t0 + i * h
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(t + h, v + h * k3)
        v = v + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(v) or abs(v) > 1e150:
            raise ConvergenceError(f"integration diverged near t={t + h}")
        values.append(v)
        slopes.append(rhs(t + h, v))

    def hermite(t: float) -> tuple[float, float]:
        if not t0 <= require_real("t", t) <= t1:
            raise DomainError(f"t={t!r} outside the integrated range [{t0}, {t1}]")
        i = min(int((t - t0) / h), steps - 1)
        s = (t - (t0 + i * h)) / h
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        value = h00 * values[i] + h10 * h * slopes[i] + h01 * values[i + 1] + h11 * h * slopes[i + 1]
        d00 = 6.0 * s * (s - 1.0)
        d10 = 3.0 * s * s - 4.0 * s + 1.0
        d01 = -d00
        d11 = 3.0 * s * s - 2.0 * s
        slope = (
            d00 * values[i] + d10 * h * slopes[i] + d01 * values[i + 1] + d11 * h * slopes[i + 1]
        ) / h
        return value, slope

    return OdeSolution(
        evaluator=lambda t: hermite(t)[0],
        dual_evaluator=lambda t: DualNumber(*hermite(t)),
        description=None,
    )
