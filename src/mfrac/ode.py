"""The linear first-order ODE of the kernel derivative.

The closed-form derivative is classical in the clock s = t^alpha/alpha: D v =
(dv/ds) / Gamma(beta+1).  So D v +/- mu^2 v = 0 has the closed form
v = c * exp(-/+ Gamma(beta+1) * mu^2 * s); a plus-signed term decays.
"""

from __future__ import annotations

import enum
import math

from .errors import DomainError, Record, ValidationError
from .errors import require_finite, require_order, require_positive, require_real
from .expr import DualNumber
from .fracderiv import DualFn, FracParams, RealFn, deriv_closed
from .special import gamma

__all__ = [
    "LinearOdeProblem",
    "OdeSolution",
    "TermSign",
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

    ``description`` holds the closed form, or None when none is given.
    """

    __slots__ = ("evaluator", "dual_evaluator", "description")

    def __init__(self, evaluator: RealFn, dual_evaluator: DualFn, description: str | None = None):
        super().__init__(evaluator, dual_evaluator, description)

    def __call__(self, t: float) -> float:
        return self.evaluator(t)


def solve_linear(prob: LinearOdeProblem) -> OdeSolution:
    """Closed-form solution of D v +/- mu^2 v = 0: v = c * exp(-/+ rate * s)
    with rate = Gamma(beta+1) * mu^2.

    A plus-signed term yields decay, a minus-signed term growth.  rate and s
    are carried as frexp mantissas and exponents, so rate * s and rate * v
    round as the plain products do, and stay finite wherever representable
    even where rate or s is not.
    """
    sign = -1.0 if prob.sign is TermSign.PLUS else 1.0
    g_m, g_e = math.frexp(gamma(prob.p.beta + 1.0))
    mu_m, mu_e = math.frexp(prob.mu_sq)
    # rate = rate_m * 2^rate_e with |rate_m| < 1, so v * rate_m cannot overflow.
    rate_m, rate_e = sign * g_m * mu_m, g_e + mu_e
    alpha, c = prob.p.alpha, prob.c
    a_m, a_e = math.frexp(alpha)

    def value(t: float) -> float:
        if require_real("t", t) <= 0.0:
            raise DomainError(f"the solution is defined for t > 0, got {t!r}")
        t_m, t_e = math.frexp(t**alpha)  # t^alpha is finite and positive here
        try:  # an exponent beyond 2^1021 makes v 0 or inf anyway
            v = c * math.exp(math.ldexp(rate_m * (t_m / a_m), min(rate_e + t_e - a_e, 1020)))
        except OverflowError:
            v = c * math.inf if c else c  # c = 0 stays 0
        return require_finite(f"solution at t={t!r}", v)

    def dual(t: float) -> DualNumber:
        """(v, dv/dt) by the chain rule dv/dt = dv/ds * t^(alpha-1).  A zero
        dv/ds is returned as it is: it stays 0 where t^(alpha-1) overflows.
        Where only that factor overflows, dv/dt is dv/ds * t^alpha / t from
        frexp parts, and inf only where it is itself beyond the doubles."""
        v = value(t)
        try:  # dv/ds = sign * rate * v, which is exactly 0 with v
            dv_ds = math.ldexp(v * rate_m, rate_e)
        except OverflowError:
            dv_ds = math.inf
        if not dv_ds:
            return DualNumber(v, dv_ds)
        try:
            dv_dt = dv_ds * t ** (alpha - 1.0)
        except OverflowError:  # t^(alpha-1) beyond the largest double
            (d_m, d_e), (p_m, p_e), (t_m, t_e) = map(math.frexp, (dv_ds, t**alpha, t))
            try:
                dv_dt = math.ldexp(d_m * p_m / t_m, d_e + p_e - t_e)
            except OverflowError:
                dv_dt = math.inf
        return DualNumber(v, require_finite(f"solution's derivative at t={t!r}", dv_dt))

    shown = f"{'-' if sign < 0.0 else ''}Gamma({prob.p.beta + 1.0!r}) * {prob.mu_sq!r}"
    return OdeSolution(value, dual, f"v(t) = {c!r} * exp({shown} * s), s = t^{alpha!r} / {alpha!r}")


def verify_linear(sol: OdeSolution, prob: LinearOdeProblem, ts) -> float:
    """Largest residual |D v +/- mu^2 v| over the sample times."""
    sgn = 1.0 if prob.sign is TermSign.PLUS else -1.0
    return max(
        (abs(deriv_closed(sol.dual_evaluator, prob.p, t) + sgn * prob.mu_sq * sol.evaluator(t))
         for t in ts),
        default=0.0,
    )
