"""First-order ODE solvers for the kernel derivative.

The closed-form derivative is classical in the clock s = t^alpha/alpha
(``special.time_change``): D v = (dv/ds) / Gamma(beta+1).  So D v +/- mu^2 v = 0
has the closed form v = c * exp(-/+ Gamma(beta+1) * mu^2 * s) (a plus-signed
term decays), and a general D v = g(t, v) is dv/ds = Gamma(beta+1) * g(t, v),
which has no singular factor.  It is integrated on a grid uniform in
s(t) - s(t0) by classical fourth-order Runge-Kutta with cubic Hermite dense
output, from any start 0 <= t0 < t1.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable

from .errors import ConvergenceError, DomainError, Record, ValidationError
from .errors import require_finite, require_int, require_order, require_positive, require_real
from .expr import DualNumber
from .fracderiv import DualFn, FracParams, RealFn, deriv_closed
from .special import gamma, time_change, time_change_inverse

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
        v = value(t)
        try:  # dv/ds = sign * rate * v, which is exactly 0 with v
            dv_ds = math.ldexp(v * rate_m, rate_e)
        except OverflowError:
            dv_ds = math.inf
        return _in_t(t, alpha, v, dv_ds)

    shown = f"{'-' if sign < 0.0 else ''}Gamma({prob.p.beta + 1.0!r}) * {prob.mu_sq!r}"
    return OdeSolution(value, dual, f"v(t) = {c!r} * exp({shown} * s), s = t^{alpha!r} / {alpha!r}")


def _in_t(t: float, alpha: float, v: float, dv_ds: float) -> DualNumber:
    """(v, dv/dt) from dv/ds, by the chain rule dv/dt = dv/ds * t^(alpha-1).
    A zero dv/ds is returned as it is: it stays 0 where t^(alpha-1) overflows.
    Where only that factor overflows, dv/dt is dv/ds * t^alpha / t from frexp
    parts, and inf only where it is itself beyond the doubles."""
    if not dv_ds:
        return DualNumber(v, dv_ds)
    try:
        dv_dt = dv_ds * t ** (alpha - 1.0)
    except ZeroDivisionError:  # 1/0: t = 0 with alpha < 1
        dv_dt = math.inf
    except OverflowError:  # t^(alpha-1) beyond the largest double
        (d_m, d_e), (p_m, p_e), (t_m, t_e) = map(math.frexp, (dv_ds, t**alpha, t))
        try:
            dv_dt = math.ldexp(d_m * p_m / t_m, d_e + p_e - t_e)
        except OverflowError:
            dv_dt = math.inf
    return DualNumber(v, require_finite(f"solution's derivative at t={t!r}", dv_dt))


def verify_linear(sol: OdeSolution, prob: LinearOdeProblem, ts) -> float:
    """Largest residual |D v +/- mu^2 v| over the sample times."""
    sgn = 1.0 if prob.sign is TermSign.PLUS else -1.0
    return max(
        (abs(deriv_closed(sol.dual_evaluator, prob.p, t) + sgn * prob.mu_sq * sol.evaluator(t))
         for t in ts),
        default=0.0,
    )


def solve_general(
    g: Callable[[float, float], float], t0: float, v0: float, t1: float, p: FracParams, steps: int
) -> OdeSolution:
    """Integrate D v = g(t, v) from (t0, v0) to t1, where 0 <= t0 < t1.

    Classical RK4 on dv/ds = Gamma(beta+1) * g(t(s), v) over a grid uniform
    in s(t) - s(t0), s = t^alpha/alpha, returning a piecewise-cubic Hermite
    evaluator valid on [t0, t1].
    """
    require_int("steps", steps, 4)
    alpha = require_order(p.alpha, closed=True)
    require_real("v0", v0)
    if not 0.0 <= require_real("t0", t0) < require_real("t1", t1):
        raise ValidationError(f"need 0 <= t0 < t1, got t0={t0}, t1={t1}")
    # Offsets from s(t0), not s itself, so that the nodes stay exact as alpha -> 0.
    h = time_change(t0, t1, alpha) / steps
    if not 0.0 < h < math.inf:
        raise DomainError(f"s = t^alpha/alpha cannot resolve [{t0}, {t1}] at alpha={alpha!r}")
    scale = gamma(p.beta + 1.0)

    def rhs(sigma: float, v: float) -> float:
        return scale * g(min(time_change_inverse(t0, sigma, alpha), t1), v)

    v = float(v0)
    values, slopes = [v], [rhs(0.0, v)]
    for i in range(steps):
        sigma = i * h
        k1 = slopes[i]
        k2 = rhs(sigma + 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(sigma + 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(sigma + h, v + h * k3)
        v = v + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not math.isfinite(v) or abs(v) > 1e150:
            raise ConvergenceError(
                f"integration diverged near t={time_change_inverse(t0, sigma + h, alpha)}"
            )
        values.append(v)
        slopes.append(rhs((i + 1) * h, v))

    def hermite(t: float) -> tuple[float, float]:
        """(v, dv/ds) at t."""
        if not t0 <= require_real("t", t) <= t1:
            raise DomainError(f"t={t!r} outside the integrated range [{t0}, {t1}]")
        sigma = time_change(t0, t, alpha)
        i = min(int(sigma / h), steps - 1)
        u = (sigma - i * h) / h
        rise = values[i + 1] - values[i]
        # The value as v_i plus increments, so that a constant solution stays exact.
        value = values[i] + u * u * (3.0 - 2.0 * u) * rise + h * (
            u * (1.0 - u) ** 2 * slopes[i] + u * u * (u - 1.0) * slopes[i + 1]
        )
        dv_ds = (
            6.0 * u * (1.0 - u) * rise / h
            + (3.0 * u * u - 4.0 * u + 1.0) * slopes[i]
            + (3.0 * u * u - 2.0 * u) * slopes[i + 1]
        )
        return value, dv_ds

    return OdeSolution(lambda t: hermite(t)[0], lambda t: _in_t(t, alpha, *hermite(t)))
