"""Weighted integral operator Gamma(beta+1) * integral of f(x) * x^(alpha-1).

Quadrature is an adaptive 7/15 Gauss-Kronrod scheme with worst-interval
bisection.  An integral starting at 0 removes the x^(alpha-1) endpoint
singularity exactly through the substitution x = u^(2/alpha) before any
quadrature happens.
"""

from __future__ import annotations

import heapq
import math

from .errors import Record, ToleranceNotMetError, ValidationError, require_int, require_real
from .fracderiv import DualFn, FracParams, RealFn, deriv_closed, deriv_limit, require_order
from .special import gamma

__all__ = [
    "QuadratureResult",
    "check_inverse_di",
    "check_inverse_id",
    "integrate_adaptive",
    "mfrac_integral",
]

# mfrac_integral's tolerances on the weighted integral.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10


class QuadratureResult(Record):
    """Integral value, an estimate of its absolute error, and the panel count used.

    The error estimate is not a bound: on rare integrands the true error
    exceeds it (6.8e-12 has been reported against a true error of 1.2e-10).
    """

    __slots__ = ("value", "abs_error_estimate", "subdivisions")

    def __init__(self, value: float, abs_error_estimate: float, subdivisions: int):
        if abs_error_estimate < 0.0:
            raise ValidationError("abs_error_estimate must be non-negative")
        require_int("subdivisions", subdivisions, 1)
        super().__init__(value, abs_error_estimate, subdivisions)


# 15-point Kronrod nodes with their weights, plus the embedded 7-point Gauss
# weights (QUADPACK dqk15 values).  Gauss nodes sit at the odd indices and the
# center.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
)
_WGK_CENTER = 0.2094821410847278
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
)
_WG_CENTER = 0.4179591836734694


def _kronrod_panel(f: RealFn, a: float, b: float) -> tuple[float, float]:
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    k15 = _WGK_CENTER * fc
    g7 = _WG_CENTER * fc
    for i in range(7):
        x = half * _XGK[i]
        pair = f(center - x) + f(center + x)
        k15 += _WGK[i] * pair
        if i % 2 == 1:
            g7 += _WG[(i - 1) // 2] * pair
    value = k15 * half
    diff = abs(k15 - g7) * abs(half)
    # QUADPACK-style sharpening of the raw G7/K15 gap.  It can only win for
    # diff < 1, and skipping it above keeps (200 * diff)^1.5 from overflowing.
    error = min(diff, (200.0 * diff) ** 1.5) if diff < 1.0 else diff
    return value, error


def integrate_adaptive(
    f: RealFn,
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-10,
    max_depth: int = 50,
    max_panels: int = 4096,
) -> QuadratureResult:
    """Integral of f over [a, b] with the summed panel error estimate at or
    below max(abs_tol, rel_tol * |value|).

    Each panel's estimate is the G7/K15 gap sharpened QUADPACK-style,
    min(gap, (200 * gap)^1.5); it is an estimate, not a bound, and can fall
    short of the true error.

    Raises ToleranceNotMetError (carrying the best estimate) when the
    subdivision budget runs out first.
    """
    require_real("a", a)
    require_real("b", b)
    require_int("max_depth", max_depth, 1)
    require_int("max_panels", max_panels, 1)
    require_real("abs_tol", abs_tol)
    require_real("rel_tol", rel_tol)
    if abs_tol < 0.0 or rel_tol < 0.0 or abs_tol == rel_tol == 0.0:
        raise ValidationError("tolerances must be non-negative and not both zero")
    if a == b:
        return QuadratureResult(0.0, 0.0, 1)
    if b < a:
        flipped = integrate_adaptive(
            f, b, a, abs_tol=abs_tol, rel_tol=rel_tol, max_depth=max_depth, max_panels=max_panels
        )
        return QuadratureResult(-flipped.value, flipped.abs_error_estimate, flipped.subdivisions)

    value, error = _kronrod_panel(f, a, b)
    if not math.isfinite(value):
        raise ValidationError("integrand returned a non-finite value")
    heap = [(-error, 0, a, b, value, error, 0)]
    counter = 1
    panels = 1
    total_value = value
    total_error = error
    while total_error > max(abs_tol, rel_tol * abs(total_value)):
        _, _, left, right, pv, pe, depth = heapq.heappop(heap)
        if depth >= max_depth or panels >= max_panels:
            raise ToleranceNotMetError(
                f"quadrature error {total_error:.3e} still above "
                f"{max(abs_tol, rel_tol * abs(total_value)):.3e} after {panels} panels",
                best=QuadratureResult(total_value, max(total_error, 0.0), panels),
            )
        mid = 0.5 * (left + right)
        v1, e1 = _kronrod_panel(f, left, mid)
        v2, e2 = _kronrod_panel(f, mid, right)
        if not (math.isfinite(v1) and math.isfinite(v2)):
            raise ValidationError("integrand returned a non-finite value")
        total_value += v1 + v2 - pv
        total_error += e1 + e2 - pe
        heapq.heappush(heap, (-e1, counter, left, mid, v1, e1, depth + 1))
        heapq.heappush(heap, (-e2, counter + 1, mid, right, v2, e2, depth + 1))
        counter += 2
        panels += 1
    return QuadratureResult(total_value, max(total_error, 0.0), panels)


def mfrac_integral(f: RealFn, a: float, t: float, p: FracParams) -> QuadratureResult:
    """Gamma(beta+1) times the integral of f(x) * x^(alpha-1) over [a, t].

    Requires 0 < alpha < 1 and 0 <= a <= t.  With a = 0 the integrable
    endpoint singularity is removed exactly by substituting x = u^(2/alpha),
    which turns the integral into (2/alpha) * integral of u * f(u^(2/alpha)) du
    over [0, t^(alpha/2)].  For smooth f the least smooth term of that
    integrand is u^(1 + 2/alpha), so the Gauss-Kronrod error estimate tracks
    the true error.
    (x = u^(1/alpha) would leave a u^(1/alpha) term, barely smoother than a
    kink for alpha near 1, on which the estimate can fall short of the true
    error by two orders of magnitude.)
    """
    require_order(p.alpha, closed=False)
    if not 0.0 <= require_real("a", a) <= require_real("t", t):
        raise ValidationError(f"the bounds must satisfy 0 <= a <= t, got a={a}, t={t}")
    scale = gamma(p.beta + 1.0)
    if t == a:
        return QuadratureResult(0.0, 0.0, 1)
    if a == 0.0:
        exponent = 2.0 / p.alpha
        integrand = lambda u: exponent * u * f(u**exponent)
        lo, hi = 0.0, t ** (0.5 * p.alpha)
    else:
        weight = p.alpha - 1.0
        integrand = lambda x: f(x) * x**weight
        lo, hi = a, t
    try:
        base = integrate_adaptive(integrand, lo, hi, abs_tol=_ABS_TOL / scale, rel_tol=_REL_TOL)
    except ToleranceNotMetError as exc:
        raise ToleranceNotMetError(
            str(exc),
            best=QuadratureResult(
                scale * exc.best.value,
                scale * exc.best.abs_error_estimate,
                exc.best.subdivisions,
            ),
        ) from None
    return QuadratureResult(
        scale * base.value, scale * base.abs_error_estimate, base.subdivisions
    )


def check_inverse_di(f: RealFn, a: float, t: float, p: FracParams) -> float:
    """Residual |D(I f)(t) - f(t)| of the derivative-after-integral identity.

    The derivative is taken with the limit-definition estimator over the
    numerically integrated function, so the check runs through both codepaths
    end to end instead of collapsing to the fundamental-theorem shortcut.
    """
    if not require_real("a", a) < require_real("t", t):
        raise ValidationError(f"need t > a, got t={t}, a={a}")
    accumulated = lambda s: mfrac_integral(f, a, s, p).value
    estimate = deriv_limit(accumulated, p, t)
    return abs(estimate.value - f(t))


def check_inverse_id(
    f: RealFn, f_dual: DualFn, a: float, t: float, p: FracParams
) -> float:
    """Residual |I(D f)(t) - f(t)| of the integral-after-derivative identity.

    Valid under the compatibility condition f(a) = 0, which is enforced.
    """
    if not 0.0 < require_real("a", a) < require_real("t", t):
        raise ValidationError(f"need t > a > 0, got t={t}, a={a}")
    fa = f(a)
    if abs(fa) > 1e-12:
        raise ValidationError(f"f(a) must vanish for this identity, got f(a)={fa!r}")
    derivative = lambda s: deriv_closed(f_dual, p, s)
    value = mfrac_integral(derivative, a, t, p).value
    return abs(value - f(t))
