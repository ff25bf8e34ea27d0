"""The package's adaptive quadrature engine.

``refine`` is the one adaptive bisection loop, for vector-valued panel rules:
``integrate_adaptive`` runs it with the 7/15 Gauss-Kronrod rule, and
``heat.fourier_coeffs`` with a Gauss-Legendre rule that has one component per
mode.  The module needs neither the derivative nor the integral operators, so
the heat commands load it without them.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from .errors import Record, ToleranceNotMetError, ValidationError
from .errors import require_int, require_real

__all__ = ["QuadratureResult", "integrate_adaptive", "refine"]

# refine's panel budget (heat's x*(1-x)*sin(20000*x) needs 128) and narrowest
# panel over b - a: a narrower one crowds its nodes onto a few doubles that
# agree falsely.
_MAX_PANELS = 512
_MIN_WIDTH = 2.0**-40


class QuadratureResult(Record):
    """Integral value, an estimate of its absolute error, and the panel count used.

    The estimate sums the panels' raw G7/K15 gaps: not a bound, but on a
    smooth panel the gap is mostly G7's error, far above K15's.
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


def _kronrod_panel(f: Callable[[float], float], a: float, b: float):
    """The G7/K15 rule on [a, b] as a one-component ``refine`` rule: the K15
    value, the raw gap |K15 - G7| as its estimate, and no seeds."""
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
    return (k15 * half,), (abs(k15 - g7) * half,), None, None


def refine(rule, a: float, b: float, seed, abs_tol: float, rel_tol: float, what: str):
    """Adaptive bisection of a < b for integrals that share one subdivision.

    ``rule(lo, hi, seed)`` returns the panel's values and error estimates, one
    of each per component, and the seeds of its two halves; [a, b] gets
    ``seed``.  The panel whose worst component has the largest estimate is
    halved until every component's summed estimate is at most
    max(abs_tol, rel_tol * |total|).  Returns (values, estimates, panel
    count), each value and estimate the math.fsum over the panels.

    A non-finite value or estimate raises ValidationError naming ``what``.
    Needing more than _MAX_PANELS panels, or halving a panel no wider than
    _MIN_WIDTH * (b - a), raises ToleranceNotMetError; its message gives the
    worst pending component's estimate, its bound and the panel count.
    """

    def panel(lo, hi, seed):
        values, errors, left, right = rule(lo, hi, seed)
        if not all(map(math.isfinite, values)) or not all(map(math.isfinite, errors)):
            raise ValidationError(f"{what} is not finite on [{lo!r}, {hi!r}]")
        return -max(errors), lo, hi, values, errors, left, right

    heap = [panel(a, b, seed)]
    totals, errors = heap[0][3], heap[0][4]
    while True:
        bounds = [max(abs_tol, rel_tol * abs(t)) for t in totals]
        pending = [i for i, e in enumerate(errors) if e > bounds[i]]
        _, lo, hi, _, _, left, right = top = heap[0]
        if not pending or len(heap) >= _MAX_PANELS or hi - lo <= _MIN_WIDTH * (b - a):
            break
        mid = 0.5 * (lo + hi)
        heapq.heapreplace(heap, one := panel(lo, mid, left))
        heapq.heappush(heap, two := panel(mid, hi, right))
        totals = [t - v + v1 + v2 for t, v, v1, v2 in zip(totals, top[3], one[3], two[3])]
        errors = [e - g + g1 + g2 for e, g, g1, g2 in zip(errors, top[4], one[4], two[4])]
    if pending:
        i = max(pending, key=errors.__getitem__)
        where = f" in component n={i + 1} of {len(errors)}" if len(errors) > 1 else ""
        raise ToleranceNotMetError(
            f"quadrature of {what} did not reach tolerance{where}: error estimate "
            f"{errors[i]:.3e} still above {bounds[i]:.3e} after {len(heap)} panels"
        )
    return ([math.fsum(c) for c in zip(*[entry[3] for entry in heap])],
            [math.fsum(c) for c in zip(*[entry[4] for entry in heap])], len(heap))


def integrate_adaptive(
    f: Callable[[float], float], a: float, b: float, *, abs_tol: float = 1e-10, rel_tol: float = 1e-10
) -> QuadratureResult:
    """Integral of f over [a, b] by ``refine`` with the G7/K15 rule, the
    summed raw gaps |K15 - G7| at or below max(abs_tol, rel_tol * |value|).

    With b < a the value is negated.  Reaching refine's panel budget or width
    floor raises refine's ToleranceNotMetError, which carries no partial
    result.
    """
    require_real("a", a)
    require_real("b", b)
    require_real("abs_tol", abs_tol)
    require_real("rel_tol", rel_tol)
    if abs_tol < 0.0 or rel_tol < 0.0 or abs_tol == rel_tol == 0.0:
        raise ValidationError("tolerances must be non-negative and not both zero")
    if a == b:
        return QuadratureResult(0.0, 0.0, 1)
    a, b, sign = (a, b, 1.0) if a < b else (b, a, -1.0)
    rule = lambda lo, hi, _: _kronrod_panel(f, lo, hi)
    (value,), (error,), panels = refine(rule, a, b, None, abs_tol, rel_tol, "the integrand")
    return QuadratureResult(sign * value, error, panels)
