"""Derivative operators of the truncated Mittag-Leffler kernel family.

The closed form t^(1-alpha) * f'(t) / Gamma(beta+1) is the workhorse; the
limit-definition estimator exists to validate it numerically and to realize
the special-case families (conformable, alternative, generalized, and the
untruncated kernel) that correspond to particular (beta, truncation) choices.
One rule, ``_settle``, judges the limit taken here: the Richardson table of
the quotient as eps -> 0.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import ConvergenceError, Record, ValidationError
from .errors import require_int, require_order, require_positive, require_real
from .expr import DualNumber
from .special import INFINITY, MLParams, TruncationIndex, gamma, ml_kernel, time_change
from .special import ml_truncated  # noqa: F401  (public name; benchmarks/tracer.py wraps it)

__all__ = [
    "DerivFamily",
    "FracParams",
    "LimitEstimate",
    "deriv_closed",
    "deriv_higher",
    "deriv_higher_limit",
    "deriv_limit",
    "family_params",
    "mvt_witness",
    "rolle_witness",
]

DualFn = Callable[[float], DualNumber]
RealFn = Callable[[float], float]

# Richardson depth, and the relative settling of a limit.
_MAX_LEVELS = 20
_LIMIT_SETTLE_REL = 1e-6
# The witnesses' root scan: points, accepted residual and bisection width.
_SCAN_POINTS = 1024
_ROOT_RESIDUAL_TOL = 1e-8
_ROOT_WIDTH_TOL = 1e-12


class FracParams(Record):
    """Order alpha, kernel weight beta, and truncation index of an operator."""

    __slots__ = ("alpha", "beta", "trunc")

    def __init__(self, alpha: float, beta: float, trunc: TruncationIndex = INFINITY):
        if not isinstance(trunc, TruncationIndex):
            raise ValidationError(f"trunc must be a TruncationIndex, got {trunc!r}")
        if trunc.value == 0:
            raise ValidationError("a derivative needs a truncation index >= 1, got 0")
        require_positive("alpha", alpha)
        require_positive("beta", beta)
        super().__init__(alpha, beta, trunc)

    def ml_params(self) -> MLParams:
        return MLParams(self.beta, self.trunc)


class LimitEstimate(Record):
    """Extrapolated limit value with the smallest step used and an error estimate."""

    __slots__ = ("value", "eps_used", "extrapolation_error")

    def __init__(self, value: float, eps_used: float, extrapolation_error: float):
        if extrapolation_error < 0.0:
            raise ValidationError("extrapolation_error must be non-negative")
        super().__init__(value, eps_used, extrapolation_error)


def deriv_closed(f_dual: DualFn, p: FracParams, t: float) -> float:
    """Closed-form derivative t^(1-alpha) * f'(t) / Gamma(beta+1).

    Independent of the truncation index by construction; it matches the
    limit definition for every truncation.
    """
    require_order(p.alpha, closed=True)
    require_positive("t", t)
    d = f_dual(t)
    return t ** (1.0 - p.alpha) * d.der / gamma(p.beta + 1.0)


def _richardson(q, eps0):
    """Yield the diagonal of the Richardson table of q(eps) -> q(0) over the
    schedule eps0 * 2^-j, j = 0.._MAX_LEVELS, one level per pull.

    Assumes an error expansion in integer powers of eps with a linear leading
    term.  A non-finite quotient makes its diagonal entry non-finite too,
    and ``_settle`` pulls no further.
    """
    prev_row = None
    for j in range(_MAX_LEVELS + 1):
        row = [q(eps0 * 0.5**j)]
        if prev_row is not None:
            fac = 1.0
            for m in range(1, j + 1):
                fac *= 2.0
                row.append((fac * row[m - 1] - prev_row[m - 1]) / (fac - 1.0))
        yield row[-1]
        prev_row = row


def _settle(estimates, rel: float, what: str):
    """The rule that judges each one-sided Richardson limit of the quotient.

    (value, change, index) of the estimate that changed least from the one
    before it, pulled lazily until an estimate is not finite, a change is at
    most 1e-13 * (1 + |value|), or, from the seventh estimate on, a change
    exceeds 16 times the best: rounding noise has taken over.  Raises
    ConvergenceError naming ``what`` when no change can be compared or the
    best exceeds rel * (1 + |value|)."""
    best, best_change, best_j, prev = None, math.inf, 0, None
    for j, value in enumerate(estimates):
        if not math.isfinite(value):
            break
        if prev is not None:
            change = abs(value - prev)
            if change < best_change:
                best, best_change, best_j = value, change, j
            if change <= 1e-13 * (1.0 + abs(value)) or (j >= 6 and change > 16.0 * best_change):
                break
        prev = value
    if best is None:
        raise ConvergenceError(f"{what} gave no two finite estimates to compare")
    if best_change > rel * (1.0 + abs(best)):
        raise ConvergenceError(
            f"{what} did not settle: change {best_change:.3e} against value {best:.6e}"
        )
    return best, best_change, best_j


def _quotient_limit(g: RealFn, p: FracParams, t: float, n: int) -> LimitEstimate:
    """Extrapolate [g(t * E(eps * t^(n-alpha))) - g(t)] / eps to eps -> 0.

    Evaluates the quotient at eps_j = eps0 * 2^-j with eps0 = 1e-2 * t^(alpha-n)
    for both signs of eps, Richardson-extrapolates each side, and requires the
    sides to agree.  All quotients of one estimate share one kernel, so each
    log-gamma weight is computed once.
    """
    kernel = ml_kernel(p.ml_params())
    try:
        scale = t ** (n - p.alpha)
    except OverflowError:
        raise ConvergenceError(f"t^{n - p.alpha} overflows at t={t}; no step size fits") from None
    g0 = g(t)

    def q(eps):
        arg = t * kernel(eps * scale)
        return (g(arg) - g0) / eps

    eps0 = 1e-2 * t ** (p.alpha - n)
    # The defining limit is two-sided; requiring both signs to agree is what
    # lets a jump in g show up as a convergence failure instead of a bogus 0.
    vp, ip, jp = _settle(_richardson(q, eps0), _LIMIT_SETTLE_REL, "the limit for eps > 0")
    vm, im, jm = _settle(_richardson(q, -eps0), _LIMIT_SETTLE_REL, "the limit for eps < 0")
    gap = abs(vp - vm)
    if gap > _LIMIT_SETTLE_REL * (1.0 + abs(vp)):
        raise ConvergenceError(f"one-sided limits disagree: {vp:.9e} versus {vm:.9e}")
    return LimitEstimate(
        value=0.5 * (vp + vm),
        eps_used=eps0 * 0.5 ** max(jp, jm),
        extrapolation_error=max(ip, im, 0.5 * gap),
    )


def deriv_limit(f: RealFn, p: FracParams, t: float) -> LimitEstimate:
    """Limit-definition derivative: extrapolated quotient [f(t*E(eps*t^-alpha)) - f(t)] / eps.

    The steps are eps_j = 1e-2 * t^alpha * 2^-j of both signs.  Raises
    ConvergenceError when the extrapolants never settle within a relative
    1e-6, which is also how a discontinuity of f at t manifests numerically.
    """
    require_order(p.alpha, closed=False)
    require_positive("t", t)
    return _quotient_limit(f, p, t, 0)


def deriv_higher(f_derivs: Callable[[float, int], float], p: FracParams, n: int, t: float) -> float:
    """Higher-order closed form t^(n+1-alpha) * f^(n+1)(t) / Gamma(beta+1).

    ``f_derivs(t, m)`` must return the exact m-th classical derivative; the
    operator consumes orders n and n+1.
    """
    require_int("n", n, 0)
    require_order(p.alpha, closed=True, n=n)
    require_positive("t", t)
    return t ** (n + 1 - p.alpha) * f_derivs(t, n + 1) / gamma(p.beta + 1.0)


def deriv_higher_limit(
    f_derivs: Callable[[float, int], float], p: FracParams, n: int, t: float
) -> LimitEstimate:
    """Limit-definition counterpart of deriv_higher for cross-validation.

    Extrapolates [f^(n)(t * E(eps * t^(n-alpha))) - f^(n)(t)] / eps with the
    same machinery as deriv_limit.  Order n = 0 is deriv_limit's operator and
    takes its open window 0 < alpha < 1; n >= 1 admits alpha = n + 1.
    """
    require_int("n", n, 0)
    require_order(p.alpha, closed=n > 0, n=n)
    require_positive("t", t)
    return _quotient_limit(lambda x: f_derivs(x, n), p, t, n)


class DerivFamily(Record):
    """A named (beta, truncation) choice selecting one member of the operator family."""

    __slots__ = ("label", "beta", "trunc")

    def __init__(self, label: str, beta: float, trunc: TruncationIndex):
        super().__init__(label, beta, trunc)

    @classmethod
    def conformable(cls) -> "DerivFamily":
        return cls("conformable", 1.0, TruncationIndex(1))

    @classmethod
    def alternative(cls) -> "DerivFamily":
        return cls("alternative", 1.0, INFINITY)

    @classmethod
    def generalized(cls, i: int) -> "DerivFamily":
        return cls(f"generalized(i={i})", 1.0, TruncationIndex(i))

    @classmethod
    def m_fractional(cls, beta: float) -> "DerivFamily":
        return cls(f"m_fractional(beta={beta:g})", beta, INFINITY)


def family_params(fam: DerivFamily, alpha: float) -> FracParams:
    """Parameters realizing the family member at derivative order alpha."""
    return FracParams(alpha=alpha, beta=fam.beta, trunc=fam.trunc)


def _scan_root(g: RealFn, a: float, b: float):
    """First point in (a, b) where |g| <= _ROOT_RESIDUAL_TOL, located by a
    uniform scan followed by sign-change bisection; ties resolve to the
    smallest c."""
    ts = [a + (b - a) * i / _SCAN_POINTS for i in range(_SCAN_POINTS + 1)]
    gs = [g(s) for s in ts]
    for i in range(_SCAN_POINTS):
        if i > 0 and abs(gs[i]) <= _ROOT_RESIDUAL_TOL:
            return ts[i]
        if gs[i] * gs[i + 1] < 0.0:
            lo, hi = ts[i], ts[i + 1]
            g_lo = gs[i]
            while hi - lo > _ROOT_WIDTH_TOL:
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi:
                    break
                g_mid = g(mid)
                if g_mid == 0.0:
                    lo = hi = mid
                    break
                if (g_lo < 0.0) != (g_mid < 0.0):
                    hi = mid
                else:
                    lo, g_lo = mid, g_mid
            c = 0.5 * (lo + hi)
            if a < c < b and abs(g(c)) <= _ROOT_RESIDUAL_TOL:
                return c
    raise ConvergenceError(
        "no admissible root located by the scan; the preconditions are likely violated"
    )


def rolle_witness(f_dual: DualFn, a: float, b: float, p: FracParams) -> float:
    """A point c in (a, b) where the closed-form derivative of f vanishes.

    Requires f(a) = f(b) (within rounding); existence is then guaranteed for
    continuous f differentiable on (a, b).
    """
    _check_interval(a, b)
    require_order(p.alpha, closed=True)
    fa = f_dual(a).val
    fb = f_dual(b).val
    if abs(fa - fb) > 1e-12 * (1.0 + abs(fa)):
        raise ValidationError(f"endpoint values must agree, got f(a)={fa!r}, f(b)={fb!r}")
    return _scan_root(lambda s: deriv_closed(f_dual, p, s), a, b)


def mvt_witness(f_dual: DualFn, a: float, b: float, p: FracParams) -> float:
    """A point c in (a, b) where the closed-form derivative of f equals
    (f(b) - f(a)) / (s(b) - s(a)) / Gamma(beta+1), with s = t^alpha/alpha.

    The 1/Gamma(beta+1) factor is forced by the closed form: it is
    d/ds / Gamma(beta+1), so the auxiliary function h(t) = f(t) - R * s(t)
    has D h = D f - R / Gamma(beta+1), which is 0 at c.
    """
    _check_interval(a, b)
    require_order(p.alpha, closed=True)
    spread = time_change(a, b, p.alpha)
    target = (f_dual(b).val - f_dual(a).val) / spread / gamma(p.beta + 1.0)
    return _scan_root(lambda t: deriv_closed(f_dual, p, t) - target, a, b)


def _check_interval(a: float, b: float):
    if not 0.0 < require_real("a", a) < require_real("b", b):
        raise ValidationError(f"the interval needs 0 < a < b, got a={a}, b={b}")
