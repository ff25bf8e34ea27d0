"""Derivative operators of the truncated Mittag-Leffler kernel family.

The closed form t^(1-alpha) * f'(t) / Gamma(beta+1) is the workhorse; the
limit-definition estimator exists to validate it numerically and to realize
the special-case families (conformable, alternative, generalized, and the
untruncated kernel) that correspond to particular (beta, truncation) choices.
One rule, ``_settle``, judges both limits taken here: the Richardson table of
the quotient as eps -> 0 and the Aitken rounds of the closed form as t -> 0+.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import ConvergenceError, Record, ValidationError
from .errors import require_int, require_order, require_positive, require_real
from .expr import DualNumber
from .special import INFINITY, MLParams, TruncationIndex, gamma, ml_kernel
from .special import ml_truncated  # noqa: F401  (public name; benchmarks/tracer.py wraps it)

__all__ = [
    "DerivFamily",
    "FracParams",
    "LimitEstimate",
    "deriv_at_zero",
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

# Richardson depth, and the relative settling of a limit and of deriv_at_zero.
_MAX_LEVELS = 20
_LIMIT_SETTLE_REL = 1e-6
_AT_ZERO_SETTLE_REL = 1e-8
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
    term.  A non-finite quotient raises ConvergenceError.
    """
    prev_row = None
    for j in range(_MAX_LEVELS + 1):
        eps = eps0 * 0.5**j
        q_val = q(eps)
        if not math.isfinite(q_val):
            raise ConvergenceError(f"difference quotient not finite at eps={eps}")
        row = [q_val]
        if prev_row is not None:
            fac = 1.0
            for m in range(1, j + 1):
                fac *= 2.0
                row.append((fac * row[m - 1] - prev_row[m - 1]) / (fac - 1.0))
        yield row[-1]
        prev_row = row


def _settle(estimates, rel: float, what: str):
    """(value, change, index) of the estimate that changed least from the one
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


def _aitken(seq):
    """Yield the last entry of ``seq`` and then of each of five rounds of
    iterated Aitken acceleration; an entry whose step is degenerate or not
    finite passes through unaccelerated."""
    yield seq[-1]
    for _ in range(5):
        nxt = []
        for i in range(len(seq) - 2):
            d2 = seq[i + 2] - 2.0 * seq[i + 1] + seq[i]
            if d2 == 0.0 or not math.isfinite(d2):
                nxt.append(seq[i + 2])
                continue
            accel = seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / d2
            nxt.append(accel if math.isfinite(accel) else seq[i + 2])
        seq = nxt
        yield seq[-1]


def deriv_at_zero(f_dual: DualFn, p: FracParams) -> float:
    """One-sided derivative at 0, as the limit of deriv_closed(t) for t -> 0+.

    Samples t_k = 2^-k for k = 4..40 and settles iterated Aitken rounds of
    that sequence within 1e-8; a diverging sequence raises ConvergenceError.
    """
    require_order(p.alpha, closed=False)
    vals = []
    for k in range(4, 41):
        v = deriv_closed(f_dual, p, 2.0**-k)
        if not math.isfinite(v):
            raise ConvergenceError("derivative values are not finite approaching 0")
        vals.append(v)
    if abs(vals[-1]) > 1e6 * (1.0 + abs(vals[0])):
        raise ConvergenceError("derivative diverges approaching 0")
    return _settle(_aitken(vals), _AT_ZERO_SETTLE_REL, "the limit of the derivative at 0")[0]


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
    same machinery as deriv_limit.
    """
    require_int("n", n, 0)
    require_order(p.alpha, closed=True, n=n)
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

    @classmethod
    def truncated(cls, beta: float, trunc: TruncationIndex) -> "DerivFamily":
        return cls(f"truncated(beta={beta:g},i={trunc})", beta, trunc)


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
    (f(b) - f(a)) / ((b^alpha - a^alpha)/alpha) / Gamma(beta+1).

    The 1/Gamma(beta+1) factor is forced by the closed form: the auxiliary
    function h(t) = f(t) - R * t^alpha/alpha has D h(c) = 0 exactly when
    D f(c) = R / Gamma(beta+1).
    """
    _check_interval(a, b)
    require_order(p.alpha, closed=True)
    fa = f_dual(a).val
    fb = f_dual(b).val
    spread = (b**p.alpha - a**p.alpha) / p.alpha
    ratio = (fb - fa) / spread

    def h_dual(s: float) -> DualNumber:
        fs = f_dual(s)
        return DualNumber(
            fs.val - ratio * s**p.alpha / p.alpha,
            fs.der - ratio * s ** (p.alpha - 1.0),
        )

    return _scan_root(lambda s: deriv_closed(h_dual, p, s), a, b)


def _check_interval(a: float, b: float):
    if not 0.0 < require_real("a", a) < require_real("b", b):
        raise ValidationError(f"the interval needs 0 < a < b, got a={a}, b={b}")
