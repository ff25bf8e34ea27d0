"""Derivative operators of the truncated Mittag-Leffler kernel family.

The closed form t^(1-alpha) * f'(t) / Gamma(beta+1) is the workhorse; the
limit-definition estimator exists to validate it numerically and to realize
the special-case families (conformable, alternative, generalized, and the
untruncated kernel) that correspond to particular (beta, truncation) choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ConvergenceError, ValidationError
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


@dataclass(frozen=True)
class FracParams:
    """Order alpha, kernel weight beta, and truncation index of an operator."""

    alpha: float
    beta: float
    trunc: TruncationIndex = INFINITY

    def __post_init__(self):
        if not isinstance(self.trunc, TruncationIndex):
            raise ValidationError(f"trunc must be a TruncationIndex, got {self.trunc!r}")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                raise ValidationError(f"{name} must be a finite real, got {v!r}")
        if self.alpha <= 0.0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta}")

    def ml_params(self) -> MLParams:
        return MLParams(self.beta, self.trunc)


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated limit value with the smallest step used and an error estimate."""

    value: float
    eps_used: float
    extrapolation_error: float

    def __post_init__(self):
        if self.extrapolation_error < 0.0:
            raise ValidationError("extrapolation_error must be non-negative")


def _check_closed_order(p: FracParams):
    # The closed form holds for 0 < alpha <= 1 (alpha = 1 is the classical edge).
    if not 0.0 < p.alpha <= 1.0:
        raise ValidationError(f"alpha must lie in (0, 1] for this operator, got {p.alpha}")


def _check_limit_order(p: FracParams):
    if not 0.0 < p.alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1) for this operator, got {p.alpha}")


def _check_point(t: float):
    if not isinstance(t, (int, float)) or not math.isfinite(t) or t <= 0.0:
        raise ValidationError(f"t must be a positive finite real, got {t!r}")


def deriv_closed(f_dual: DualFn, p: FracParams, t: float) -> float:
    """Closed-form derivative t^(1-alpha) * f'(t) / Gamma(beta+1).

    Independent of the truncation index by construction; it matches the
    limit definition for every truncation >= 1 (a zero truncation makes the
    kernel sum constant, so that limit is identically 0).
    """
    _check_closed_order(p)
    _check_point(t)
    d = f_dual(t)
    return t ** (1.0 - p.alpha) * d.der / gamma(p.beta + 1.0)


def _extrapolate_first_order(q, eps0, *, settle_rel, max_levels=20):
    """Richardson-extrapolate q(eps) -> q(0) over the schedule eps0 * 2^-j.

    Assumes an error expansion in integer powers of eps with a linear leading
    term. Returns (value, last_increment, smallest_eps).  Raises
    ConvergenceError when the diagonal never settles within settle_rel.
    """
    prev_row = None
    prev_diag = None
    best_val = None
    best_inc = math.inf
    best_eps = eps0
    for j in range(max_levels + 1):
        eps = eps0 * 0.5**j
        q_val = q(eps)
        if not math.isfinite(q_val):
            raise ConvergenceError(f"difference quotient not finite at eps={eps}")
        row = [q_val]
        if prev_row is not None:
            for m in range(1, j + 1):
                fac = float(2**m)
                row.append((fac * row[m - 1] - prev_row[m - 1]) / (fac - 1.0))
        diag = row[-1]
        if not math.isfinite(diag):
            break
        if prev_diag is not None:
            inc = abs(diag - prev_diag)
            if inc < best_inc:
                best_val, best_inc, best_eps = diag, inc, eps
            if inc <= 1e-13 * (1.0 + abs(diag)):
                break
            # Increments growing well past the best level means rounding noise
            # has taken over; deeper levels only get worse.
            if j >= 6 and inc > 16.0 * best_inc:
                break
        prev_diag = diag
        prev_row = row
    if best_val is None:
        raise ConvergenceError("extrapolation produced no usable increments")
    if best_inc > settle_rel * (1.0 + abs(best_val)):
        raise ConvergenceError(
            f"extrapolants failed to settle: increment {best_inc:.3e} "
            f"against value {best_val:.6e}"
        )
    return best_val, best_inc, best_eps


def _quotient_limit(g: RealFn, p: FracParams, t: float, n: int, settle_rel) -> LimitEstimate:
    """Extrapolate [g(t * E(eps * t^(n-alpha))) - g(t)] / eps to eps -> 0.

    Evaluates the quotient at eps_j = eps0 * 2^-j with eps0 = 1e-2 * t^(alpha-n)
    for both signs of eps, Richardson-extrapolates each side, and requires the
    sides to agree.  All quotients of one estimate share one kernel, so each
    log-gamma weight is computed once.
    """
    kernel = ml_kernel(p.ml_params())
    scale = t ** (n - p.alpha)
    g0 = g(t)

    def q(eps):
        arg = t * kernel(eps * scale)
        return (g(arg) - g0) / eps

    eps0 = 1e-2 * t ** (p.alpha - n)
    # The defining limit is two-sided; requiring both signs to agree is what
    # lets a jump in g show up as a convergence failure instead of a bogus 0.
    vp, ip, ep = _extrapolate_first_order(q, eps0, settle_rel=settle_rel)
    vm, im, em = _extrapolate_first_order(q, -eps0, settle_rel=settle_rel)
    gap = abs(vp - vm)
    if gap > settle_rel * (1.0 + abs(vp)):
        raise ConvergenceError(
            f"one-sided limits disagree: {vp:.9e} versus {vm:.9e}"
        )
    return LimitEstimate(
        value=0.5 * (vp + vm),
        eps_used=min(abs(ep), abs(em)),
        extrapolation_error=max(ip, im, 0.5 * gap),
    )


def deriv_limit(f: RealFn, p: FracParams, t: float, *, settle_rel=1e-6) -> LimitEstimate:
    """Limit-definition derivative: extrapolated quotient [f(t*E(eps*t^-alpha)) - f(t)] / eps.

    The steps are eps_j = 1e-2 * t^alpha * 2^-j of both signs.  Raises
    ConvergenceError when the extrapolants never settle within settle_rel,
    which is also how a discontinuity of f at t manifests numerically.
    """
    _check_limit_order(p)
    _check_point(t)
    return _quotient_limit(f, p, t, 0, settle_rel)


def deriv_at_zero(f_dual: DualFn, p: FracParams, *, settle_rel=1e-8) -> float:
    """One-sided derivative at 0, as the limit of deriv_closed(t) for t -> 0+.

    Samples t_k = 2^-k for k = 4..40 and extrapolates the sequence with
    iterated Aitken acceleration; a diverging sequence raises ConvergenceError.
    """
    _check_limit_order(p)
    vals = []
    for k in range(4, 41):
        v = deriv_closed(f_dual, p, 2.0**-k)
        if not math.isfinite(v):
            raise ConvergenceError("derivative values are not finite approaching 0")
        vals.append(v)
    if abs(vals[-1]) > 1e6 * (1.0 + abs(vals[0])):
        raise ConvergenceError("derivative diverges approaching 0")
    estimates = [vals[-1]]
    seq = vals
    for _ in range(5):
        if len(seq) < 3:
            break
        nxt = []
        for i in range(len(seq) - 2):
            d2 = seq[i + 2] - 2.0 * seq[i + 1] + seq[i]
            if d2 == 0.0 or not math.isfinite(d2):
                nxt.append(seq[i + 2])
                continue
            accel = seq[i + 2] - (seq[i + 2] - seq[i + 1]) ** 2 / d2
            nxt.append(accel if math.isfinite(accel) else seq[i + 2])
        seq = nxt
        estimates.append(seq[-1])
    best = None
    best_gap = math.inf
    for prev, cur in zip(estimates, estimates[1:]):
        gap = abs(cur - prev)
        if gap < best_gap:
            best, best_gap = cur, gap
    if best is None or best_gap > settle_rel * (1.0 + abs(best)):
        raise ConvergenceError("limit of the derivative at 0 did not settle")
    return best


def _check_higher_order(p: FracParams, n: int):
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValidationError(f"n must be a non-negative integer, got {n!r}")
    if not n < p.alpha <= n + 1:
        raise ValidationError(
            f"alpha must lie in ({n}, {n + 1}] for order n={n}, got {p.alpha}"
        )


def deriv_higher(f_derivs: Callable[[float, int], float], p: FracParams, n: int, t: float) -> float:
    """Higher-order closed form t^(n+1-alpha) * f^(n+1)(t) / Gamma(beta+1).

    ``f_derivs(t, m)`` must return the exact m-th classical derivative; the
    operator consumes orders n and n+1.
    """
    _check_higher_order(p, n)
    _check_point(t)
    return t ** (n + 1 - p.alpha) * f_derivs(t, n + 1) / gamma(p.beta + 1.0)


def deriv_higher_limit(
    f_derivs: Callable[[float, int], float], p: FracParams, n: int, t: float, *, settle_rel=1e-6
) -> LimitEstimate:
    """Limit-definition counterpart of deriv_higher for cross-validation.

    Extrapolates [f^(n)(t * E(eps * t^(n-alpha))) - f^(n)(t)] / eps with the
    same machinery as deriv_limit.
    """
    _check_higher_order(p, n)
    _check_point(t)
    return _quotient_limit(lambda x: f_derivs(x, n), p, t, n, settle_rel)


@dataclass(frozen=True)
class DerivFamily:
    """A named (beta, truncation) choice selecting one member of the operator family."""

    label: str
    beta: float
    trunc: TruncationIndex

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


def _scan_root(g: RealFn, a: float, b: float, *, n_scan=1024, residual_tol=1e-8, width_tol=1e-12):
    """First point in (a, b) where |g| <= residual_tol, located by a uniform
    scan followed by sign-change bisection; ties resolve to the smallest c."""
    ts = [a + (b - a) * i / n_scan for i in range(n_scan + 1)]
    gs = [g(s) for s in ts]
    for i in range(n_scan):
        if i > 0 and abs(gs[i]) <= residual_tol:
            return ts[i]
        if gs[i] * gs[i + 1] < 0.0:
            lo, hi = ts[i], ts[i + 1]
            g_lo = gs[i]
            while hi - lo > width_tol:
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
            if a < c < b and abs(g(c)) <= residual_tol:
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
    _check_closed_order(p)
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
    _check_closed_order(p)
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
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValidationError(f"{name} must be a finite real, got {v!r}")
    if not 0.0 < a < b:
        raise ValidationError(f"the interval needs 0 < a < b, got a={a}, b={b}")
