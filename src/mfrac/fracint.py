"""Weighted integral operator Gamma(beta+1) * integral of f(x) * x^(alpha-1).

The integral runs on ``quad.integrate_adaptive``, the package's adaptive
7/15 Gauss-Kronrod integrator.  An integral starting at 0
removes the x^(alpha-1) endpoint singularity exactly through the
substitution x = u^(2/alpha) before any quadrature happens.  The inverse
identities ``check_inverse_*`` run it against the derivative operators.
"""

from __future__ import annotations

from .errors import ValidationError
from .errors import require_order, require_real
from .fracderiv import DualFn, FracParams, RealFn, deriv_closed, deriv_limit
from .quad import QuadratureResult, integrate_adaptive
from .special import gamma

__all__ = ["check_inverse_di", "check_inverse_id", "mfrac_integral"]

# mfrac_integral's tolerances on the weighted integral.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10


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

    The quadrature's ToleranceNotMetError passes through with no partial
    result; its estimate and bound are the integrand's, before the
    Gamma(beta+1) factor (beta = 2 reads "still above 5.000e-11").
    """
    require_order(p.alpha, closed=False)
    if not 0.0 <= require_real("a", a) <= require_real("t", t):
        raise ValidationError(f"the bounds must satisfy 0 <= a <= t, got a={a}, t={t}")
    scale = gamma(p.beta + 1.0)
    if a == 0.0:
        exponent = 2.0 / p.alpha
        integrand = lambda u: exponent * u * f(u**exponent)
        lo, hi = 0.0, t ** (0.5 * p.alpha)
    else:
        weight = p.alpha - 1.0
        integrand = lambda x: f(x) * x**weight
        lo, hi = a, t
    base = integrate_adaptive(integrand, lo, hi, abs_tol=_ABS_TOL / scale, rel_tol=_REL_TOL)
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
