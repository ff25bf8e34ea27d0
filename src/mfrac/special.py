"""Scalar special-function kernel: Gamma, log-gamma and the truncated Mittag-Leffler sum.

Gamma and log-gamma are the standard library's ``math.gamma`` and
``math.lgamma`` behind the package's input checks; Gamma(n) is exact for the
integers n = 1..23.  The kernel sum is plain float arithmetic with no
third-party numerics, so its accuracy notes below are self-contained and
checked by the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import ConvergenceError, DomainError, Record, ValidationError
from .errors import require_int, require_positive, require_real

__all__ = [
    "INFINITY",
    "MLParams",
    "TruncationIndex",
    "gamma",
    "ln_gamma",
    "ml_kernel",
    "ml_truncated",
    "time_change",
]

# A term at most this fraction of |total| is below a quarter ulp of the total,
# so adding it leaves the total unchanged.
_TAIL_REL = 2.0**-55
_INF_TERM_CAP = 500
# Largest tolerated ratio sum|term| / |sum| before an alternating sum is
# declared numerically meaningless: beyond it, cancellation alone would eat
# through the 1e-12 relative accuracy this module is expected to deliver.
_CANCELLATION_LIMIT = 32.0


def ln_gamma(x: float) -> float:
    """Natural logarithm of the gamma function for real x > 0: ``math.lgamma``.

    Above about 2.6e305 the value exceeds the largest double and is inf.
    """
    x = float(require_real("x", x))
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def gamma(x: float) -> float:
    """Gamma(x) for real x > 0: ``math.gamma``.

    When the value exceeds the largest double (x above about 171.6 or below
    about 5.6e-309), DomainError.
    """
    x = float(require_real("x", x))
    if not x > 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) exceeds the largest double") from None


def time_change(t0: float, t: float, alpha: float) -> float:
    """s(t) - s(t0) for the clock s = t^alpha/alpha and 0 < t0, in which t^(1-alpha) * f'(t)
    = df/ds; inf beyond the largest double.  While x = alpha*ln(t/t0) <= 1 it is t0^alpha *
    ln(t/t0) * expm1(x)/x, good to a few ulps however small alpha is; the plain difference is not."""
    span = math.log(t / t0)
    x = alpha * span
    if x > 1.0:
        return (t**alpha - t0**alpha) / alpha
    return t0**alpha * span * (math.expm1(x) / x if x else 1.0)


class TruncationIndex(Record):
    """Number of retained series terms; ``value is None`` keeps the full series."""

    __slots__ = ("value",)

    def __init__(self, value: int | None = None):
        if value is not None:
            require_int("truncation index", value, 0)
        super().__init__(value)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITY = TruncationIndex(None)


class MLParams(Record):
    """Shape of the kernel sum: exponent weight beta > 0 plus a truncation index."""

    __slots__ = ("beta", "trunc")

    def __init__(self, beta: float, trunc: TruncationIndex = INFINITY):
        if not isinstance(trunc, TruncationIndex):
            raise ValidationError(f"trunc must be a TruncationIndex, got {trunc!r}")
        require_positive("beta", beta)
        super().__init__(beta, trunc)


def ml_kernel(p: MLParams) -> Callable[[float], float]:
    """The truncated Mittag-Leffler sum z -> sum of z^k / Gamma(beta*k + 1), k = 0..i.

    Terms are built as sign(z)^k * exp(k*ln|z| - ln_gamma(beta*k + 1)).  The
    log-gamma weights depend only on beta and k, so the returned function keeps
    a table of them, filled the first time each k is needed, and one kernel
    serves any number of arguments.  The table holds at most 501 entries; a
    finite truncation beyond that computes its later weights on every call.

    Every truncation stops at the first term of at most 2^-55 * |total|, a
    quarter ulp: that term and every later, smaller one leave the total
    unchanged.  A finite sum is therefore bitwise that of all terms up to i,
    and its cost does not grow with i beyond that point.  A term or a total
    that overflows raises ConvergenceError.

    Three guards apply to the infinite truncation only.  Needing more than
    500 terms raises ConvergenceError.  Alternating sums (z < 0) that would
    cancel away more than the target accuracy also raise ConvergenceError,
    except for beta = 1, where exp(z) = 1/exp(-z) reflects the evaluation
    onto the well-conditioned positive side.  A finite truncation is a
    polynomial, and it is summed as one.
    """
    beta = p.beta
    infinite = p.trunc.is_infinite
    last = _INF_TERM_CAP if infinite else p.trunc.value
    # weights[k] = ln_gamma(beta*k + 1); slot 0 is never read.  Concurrent
    # callers can only write the same value into the same slot.
    weights = [None] * (min(last, _INF_TERM_CAP) + 1)

    def weight(k: int) -> float:
        if k >= len(weights):
            return ln_gamma(beta * k + 1.0)
        w = weights[k]
        if w is None:
            w = weights[k] = ln_gamma(beta * k + 1.0)
        return w

    def series(z: float) -> float:
        log_abs_z = math.log(abs(z))
        negative = z < 0.0
        total = 1.0
        abs_sum = 1.0
        for k in range(1, last + 1):
            try:
                mag = math.exp(k * log_abs_z - weight(k))
            except OverflowError:
                raise ConvergenceError(
                    f"Mittag-Leffler term overflowed at k={k} (z={z}, beta={beta})"
                ) from None
            # k*ln|z| - ln_gamma(beta*k + 1) is concave in k and 0 at k = 0.
            # Up to the largest term each term is at least |total| / k, so a
            # term this small comes after it and every later one is smaller.
            if mag <= _TAIL_REL * abs(total):
                break
            total += -mag if negative and k % 2 == 1 else mag
            abs_sum += mag
        else:
            if infinite:
                raise ConvergenceError(
                    f"Mittag-Leffler series did not converge within {_INF_TERM_CAP} terms "
                    f"(z={z}, beta={beta})"
                )
        if not math.isfinite(total):
            raise ConvergenceError(f"Mittag-Leffler sum overflowed (z={z}, beta={beta})")
        if infinite and negative and abs_sum > _CANCELLATION_LIMIT * abs(total):
            raise ConvergenceError(
                f"alternating Mittag-Leffler sum lost too much precision to cancellation "
                f"(z={z}, beta={beta}); no double-precision summation of this series is reliable here"
            )
        return total

    def kernel(z: float) -> float:
        z = float(require_real("z", z))
        if z == 0.0:
            return 1.0
        if infinite and z < 0.0 and beta == 1.0:
            return 1.0 / series(-z)
        return series(z)

    return kernel


def ml_truncated(z: float, p: MLParams) -> float:
    """Sum of z^k / Gamma(beta*k + 1) for k = 0..i, the truncated Mittag-Leffler value.

    One-shot form of ``ml_kernel(p)(z)``; see ml_kernel for the accuracy and
    error contract.  Evaluating many arguments with one ``MLParams`` is
    cheaper through a single ml_kernel.
    """
    return ml_kernel(p)(z)
