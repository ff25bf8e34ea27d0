"""Scalar special-function kernel: log-gamma and the truncated Mittag-Leffler sum.

Everything here is plain float arithmetic with no third-party numerics, so the
accuracy notes below are self-contained and checked by the test suite.
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
]

# Lanczos coefficients for g = 7 with a 9-term series (Godfrey's tableau).
# Measured against a 40-digit reference on [0.5, 200]: absolute error < 2e-15,
# relative error < 1e-13 except within ~1e-2 of the zeros of ln(gamma) at
# x = 1 and x = 2, where the error stays at the same absolute level.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_INF_TAIL_REL = 1e-16
# A term at most this fraction of |total| is below a quarter ulp of the total,
# so adding it leaves the total unchanged.
_FINITE_TAIL_REL = 2.0**-55
_INF_TERM_CAP = 500
# Largest tolerated ratio sum|term| / |sum| before an alternating sum is
# declared numerically meaningless: beyond it, cancellation alone would eat
# through the 1e-12 relative accuracy this module is expected to deliver.
_CANCELLATION_LIMIT = 32.0


def ln_gamma(x: float) -> float:
    """Natural logarithm of the gamma function for real x > 0."""
    x = float(require_real("x", x))
    if not x > 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Reflection keeps the rational series inside its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    series = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        series += _LANCZOS[i] / (z + i)
    w = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(w) - w + math.log(series)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0, evaluated as exp(ln_gamma(x)).

    Beyond x ~ 171.6 the value exceeds the largest double: DomainError.
    """
    try:
        value = math.exp(ln_gamma(x))
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"Gamma({x}) exceeds the largest double")
    return value


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

    With an infinite truncation the summation stops once the next term drops
    below 1e-16 of the running absolute sum; needing more than 500 terms
    raises ConvergenceError.  Alternating sums (z < 0) that would cancel away
    more than the target accuracy also raise ConvergenceError, except for
    beta = 1 where exp(z) = 1/exp(-z) reflects the evaluation onto the
    well-conditioned positive side.  With any truncation, a term or a total
    that overflows raises ConvergenceError.  A finite truncation stops at the
    first term of at most 2^-55 * |total|, a quarter ulp: that term and every
    later, smaller one leave the total unchanged, so the sum is bitwise that
    of all terms up to i, and its cost does not grow with i beyond that point.
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
            if infinite:
                if mag < _INF_TAIL_REL * abs_sum:
                    break
            elif mag <= _FINITE_TAIL_REL * abs(total):
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
