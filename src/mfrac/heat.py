"""Analytical heat-equation solver by separation of variables.

The fractional-in-time equation D_t^alpha u = k * u_xx on (0, L) with zero
boundary values and initial profile f(x) separates into sine eigenfunctions
sin(n*pi*x/L) and time factors exp(-Gamma(beta+1) * (n*pi/L)^2 * (k/alpha)
* t^alpha); only the negative separation constant produces nontrivial modes,
so the solver carries exactly that branch.  alpha = 1 is admitted here to
realize the classical limit even though the limit-definition operators keep
alpha < 1.  The sine projection runs on the engine in ``quad``, so the heat
solver loads neither the derivative nor the integral operators.
"""

from __future__ import annotations

import math
import sys

from .errors import Record, ToleranceNotMetError, ValidationError
from .errors import require_finite, require_int, require_order, require_positive, require_real
from .expr import Expr, as_fn, evaluate, unparse
from .quad import integrate_adaptive  # noqa: F401  (benchmarks/tracer.py wraps it)
from .quad import refine
from .special import _TAIL_REL, gamma

__all__ = [
    "HeatProblem",
    "HeatSolution",
    "fourier_coeffs",
    "heat_residual",
    "series_grid",
    "solve_heat",
]

_COEFF_ABS_TOL = 1e-12
# Rounding allowance of a coefficient, in units of eps times its scale.
_COEFF_ULPS = 64
_BOUNDARY_TOL = 1e-9


class HeatProblem(Record):
    """Domain length L, diffusivity k, operator orders, initial profile, and
    the series truncation N."""

    __slots__ = ("L", "k", "alpha", "beta", "initial_profile", "n_terms")

    def __init__(
        self, L: float, k: float, alpha: float, beta: float, initial_profile: Expr,
        n_terms: int = 51,
    ):
        require_positive("L", L)
        if not math.isfinite(math.pi / L):
            raise ValidationError(f"L = {L} is too small: the mode frequency pi / L overflows")
        require_positive("k", k)
        require_order(alpha, closed=True)
        require_positive("beta", beta)
        require_int("n_terms", n_terms, 1)
        if not isinstance(initial_profile, Expr):
            raise ValidationError("initial_profile must be an expression tree")
        for edge in (0.0, L):
            value = evaluate(initial_profile, edge)
            if abs(value) > _BOUNDARY_TOL:
                raise ValidationError(
                    f"initial profile must vanish on the boundary: f({edge}) = {value!r}"
                )
        super().__init__(L, k, alpha, beta, initial_profile, n_terms)


# The 64-point Gauss-Legendre rule on [-1, 1]: the positive nodes and their
# weights (the rule is symmetric), correctly rounded from a 60-digit Newton
# solve of P_64(x) = 0.  It integrates polynomials of degree up to 127 exactly.
_XGL = (
    0.9993050417357722,
    0.9963401167719553,
    0.9910133714767443,
    0.983336253884626,
    0.973326827789911,
    0.9610087996520538,
    0.9464113748584028,
    0.9295691721319396,
    0.9105221370785028,
    0.8893154459951141,
    0.8659993981540928,
    0.8406292962525803,
    0.8132653151227975,
    0.7839723589433414,
    0.7528199072605319,
    0.7198818501716109,
    0.6852363130542333,
    0.6489654712546573,
    0.6111553551723933,
    0.571895646202634,
    0.5312794640198946,
    0.48940314570705296,
    0.4463660172534641,
    0.4022701579639916,
    0.3572201583376681,
    0.31132287199021097,
    0.2646871622087674,
    0.21742364374000708,
    0.16964442042399283,
    0.12146281929612056,
    0.07299312178779904,
    0.024350292663424433,
)
_WGL = (
    0.001783280721696433,
    0.004147033260562468,
    0.006504457968978363,
    0.008846759826363947,
    0.011168139460131128,
    0.013463047896718643,
    0.015726030476024718,
    0.017951715775697343,
    0.02013482315353021,
    0.022270173808383253,
    0.024352702568710874,
    0.02637746971505466,
    0.028339672614259483,
    0.030234657072402478,
    0.03205792835485155,
    0.033805161837141606,
    0.035472213256882386,
    0.03705512854024005,
    0.038550153178615626,
    0.03995374113272034,
    0.04126256324262353,
    0.04247351512365359,
    0.04358372452932345,
    0.044590558163756566,
    0.04549162792741814,
    0.046284796581314416,
    0.04696818281621002,
    0.04754016571483031,
    0.04799938859645831,
    0.048344762234802954,
    0.04857546744150343,
    0.048690957009139724,
)


def _gauss_samples(profile, a: float, b: float) -> list[tuple[float, float]]:
    """The pairs (w_j * f(x_j), x_j) of the 64-point Gauss-Legendre rule on [a, b]."""
    half = 0.5 * (b - a)
    center = a + half
    pairs = []
    for node, weight in zip(_XGL, _WGL):
        offset = half * node
        for x in (center - offset, center + offset):
            pairs.append((half * weight * profile(x), x))
    return pairs


def fourier_coeffs(prob: HeatProblem) -> list[float]:
    """Sine-projection coefficients c_n = (2/L) * integral of f(x) sin(n pi x / L).

    ``quad.refine`` with one component per mode and a 64-point
    Gauss-Legendre rule whose profile samples all N modes share, so a mode
    costs only its sines and multiply-adds.  A panel's value is the rule on
    its two halves, its estimate per mode the gap to the rule on the whole
    panel, whose samples the parent panel hands down.  An analytic profile
    settles on the first panel (192 samples).  Running out of panels raises
    ToleranceNotMetError, whose ``best`` holds the unconverged coefficients;
    a non-finite sample raises ValidationError.  Each mode's products are
    added by an explicit left-to-right loop: ``reduce(operator.add, ...)``
    makes the same additions, but about a third slower on Python 3.11, which
    specializes the loop's float add.

    The tolerance is max(1e-12, 64 * eps * (2/L) * sum of |w_j f(x_j)|) over
    the one-panel samples.  Rounding in every coefficient grows with that
    scale, so a large profile cannot meet an absolute 1e-12; a profile of
    order one keeps exactly 1e-12.  The coefficients depend only on the
    profile, L, and N, never on alpha or beta.
    """
    length = prob.L
    front = 2.0 / length
    freqs = [n * (math.pi / length) for n in range(1, prob.n_terms + 1)]
    profile = as_fn(prob.initial_profile)
    sin = math.sin

    def project(pairs):
        coeffs = []
        for w in freqs:
            total = 0.0  # left to right: the builtin sum is compensated from 3.12 on
            for s, x in pairs:
                total += s * sin(w * x)
            coeffs.append(front * total)
        return coeffs

    def rule(a, b, coarse):  # ``coarse``: the samples of one rule on [a, b]
        mid = 0.5 * (a + b)
        pairs = _gauss_samples(profile, a, mid) + _gauss_samples(profile, mid, b)
        values = project(pairs)
        gaps = [abs(v - c) for v, c in zip(values, project(coarse))]
        return values, gaps, pairs[:64], pairs[64:]

    whole = _gauss_samples(profile, 0.0, length)
    scale = 0.0
    for s, _ in whole:
        scale += abs(s)
    scale *= front
    tol = max(_COEFF_ABS_TOL, _COEFF_ULPS * sys.float_info.epsilon * scale)
    try:
        return refine(rule, 0.0, length, whole, tol, 0.0,
                      f"initial profile {unparse(prob.initial_profile)}")[0]
    except ToleranceNotMetError as exc:
        raise ToleranceNotMetError(str(exc), best=exc.best[0]) from None


class HeatSolution(Record):
    """Truncated sine-series solution; term n decays like
    exp(-decay_rates[n-1] * t^alpha)."""

    __slots__ = ("problem", "coefficients", "decay_rates")

    def __init__(
        self, problem: HeatProblem, coefficients: tuple[float, ...], decay_rates: tuple[float, ...]
    ):
        super().__init__(problem, coefficients, decay_rates)

    def evaluate(self, x: float, t: float) -> float:
        """Series value at (x, t); exactly 0 on the boundary."""
        return series_grid((self,), (x,), t)[0][0]

    __call__ = evaluate


def _kept_modes(coeffs, decay) -> int:
    """The smallest K >= 1 with sum_{n>K} |c_n * e_n| <= 2^-55 * sum_n |c_n * e_n|,
    or all N modes when that total overflows and so bounds nothing.  K >= 1
    keeps every sum a float."""
    weights = [abs(c * e) for c, e in zip(coeffs, decay)]
    total = 0.0  # left to right, as fourier_coeffs sums
    for w in weights:
        total += w
    kept = len(weights)
    if not math.isfinite(total):
        return kept
    bound = _TAIL_REL * total
    tail = 0.0
    while kept > 1 and tail + weights[kept - 1] <= bound:
        tail += weights[kept - 1]
        kept -= 1
    return kept


def series_grid(solutions, xs, t: float) -> list[list[float]]:
    """The columns of the solutions' values at (x, t), one list per solution
    with one value per x in ``xs``.

    The solutions must share L and the coefficients, as the alpha columns of
    one table do.  Every x is checked before any term is computed.  The time
    factors e_n = exp(-rate_n * t^alpha) are computed once per solution, and
    each column sums only its modes 1..K of ``_kept_modes``: the weights
    |c_n * e_n| it drops are at most 2^-55, a quarter ulp, of their total,
    below the rounding of the sum itself.  The columns are built mode by mode:
    the terms c_n * sin(n*pi*x/L) over the grid are computed once for n up to
    the largest K, and each column that keeps mode n adds e_n times them, in
    the order of a plain left-to-right sum over n.  Mode 1 starts each column
    as 0.0 + e_1 times its terms, the addition a zero start would make, so a
    -0.0 term still gives 0.0.  A grid of X points and A columns so costs K*X
    sines, N*A exponentials and at most K*A list passes.  Each value is
    exactly 0 on the boundary.
    """
    solutions = tuple(solutions)
    first = solutions[0]
    length = first.problem.L
    coeffs = first.coefficients
    if any(sol.problem.L != length or sol.coefficients != coeffs for sol in solutions):
        raise ValidationError("the solutions of one grid must share L and the coefficients")
    if require_real("t", t) < 0.0:
        raise ValidationError(f"t must be non-negative, got {t}")
    xs = list(xs)
    edges = []
    for i, x in enumerate(xs):
        if type(x) is not float or not 0.0 < x < length:
            if not 0.0 <= require_real("x", x) <= length:
                raise ValidationError(f"x must lie in [0, {length}], got {x}")
            if x == 0.0 or x == length:
                edges.append(i)
    decays = []
    for sol in solutions:
        t_pow = t**sol.problem.alpha
        decay = [math.exp(-rate * t_pow) for rate in sol.decay_rates]
        decays.append(decay[:_kept_modes(coeffs, decay)])
    freq = math.pi / length
    sin = math.sin
    columns = [None] * len(solutions)
    for n in range(max(map(len, decays))):
        c, w = coeffs[n], (n + 1) * freq
        terms = [c * sin(w * x) for x in xs]
        for j, decay in enumerate(decays):
            if n < len(decay):
                e = decay[n]
                if n:
                    columns[j] = [a + s * e for a, s in zip(columns[j], terms)]
                else:  # every column keeps mode 1; 0.0 + turns -0.0 into 0.0
                    columns[j] = [0.0 + s * e for s in terms]
    for column in columns:
        for i in edges:
            column[i] = 0.0
    return columns


def solve_heat(prob: HeatProblem, *, coefficients=None) -> HeatSolution:
    """Build the truncated series solution.

    ``coefficients`` short-circuits the projection when the caller already
    holds them (they are alpha- and beta-independent); lengths must match.
    A decay rate Gamma(beta+1) * (n*pi/L)^2 * k / alpha that is not finite
    raises DomainError.
    """
    if coefficients is None:
        coefficients = fourier_coeffs(prob)
    coefficients = tuple([float(require_real("coefficient", c)) for c in coefficients])
    if len(coefficients) != prob.n_terms:
        raise ValidationError(
            f"expected {prob.n_terms} coefficients, got {len(coefficients)}"
        )
    scale = gamma(prob.beta + 1.0)
    rates = []
    for n in range(1, prob.n_terms + 1):
        try:
            rate = scale * (n * math.pi / prob.L) ** 2 * prob.k / prob.alpha
        except OverflowError:
            rate = math.inf
        # An infinite rate would turn exp(-rate * t^alpha) into nan at t = 0.
        rates.append(require_finite(f"decay rate of mode n={n}", rate))
    return HeatSolution(problem=prob, coefficients=coefficients, decay_rates=tuple(rates))


def heat_residual(sol: HeatSolution, x: float, t: float) -> float:
    """|D_t^alpha u - k u_xx| at an interior point, formed term by term.

    The time factor of each term differentiates analytically: in the clock
    s = t^alpha/alpha the term is exp(-rate * alpha * s), and the closed-form
    operator, d/ds / Gamma(beta+1), leaves -rate * alpha / Gamma(beta+1)
    times it.  That is -k (n pi/L)^2, what the spatial side produces, so only
    rounding noise survives.
    """
    prob = sol.problem
    if not 0.0 < require_real("x", x) < prob.L:
        raise ValidationError(f"x must be interior to (0, {prob.L}), got {x}")
    require_positive("t", t)
    scale = gamma(prob.beta + 1.0)
    freq = math.pi / prob.L
    t_pow = t**prob.alpha
    lhs = rhs = 0.0
    for n, (c, rate) in enumerate(zip(sol.coefficients, sol.decay_rates), start=1):
        term = c * math.sin(n * freq * x) * math.exp(-rate * t_pow)
        lhs -= rate * prob.alpha / scale * term
        rhs -= prob.k * (n * freq) ** 2 * term
    return abs(lhs - rhs)
