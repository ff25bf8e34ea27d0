"""Derivative-operator tests: closed form, limit estimator, families, witnesses."""

import math
import random

import pytest

from _support import X, assert_close, eval_fn, random_params, random_poly_trig, substitute
from mfrac import fracderiv
from mfrac.errors import ConvergenceError, ValidationError
from mfrac.expr import (
    Add,
    Call,
    Constant,
    Div,
    Mul,
    Pow,
    as_dual_fn,
    as_fn,
    evaluate,
    evaluate_dual,
    parse,
)
from mfrac.fracderiv import (
    DerivFamily,
    FracParams,
    deriv_closed,
    deriv_higher,
    deriv_higher_limit,
    deriv_limit,
    family_params,
    mvt_witness,
    rolle_witness,
)
from mfrac.special import INFINITY, MLParams, TruncationIndex


def fp(alpha, beta, i=None):
    return FracParams(alpha, beta, INFINITY if i is None else TruncationIndex(i))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FracParams(0.0, 1.0)
        with pytest.raises(ValidationError):
            FracParams(0.5, 0.0)
        with pytest.raises(ValidationError):
            FracParams(0.5, 1.0, 3)
        p = fp(0.5, 2.0, 4)
        assert p.ml_params().beta == 2.0
        assert p.ml_params().trunc.value == 4

    def test_zero_truncation_rejected(self):
        # With i = 0 the kernel sum is the constant 1, so the operator would be
        # identically zero; the kernel itself still admits it.
        with pytest.raises(ValidationError, match="truncation index"):
            FracParams(0.5, 1.0, TruncationIndex(0))
        assert MLParams(1.0, TruncationIndex(0)).trunc.value == 0

    def test_order_windows(self):
        f = as_dual_fn(parse("x"))
        with pytest.raises(ValidationError):
            deriv_closed(f, fp(1.5, 1.0), 1.0)
        with pytest.raises(ValidationError):
            deriv_limit(as_fn(parse("x")), fp(1.0, 1.0), 1.0)  # limit form needs alpha < 1
        deriv_closed(f, fp(1.0, 1.0), 1.0)  # closed form admits the classical edge

    def test_point_validation(self):
        f = as_dual_fn(parse("x"))
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValidationError):
                deriv_closed(f, fp(0.5, 1.0), bad)


class TestClosedForm:
    def test_identity_function(self):
        value = deriv_closed(as_dual_fn(parse("x")), fp(0.5, 1.0), 4.0)
        assert_close(value, 2.0, 1e-13)

    def test_constant_is_exactly_zero(self):
        f = as_dual_fn(parse("7"))
        for alpha, beta in [(0.3, 0.5), (0.8, 2.0), (1.0, 1.0)]:
            assert deriv_closed(f, fp(alpha, beta), 2.7) == 0.0

    def test_power_alpha_over_alpha(self):
        # f(t) = t^0.5 / 0.5 makes the closed form identically 1/Gamma(beta+1).
        f = as_dual_fn(parse("x^0.5/0.5"))
        assert_close(deriv_closed(f, fp(0.5, 1.0), 9.0), 1.0, 1e-13)

    def test_sine_with_beta_two(self):
        value = deriv_closed(as_dual_fn(parse("sin(x)")), fp(0.3, 2.0), 1.0)
        assert_close(value, math.cos(1.0) / 2.0, 1e-13)  # Gamma(3) = 2

    def test_independent_of_truncation(self):
        f = as_dual_fn(parse("exp(x)"))
        values = {deriv_closed(f, fp(0.4, 1.5, i), 1.7) for i in (1, 5, None)}
        assert len(values) == 1


class TestLimitEstimator:
    def test_square_matches_closed(self):
        p = fp(0.5, 1.0, 1)
        est = deriv_limit(as_fn(parse("x^2")), p, 1.0)
        closed = deriv_closed(as_dual_fn(parse("x^2")), p, 1.0)
        assert_close(closed, 2.0, 1e-14)
        assert abs(est.value - closed) <= 1e-6 * (1.0 + abs(closed))
        assert est.extrapolation_error >= 0.0
        assert 0.0 < est.eps_used <= 1e-2

    def test_constant_is_exact_zero(self):
        est = deriv_limit(lambda s: 4.25, fp(0.7, 2.0, 3), 2.0)
        assert est.value == 0.0
        assert est.extrapolation_error == 0.0

    def test_sine_beta_two_truncated(self):
        p = fp(0.3, 2.0, 5)
        est = deriv_limit(as_fn(parse("sin(x)")), p, 1.0)
        assert_close(est.value, math.cos(1.0) / 2.0, 1e-6)

    def test_jump_reports_non_convergence(self):
        step = lambda s: 0.0 if s < 1.0 else 1.0
        with pytest.raises(ConvergenceError):
            deriv_limit(step, fp(0.5, 1.0, 1), 1.0)

    def test_kink_reports_disagreeing_sides(self):
        kink = lambda s: abs(s - 1.0)
        with pytest.raises(ConvergenceError):
            deriv_limit(kink, fp(0.5, 1.0), 1.0)

    def test_quotient_evaluated_lazily(self):
        # g(t) once, then one quotient per Richardson level actually judged.
        calls = []

        def g(x):
            calls.append(x)
            return math.exp(x)

        deriv_limit(g, fp(0.5, 1.0), 1.3)
        assert len(calls) == 21

    def test_non_finite_first_quotient_stops_the_limit(self):
        # g(t), then one quotient: its non-finite estimate leaves nothing to compare.
        calls = []

        def g(x):
            calls.append(x)
            return 0.0 if x == 1.3 else math.inf

        with pytest.raises(ConvergenceError, match="eps > 0 gave no two finite estimates"):
            deriv_limit(g, fp(0.5, 1.0), 1.3)
        assert len(calls) == 2

    def test_agreement_grid_subset(self):
        # The wide (f, alpha, beta, i, t) sweep lives in the acceptance suite.
        for source in ("x^2", "sin(x)"):
            f, fd = as_fn(parse(source)), as_dual_fn(parse(source))
            for alpha in (0.1, 0.9):
                for beta in (0.5, 2.0):
                    for i in (1, None):
                        for t in (0.5, 2.0):
                            p = fp(alpha, beta, i)
                            closed = deriv_closed(fd, p, t)
                            est = deriv_limit(f, p, t)
                            assert abs(est.value - closed) <= 1e-6 * (1.0 + abs(closed))


def pulls(values):
    """Yield ``values``, then fail the test if pulled once more."""
    yield from values
    raise AssertionError("pulled past the stop")


class TestSettle:
    def test_smallest_change_wins(self):
        value, change, index = fracderiv._settle(iter([1.0, 1.5, 1.25, 1.3, 1.2]), 0.1, "seq")
        assert (value, change, index) == (1.3, abs(1.3 - 1.25), 3)

    def test_stops_at_non_finite(self):
        assert fracderiv._settle(pulls([1.0, 1.5, math.inf]), 1.0, "seq") == (1.5, 0.5, 1)

    def test_stops_once_settled_without_pulling_further(self):
        value, change, index = fracderiv._settle(pulls([1.0, 1.5, 1.5 + 1e-14]), 1e-6, "seq")
        assert (value, index) == (1.5 + 1e-14, 2)
        assert change <= 1e-13 * (1.0 + value)

    def test_stops_on_noise_from_the_seventh_estimate(self):
        # The jumps at indices 3 and 4 exceed 16 times the best change but come
        # before the seventh estimate; the jump at index 6 ends the pull.
        seq = [1.0, 2.0, 2.001, 9.0, 2.0005, 2.0006, 50.0]
        value, change, index = fracderiv._settle(pulls(seq), 1e-3, "seq")
        assert (value, change, index) == (2.0006, abs(2.0006 - 2.0005), 5)

    def test_raises_when_not_settled(self):
        with pytest.raises(ConvergenceError, match="the test sequence did not settle"):
            fracderiv._settle(iter([1.0, 2.0, 4.0]), 1e-6, "the test sequence")

    def test_raises_without_two_finite_estimates(self):
        for seq in ([], [1.0], [math.nan, 1.0, 1.0]):
            with pytest.raises(ConvergenceError, match="the test sequence gave no two"):
                fracderiv._settle(iter(seq), 1e-6, "the test sequence")


def _cubic_derivs(t, order):
    return {0: t**3, 1: 3.0 * t**2, 2: 6.0 * t, 3: 6.0}[order]


class TestHigherOrder:
    def test_cubic(self):
        # t^(n+1-alpha) * f''(t) / Gamma(beta+1) = 2^0.5 * 12 for n=1, alpha=1.5.
        value = deriv_higher(_cubic_derivs, fp(1.5, 1.0), 1, 2.0)
        assert_close(value, 2.0**0.5 * 12.0, 1e-12)

    def test_constant(self):
        flat = lambda t, order: 5.0 if order == 0 else 0.0
        assert deriv_higher(flat, fp(1.5, 2.0), 1, 3.0) == 0.0

    def test_square_at_integer_edge(self):
        square = lambda t, order: {0: t**2, 1: 2.0 * t, 2: 2.0}[order]
        assert_close(deriv_higher(square, fp(2.0, 1.0), 1, 5.0), 2.0, 1e-12)

    def test_order_window_enforced(self):
        with pytest.raises(ValidationError):
            deriv_higher(_cubic_derivs, fp(2.5, 1.0), 1, 2.0)
        with pytest.raises(ValidationError):
            deriv_higher(_cubic_derivs, fp(1.5, 1.0), 2, 2.0)
        with pytest.raises(ValidationError):
            deriv_higher(_cubic_derivs, fp(1.5, 1.0), -1, 2.0)

    def test_order_window_messages(self):
        with pytest.raises(ValidationError, match=r"\(1, 2\] for order n=1, got 2.5"):
            deriv_higher_limit(_cubic_derivs, fp(2.5, 1.0), 1, 2.0)
        with pytest.raises(ValidationError, match=r"\(0, 1\], got 1.5"):
            deriv_higher(_cubic_derivs, fp(1.5, 1.0), 0, 2.0)

    def test_limit_cross_validation(self):
        for alpha, beta, i in [(1.5, 1.0, None), (1.2, 2.0, 4), (2.0, 0.5, 1)]:
            p = fp(alpha, beta, i)
            n = 1
            closed = deriv_higher(_cubic_derivs, p, n, 2.0)
            est = deriv_higher_limit(_cubic_derivs, p, n, 2.0)
            assert abs(est.value - closed) <= 1e-6 * (1.0 + abs(closed))

    def test_order_zero_limit_shares_deriv_limits_window(self):
        # n = 0 is the first-order limit operator: alpha = 1 is outside (0, 1)
        # for both entry points, and inside it they agree bitwise.
        sine = lambda t, m: (math.sin(t), math.cos(t))[m]
        for entry in (lambda p: deriv_limit(math.sin, p, 1.3),
                      lambda p: deriv_higher_limit(sine, p, 0, 1.3)):
            with pytest.raises(ValidationError, match=r"\(0, 1\), got 1.0"):
                entry(fp(1.0, 1.0))
        p = fp(0.6, 1.5)
        assert deriv_higher_limit(sine, p, 0, 1.3) == deriv_limit(math.sin, p, 1.3)


class TestFamilies:
    def test_parameter_mappings(self):
        assert family_params(DerivFamily.conformable(), 0.4) == fp(0.4, 1.0, 1)
        assert family_params(DerivFamily.alternative(), 0.4) == fp(0.4, 1.0)
        assert family_params(DerivFamily.generalized(7), 0.4) == fp(0.4, 1.0, 7)
        assert family_params(DerivFamily.m_fractional(2.0), 0.4) == fp(0.4, 2.0)
        assert family_params(
            DerivFamily("truncated(beta=1.5,i=3)", 1.5, TruncationIndex(3)), 0.4
        ) == fp(0.4, 1.5, 3)

    def test_quotient_forms_match_independent_implementations(self):
        # Test-local quotient limits for the three special-case definitions,
        # estimated with a symmetric second-order extrapolation that shares no
        # code with the package.
        def settle(q, eps=1e-3):
            sym = lambda e: 0.5 * (q(e) + q(-e))
            return (4.0 * sym(eps / 2.0) - sym(eps)) / 3.0

        def trunc_exp(z, i):
            return sum(z**k / math.factorial(k) for k in range(i + 1))

        for source in ("x^2", "sin(x)"):
            f = as_fn(parse(source))
            for alpha in (0.3, 0.6):
                for t in (0.7, 1.3):
                    conf = settle(lambda e: (f(t + e * t ** (1 - alpha)) - f(t)) / e)
                    alt = settle(lambda e: (f(t * math.exp(e * t**-alpha)) - f(t)) / e)
                    mine_conf = deriv_limit(f, family_params(DerivFamily.conformable(), alpha), t)
                    mine_alt = deriv_limit(f, family_params(DerivFamily.alternative(), alpha), t)
                    assert_close(mine_conf.value, conf, 1e-10, f"conformable {source}")
                    assert_close(mine_alt.value, alt, 1e-10, f"alternative {source}")
                    for i in (2, 5):
                        gen = settle(
                            lambda e: (f(t * trunc_exp(e * t**-alpha, i)) - f(t)) / e
                        )
                        mine = deriv_limit(f, family_params(DerivFamily.generalized(i), alpha), t)
                        assert_close(mine.value, gen, 1e-10, f"generalized({i}) {source}")


class TestCalculusRules:
    """Identity checks on random smooth functions; the 1000-instance sweeps
    are in the acceptance suite."""

    def test_linearity(self):
        rng = random.Random(31)
        for _ in range(100):
            f, g = random_poly_trig(rng), random_poly_trig(rng)
            a, b = rng.uniform(-3, 3), rng.uniform(-3, 3)
            p, t = random_params(rng), rng.uniform(0.4, 2.5)
            combined = Add(Mul(Constant(a), f), Mul(Constant(b), g))
            lhs = deriv_closed(as_dual_fn(combined), p, t)
            rhs = a * deriv_closed(as_dual_fn(f), p, t) + b * deriv_closed(as_dual_fn(g), p, t)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))

    def test_product_rule(self):
        rng = random.Random(37)
        for _ in range(100):
            f, g = random_poly_trig(rng), random_poly_trig(rng)
            p, t = random_params(rng), rng.uniform(0.4, 2.5)
            lhs = deriv_closed(as_dual_fn(Mul(f, g)), p, t)
            rhs = evaluate(f, t) * deriv_closed(as_dual_fn(g), p, t) + evaluate(
                g, t
            ) * deriv_closed(as_dual_fn(f), p, t)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))

    def test_quotient_rule(self):
        rng = random.Random(41)
        done = 0
        while done < 100:
            f, g = random_poly_trig(rng), random_poly_trig(rng)
            p, t = random_params(rng), rng.uniform(0.4, 2.5)
            gt = evaluate(g, t)
            if abs(gt) < 0.5:
                continue
            lhs = deriv_closed(as_dual_fn(Div(f, g)), p, t)
            rhs = (
                gt * deriv_closed(as_dual_fn(f), p, t)
                - evaluate(f, t) * deriv_closed(as_dual_fn(g), p, t)
            ) / gt**2
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))
            done += 1

    def test_constant_rule(self):
        rng = random.Random(43)
        for _ in range(100):
            p, t = random_params(rng), rng.uniform(0.4, 2.5)
            assert deriv_closed(as_dual_fn(Constant(rng.uniform(-9, 9))), p, t) == 0.0

    def test_composition_rule(self):
        rng = random.Random(47)
        done = 0
        while done < 100:
            f, g = random_poly_trig(rng), random_poly_trig(rng)
            p, t = random_params(rng), rng.uniform(0.4, 2.5)
            gt = evaluate(g, t)
            if abs(gt) > 12.0:
                continue
            lhs = deriv_closed(as_dual_fn(substitute(f, g)), p, t)
            rhs = evaluate_dual(f, gt).der * deriv_closed(as_dual_fn(g), p, t)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + max(abs(lhs), abs(rhs)))
            done += 1


class TestWitnesses:
    def test_rolle_on_parabola(self):
        f = as_dual_fn(parse("(x-1)*(x-2)"))
        c = rolle_witness(f, 1.0, 2.0, fp(0.5, 1.0))
        assert abs(c - 1.5) <= 1e-9
        assert abs(deriv_closed(f, fp(0.5, 1.0), c)) <= 1e-8

    def test_rolle_on_constant_returns_first_scan_point(self):
        f = as_dual_fn(parse("3"))
        c = rolle_witness(f, 1.0, 2.0, fp(0.5, 1.0))
        assert 1.0 < c < 2.0
        assert c == pytest.approx(1.0 + 1.0 / 1024.0, abs=1e-15)

    def test_rolle_on_sine(self):
        f = as_dual_fn(Call("sin", Mul(Constant(math.pi), X)))
        c = rolle_witness(f, 1.0, 3.0, fp(0.7, 2.0))
        assert min(abs(c - 1.5), abs(c - 2.5)) <= 1e-9

    def test_rolle_rejects_unequal_endpoints(self):
        with pytest.raises(ValidationError):
            rolle_witness(as_dual_fn(parse("x")), 1.0, 2.0, fp(0.5, 1.0))

    def test_mvt_degenerate_power(self):
        f = as_dual_fn(parse("x^0.5/0.5"))
        p = fp(0.5, 1.0)
        c = mvt_witness(f, 1.0, 4.0, p)
        assert 1.0 < c < 4.0
        assert abs(deriv_closed(f, p, c) - 1.0) <= 1e-8

    def test_mvt_identity_function(self):
        f = as_dual_fn(parse("x"))
        c = mvt_witness(f, 1.0, 4.0, fp(0.5, 1.0))
        assert abs(c - 2.25) <= 1e-9

    def test_mvt_classical_limit(self):
        f = as_dual_fn(parse("x^2"))
        c = mvt_witness(f, 1.0, 2.0, fp(1.0, 1.0))
        assert abs(c - 1.5) <= 1e-9

    def test_mvt_beta_correction(self):
        # The witness satisfies D f(c) = ratio / Gamma(beta+1); check for beta != 1.
        f = as_dual_fn(parse("x"))
        p = fp(0.5, 2.0)
        c = mvt_witness(f, 1.0, 4.0, p)
        ratio = (4.0 - 1.0) / ((4.0**0.5 - 1.0**0.5) / 0.5)
        assert abs(deriv_closed(f, p, c) - ratio / math.gamma(3.0)) <= 1e-8

    def test_interval_validation(self):
        f = as_dual_fn(parse("3"))
        with pytest.raises(ValidationError):
            rolle_witness(f, -1.0, 2.0, fp(0.5, 1.0))
        with pytest.raises(ValidationError):
            rolle_witness(f, 2.0, 1.0, fp(0.5, 1.0))
