"""Linear closed-form and general RK4 solver tests."""

import math
import random

import pytest

from _support import assert_close
from mfrac.errors import ConvergenceError, DomainError, ValidationError
from mfrac.expr import DualNumber
from mfrac.fracderiv import FracParams
from mfrac.ode import LinearOdeProblem, TermSign, solve_general, solve_linear, verify_linear


def problem(mu_sq, sign, c, alpha, beta):
    return LinearOdeProblem(mu_sq, sign, c, FracParams(alpha, beta))


class TestLinear:
    def test_classical_decay(self):
        sol = solve_linear(problem(1.0, TermSign.PLUS, 1.0, 1.0, 1.0))
        assert_close(sol(1.0), math.exp(-1.0), 1e-14)
        assert "exp" in sol.description

    def test_initial_value_recovered_near_zero(self):
        sol = solve_linear(problem(2.0, TermSign.PLUS, 3.5, 0.5, 1.5))
        assert sol(1e-30) == pytest.approx(3.5, rel=1e-12)

    def test_minus_sign_grows(self):
        sol = solve_linear(problem(1.0, TermSign.MINUS, 1.0, 0.5, 1.0))
        assert sol(4.0) > 1.0

    def test_heat_mode_time_factor(self):
        # mu^2 = pi^2 * k reproduces the leading separable time factor.
        k = 0.003
        alpha, beta = 0.5, 0.5
        sol = solve_linear(problem(math.pi**2 * k, TermSign.PLUS, 1.0, alpha, beta))
        t = 150.0
        expected = math.exp(-math.gamma(beta + 1.0) * math.pi**2 * k / alpha * t**alpha)
        assert_close(sol(t), expected, 1e-12)

    def test_residual_grid(self):
        ts = (0.1, 1.0, 10.0)
        for mu_sq in (0.1, 1.0, 10.0):
            for alpha in (0.25, 0.5, 0.9):
                for beta in (0.5, 1.0, 2.0):
                    for sign in (TermSign.PLUS, TermSign.MINUS):
                        prob = problem(mu_sq, sign, 1.3, alpha, beta)
                        sol = solve_linear(prob)
                        bound = 1e-9 * (1.0 + max(abs(sol(t)) for t in ts))
                        assert verify_linear(sol, prob, ts) <= bound

    def test_zero_scale_gives_zero_residual(self):
        prob = problem(1.0, TermSign.PLUS, 0.0, 0.5, 1.0)
        assert verify_linear(solve_linear(prob), prob, (0.5, 2.0)) == 0.0

    def test_sign_error_is_detected(self):
        plus = problem(1.0, TermSign.PLUS, 1.0, 0.5, 1.0)
        minus = problem(1.0, TermSign.MINUS, 1.0, 0.5, 1.0)
        sol = solve_linear(plus)
        residual = verify_linear(sol, minus, (1.0,))
        assert residual >= plus.mu_sq * abs(sol(1.0))

    def test_classical_limit_formula(self):
        for sign, expo in ((TermSign.PLUS, -1.0), (TermSign.MINUS, 1.0)):
            sol = solve_linear(problem(2.5, sign, 1.7, 1.0, 1.0))
            for t in (0.3, 1.0, 2.0):
                expected = 1.7 * math.exp(expo * 2.5 * t)
                assert abs(sol(t) - expected) <= 1e-12 * abs(expected)

    def test_validation(self):
        with pytest.raises(ValidationError):
            problem(0.0, TermSign.PLUS, 1.0, 0.5, 1.0)
        with pytest.raises(ValidationError):
            problem(1.0, "plus", 1.0, 0.5, 1.0)
        with pytest.raises(ValidationError):
            problem(1.0, TermSign.PLUS, 1.0, 1.5, 1.0)
        sol = solve_linear(problem(1.0, TermSign.PLUS, 1.0, 0.5, 1.0))
        with pytest.raises(DomainError):
            sol(0.0)

    def test_overflow_is_a_domain_error(self):
        growing = solve_linear(problem(1e300, TermSign.MINUS, 1.0, 0.5, 1.0))
        with pytest.raises(DomainError, match="t=1.0"):
            growing(1.0)
        # alpha = 1e-10 makes the exponent coefficient infinite: the value
        # underflows to 0, and so does its derivative, whose slope
        # -Gamma(beta+1) * mu^2 carries no 1/alpha.
        decaying = solve_linear(problem(1e300, TermSign.PLUS, 1.0, 1e-10, 1.0))
        assert decaying(1.0) == 0.0
        assert decaying.dual_evaluator(1.0) == DualNumber(0.0, 0.0)
        # c = 0 is the zero solution, however large exp(rate * s) grows.
        zero = solve_linear(problem(1.0, TermSign.MINUS, 0.0, 0.5, 1.0))
        assert zero.dual_evaluator(1e6) == DualNumber(0.0, 0.0)

    def test_common_inputs_match_the_plain_product_bitwise(self):
        # Where Gamma(beta+1) * mu^2, s = t^alpha/alpha and their product are
        # normal doubles, the scaled mantissas round as the plain product does.
        rng = random.Random(25)
        for _ in range(2000):
            mu_sq, alpha = rng.uniform(0.1, 3.0), rng.uniform(0.05, 1.0)
            beta, t, c = rng.uniform(0.3, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0)
            sign = rng.choice((TermSign.PLUS, TermSign.MINUS))
            sol = solve_linear(problem(mu_sq, sign, c, alpha, beta))
            sgn = -1.0 if sign is TermSign.PLUS else 1.0
            plain = c * math.exp(sgn * (math.gamma(beta + 1.0) * mu_sq) * (t**alpha / alpha))
            assert sol(t) == plain, (mu_sq, sign, c, alpha, beta, t)

    def test_derivative_where_only_the_chain_factor_overflows(self):
        # t^(alpha-1) at t = 1e-310 is about 10^309.7, but dv/dt is about -4.9e9.
        from mpmath import mp

        mp.dps = 40
        mu_sq, alpha, t = 1e-300, 0.001, 1e-310
        sol = solve_linear(problem(mu_sq, TermSign.PLUS, 1.0, alpha, 1.0))
        s = mp.mpf(t) ** alpha / alpha
        want = -mu_sq * mp.exp(-mu_sq * s) * mp.mpf(t) ** (alpha - 1)
        assert abs(sol.dual_evaluator(t).der - want) <= 1e-12 * abs(want)


class TestGeneral:
    def test_reproduces_linear_closed_form(self):
        prob = problem(1.0, TermSign.PLUS, 1.0, 0.5, 1.0)
        closed = solve_linear(prob)
        v0 = closed(0.1)
        sampled = solve_general(lambda t, v: -v, 0.1, v0, 2.0, prob.p, 1000)
        assert abs(sampled(2.0) - closed(2.0)) <= 1e-8
        for t in (0.37, 1.234, 1.999):
            assert abs(sampled(t) - closed(t)) <= 1e-8

    def test_zero_rhs_is_constant(self):
        sol = solve_general(lambda t, v: 0.0, 0.5, 4.2, 3.0, FracParams(0.7, 2.0), 16)
        for t in (0.5, 1.1, 2.6, 3.0):
            assert sol(t) == 4.2

    def test_transform_cancellation_gives_unit_slope(self):
        # g = t^(1-alpha)/Gamma(beta+1) turns the transformed equation into v' = 1.
        alpha, beta = 0.6, 1.8
        scale = math.gamma(beta + 1.0)
        sol = solve_general(
            lambda t, v: t ** (1.0 - alpha) / scale, 0.5, 2.0, 2.5, FracParams(alpha, beta), 64
        )
        assert_close(sol(2.5), 4.0, 1e-10)

    def test_fourth_order_convergence(self):
        prob = problem(1.0, TermSign.PLUS, 1.0, 0.5, 1.0)
        closed = solve_linear(prob)
        v0 = closed(0.5)
        errors = []
        for steps in (40, 80):
            sampled = solve_general(lambda t, v: -v, 0.5, v0, 2.5, prob.p, steps)
            errors.append(abs(sampled(2.5) - closed(2.5)))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0, ratio

    def test_divergence_raises(self):
        with pytest.raises(ConvergenceError):
            solve_general(lambda t, v: v * v, 1.0, 100.0, 5.0, FracParams(0.5, 1.0), 100)

    def test_step_count_validated(self):
        with pytest.raises(ValidationError):
            solve_general(lambda t, v: 0.0, 1.0, 1.0, 2.0, FracParams(0.5, 1.0), 3)

    def test_range_enforced(self):
        sol = solve_general(lambda t, v: 0.0, 1.0, 1.0, 2.0, FracParams(0.5, 1.0), 8)
        with pytest.raises(DomainError):
            sol(0.9)
        with pytest.raises(DomainError):
            sol(2.1)

    def test_requires_positive_start(self):
        with pytest.raises(ValidationError):
            solve_general(lambda t, v: 0.0, -1e-300, 1.0, 2.0, FracParams(0.5, 1.0), 8)
        assert solve_general(lambda t, v: 0.0, 0.0, 1.0, 2.0, FracParams(0.5, 1.0), 8)(0.0) == 1.0

    def test_unresolvable_clock_is_a_domain_error(self):
        # From t0 = 0 the grid spans s(t1) = t1^alpha/alpha, which exceeds the
        # largest double at alpha = 1e-320.
        with pytest.raises(DomainError, match="cannot resolve"):
            solve_general(lambda t, v: -v, 0.0, 1.0, 2.0, FracParams(1e-320, 1.0), 8)

    @pytest.mark.parametrize("alpha", [1e-10, 1e-17, 1e-320])
    def test_small_alpha_keeps_its_accuracy(self, alpha):
        # As alpha -> 0, s(t) - s(t0) -> ln(t/t0), so D v = -v (beta = 1)
        # from v(t0) = 1 tends to v = t0/t; at alpha <= 1e-10 the two differ
        # by less than 1e-9.  The grid's nodes are offsets from s(t0) and do
        # not round with s itself, which is near 1/alpha.
        sol = solve_general(lambda t, v: -v, 0.5, 1.0, 2.0, FracParams(alpha, 1.0), 100)
        assert abs(sol(2.0) - 0.25) <= 1e-8
        for i in range(1000):
            t = 0.5 + 1.5 * i / 999
            assert abs(sol(t) - 0.5 / t) <= 1e-8, t

    def test_node_times_stay_in_range(self):
        # Near the largest double the clock's inverse at the last node rounds
        # above t1 (here to inf); g must still see times in [t0, t1].
        seen = []
        t1 = 1.7976931348623157e308
        sol = solve_general(
            lambda t, v: seen.append(t) or 0.0, 0.0, 1.0, t1, FracParams(0.9, 1.0), 8
        )
        assert sol(t1) == 1.0
        assert min(seen) == 0.0 and max(seen) == t1

    @pytest.mark.parametrize("t0", [0.0, 1e-8, 1e-3])
    def test_starts_at_or_near_zero(self, t0):
        # D v = -v at alpha = 0.5, beta = 1 is dv/ds = -v with s = 2 sqrt(t):
        # v = exp(-2 sqrt(t)).  In t the equation carries t^(-1/2), which a
        # grid uniform in t cannot resolve near 0.
        def exact(t):
            return math.exp(-2.0 * math.sqrt(t))

        sol = solve_general(lambda t, v: -v, t0, exact(t0), 2.0, FracParams(0.5, 1.0), 100)
        assert abs(sol(2.0) - exact(2.0)) <= 1e-8
        for i in range(1000):
            t = t0 + (2.0 - t0) * i / 999
            assert abs(sol(t) - exact(t)) <= 1e-8, t

    def test_derivative_at_zero_is_a_domain_error(self):
        # dv/dt = (dv/ds) * t^(alpha-1) is infinite at t = 0 for alpha < 1.
        sol = solve_general(lambda t, v: -v, 0.0, 1.0, 2.0, FracParams(0.5, 1.0), 8)
        with pytest.raises(DomainError, match="derivative at t=0.0 is not finite"):
            sol.dual_evaluator(0.0)
        assert math.isfinite(sol.dual_evaluator(1e-300).der)
        classical = solve_general(lambda t, v: -v, 0.0, 1.0, 2.0, FracParams(1.0, 1.0), 64)
        assert_close(classical.dual_evaluator(0.0).der, -1.0, 1e-8)
