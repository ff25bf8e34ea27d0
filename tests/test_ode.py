"""Linear closed-form ODE solver tests."""

import math
import random

import pytest

from _support import assert_close
from mfrac.errors import DomainError, ValidationError
from mfrac.expr import DualNumber
from mfrac.fracderiv import FracParams
from mfrac.ode import LinearOdeProblem, TermSign, solve_linear, verify_linear


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
