"""Heat-equation solver tests: coefficients, series evaluation, PDE residual, limits."""

import math
import random
from dataclasses import replace

import pytest

from _support import assert_close, classical_heat_series
from mfrac.errors import DomainError, ValidationError
from mfrac.expr import parse
from mfrac.fracderiv import FracParams
from mfrac.heat import (
    HeatProblem,
    fourier_coeffs,
    heat_residual,
    limit_solutions,
    series_grid,
    solve_heat,
)
from mfrac.ode import LinearOdeProblem, OdeSolution, TermSign, solve_linear, verify_linear
from mfrac.expr import DualNumber

PROFILE = parse("50*x*(1-x)")


def paper_problem(alpha=0.5, beta=1.0, n_terms=51):
    return HeatProblem(L=1.0, k=0.003, alpha=alpha, beta=beta,
                       initial_profile=PROFILE, n_terms=n_terms)


class TestProblemValidation:
    def test_profile_must_vanish_on_boundary(self):
        with pytest.raises(ValidationError):
            HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0, initial_profile=parse("x"))

    def test_parameter_ranges(self):
        with pytest.raises(ValidationError):
            HeatProblem(L=0.0, k=0.003, alpha=0.5, beta=1.0, initial_profile=PROFILE)
        with pytest.raises(ValidationError):
            HeatProblem(L=1.0, k=0.003, alpha=1.2, beta=1.0, initial_profile=PROFILE)
        with pytest.raises(ValidationError):
            HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                        initial_profile=PROFILE, n_terms=0)
        HeatProblem(L=1.0, k=0.003, alpha=1.0, beta=1.0, initial_profile=PROFILE)


class TestFourierCoefficients:
    def test_logistic_profile_against_symbolic_integration(self):
        # integral of x(1-x) sin(n pi x) over [0,1] = 2(1-(-1)^n)/(n pi)^3,
        # so c_n = 400/(n pi)^3 for odd n and 0 for even n.
        coeffs = fourier_coeffs(paper_problem(n_terms=8))
        assert abs(coeffs[0] - 400.0 / math.pi**3) <= 1e-11
        for n, c in enumerate(coeffs, start=1):
            expected = 400.0 / (n * math.pi) ** 3 if n % 2 == 1 else 0.0
            assert abs(c - expected) <= 1e-11, n

    def test_pure_mode_is_orthogonal(self):
        prob = HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=parse("sin(3.141592653589793*x)"), n_terms=4)
        coeffs = fourier_coeffs(prob)
        assert abs(coeffs[0] - 1.0) <= 1e-9
        for c in coeffs[1:]:
            assert abs(c) <= 1e-9

    def test_alpha_and_beta_do_not_matter(self):
        a = fourier_coeffs(paper_problem(alpha=0.3, beta=0.5, n_terms=5))
        b = fourier_coeffs(paper_problem(alpha=0.9, beta=2.0, n_terms=5))
        assert a == b


class TestSolveHeat:
    def test_initial_condition_at_midpoint(self):
        sol = solve_heat(paper_problem())
        assert abs(sol.evaluate(0.5, 0.0) - 12.5) <= 1e-3

    def test_boundaries_exactly_zero(self):
        sol = solve_heat(paper_problem())
        for t in (0.0, 1.0, 150.0):
            assert sol.evaluate(0.0, t) == 0.0
            assert sol.evaluate(1.0, t) == 0.0

    def test_classical_reduction_matches_direct_series(self):
        prob = paper_problem(alpha=1.0, beta=1.0)
        sol = solve_heat(prob)
        for x in (0.1, 0.5, 0.77):
            expected = classical_heat_series(x, 10.0, diffusivity=0.003, n_terms=51)
            assert abs(sol.evaluate(x, 10.0) - expected) <= 1e-9

    def test_initial_condition_converges_with_more_terms(self):
        prob = paper_problem(n_terms=201)
        sol = solve_heat(prob)
        worst = max(
            abs(sol.evaluate(x, 0.0) - 50.0 * x * (1.0 - x))
            for x in [i / 200.0 for i in range(201)]
        )
        assert worst <= 1e-4
        smaller = solve_heat(paper_problem(n_terms=21))
        worst_small = max(
            abs(smaller.evaluate(x, 0.0) - 50.0 * x * (1.0 - x))
            for x in [i / 200.0 for i in range(201)]
        )
        assert worst < worst_small

    def test_decay_in_time(self):
        sol = solve_heat(paper_problem(alpha=0.7, beta=2.0))
        for x in (0.25, 0.5, 0.9):
            values = [sol.evaluate(x, t) for t in (0.0, 1.0, 10.0, 150.0, 1000.0)]
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-12

    def test_coefficient_override_length_checked(self):
        with pytest.raises(ValidationError):
            solve_heat(paper_problem(n_terms=5), coefficients=(1.0, 2.0))

    @pytest.mark.parametrize("length, k, mode", [
        (1e-160, 1.0, 1),  # (n*pi/L)**2 raises OverflowError
        (3e-154, 1.0, 2),  # mode 1 still fits, mode 2 does not
        (1.0, 1e308, 1),  # the product overflows to inf without raising
    ])
    def test_overflowing_decay_rate_is_a_domain_error(self, length, k, mode):
        prob = HeatProblem(L=length, k=k, alpha=1.0, beta=1.0,
                           initial_profile=parse(f"x*({length!r}-x)"), n_terms=3)
        with pytest.raises(DomainError, match=f"n={mode}"):
            solve_heat(prob, coefficients=(1.0, 0.5, 0.25))


def plain_series(sol, x, t):
    """The truncated series at one point, summed term by term."""
    prob = sol.problem
    if x in (0.0, prob.L):
        return 0.0
    total = 0.0
    for n, (c, rate) in enumerate(zip(sol.coefficients, sol.decay_rates), start=1):
        total += c * math.sin(n * math.pi * x / prob.L) * math.exp(-rate * t**prob.alpha)
    return total


class TestSeriesGrid:
    def test_random_grids_match_pointwise_and_plain_loop(self):
        rng = random.Random(83)
        for _ in range(30):
            length = rng.uniform(0.2, 4.0)
            n_terms = rng.randint(1, 40)
            profile = parse(f"x*({length!r}-x)")
            coeffs = [rng.uniform(-5.0, 5.0) for _ in range(n_terms)]
            beta = rng.choice([0.5, 1.0, 2.0, rng.uniform(0.3, 3.0)])
            k = rng.uniform(1e-3, 1e-1)
            alphas = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 6))] + [1.0]
            sols = [
                solve_heat(HeatProblem(L=length, k=k, alpha=a, beta=beta,
                                       initial_profile=profile, n_terms=n_terms),
                           coefficients=coeffs)
                for a in alphas
            ]
            points = rng.randint(2, 60)
            xs = [0.0, length] + [rng.uniform(0.0, length) for _ in range(10)]
            xs += [min(length * i / (points - 1), length) for i in range(points)]
            bound = 1e-13 * (1.0 + sum(abs(c) for c in coeffs))
            for t in (0.0, rng.uniform(0.0, 2.0), rng.uniform(2.0, 200.0)):
                rows = list(series_grid(sols, xs, t))
                assert len(rows) == len(xs)
                assert rows[0] == rows[1] == (0.0,) * len(sols)
                for x, row in zip(xs, rows):
                    assert row == tuple(sol.evaluate(x, t) for sol in sols)
                    for sol, value in zip(sols, row):
                        assert abs(value - plain_series(sol, x, t)) <= bound

    @pytest.mark.parametrize("x,t", [(-1e-12, 1.0), (1.0 + 1e-12, 1.0), (math.nan, 1.0),
                                     (0.5, -1e-300), (0.5, math.nan), (0.5, math.inf)])
    def test_validation_matches_pointwise(self, x, t):
        sol = solve_heat(paper_problem(n_terms=3), coefficients=(1.0, 0.5, 0.25))
        with pytest.raises(ValidationError):
            sol.evaluate(x, t)
        with pytest.raises(ValidationError):
            list(series_grid([sol], [0.5, x], t))

    def test_solutions_must_share_the_series(self):
        first = solve_heat(paper_problem(n_terms=3), coefficients=(1.0, 0.5, 0.25))
        other = solve_heat(paper_problem(alpha=0.9, n_terms=3), coefficients=(1.0, 0.5, 0.0))
        with pytest.raises(ValidationError):
            list(series_grid([first, other], [0.5], 1.0))


class TestResidual:
    def test_residual_is_rounding_noise(self):
        rng = random.Random(5)
        for alpha, beta in [(0.4, 0.5), (0.8, 1.0), (1.0, 2.0)]:
            sol = solve_heat(paper_problem(alpha=alpha, beta=beta))
            for _ in range(25):
                x = rng.uniform(1e-3, 1.0 - 1e-3)
                t = rng.uniform(0.1, 300.0)
                u = sol.evaluate(x, t)
                assert heat_residual(sol, x, t) <= 1e-10 * (1.0 + abs(u))

    def test_zero_coefficients_give_zero_residual(self):
        prob = paper_problem(n_terms=5)
        sol = solve_heat(prob, coefficients=(0.0,) * 5)
        assert heat_residual(sol, 0.4, 2.0) == 0.0

    def test_each_term_satisfies_the_equation_independently(self):
        # Perturbing one coefficient changes the initial data, not the
        # equation, so the residual stays at noise level.
        prob = paper_problem(n_terms=5)
        sol = solve_heat(prob)
        perturbed = replace(
            sol, coefficients=(sol.coefficients[0] * 1.001,) + sol.coefficients[1:]
        )
        u = perturbed.evaluate(0.3, 5.0)
        assert heat_residual(perturbed, 0.3, 5.0) <= 1e-10 * (1.0 + abs(u))

    def test_interior_point_required(self):
        sol = solve_heat(paper_problem(n_terms=3))
        with pytest.raises(ValidationError):
            heat_residual(sol, 0.0, 1.0)
        with pytest.raises(ValidationError):
            heat_residual(sol, 0.5, 0.0)


class TestLimits:
    def test_reduced_beta_matches_direct_solve_bitwise(self):
        prob = paper_problem(alpha=0.6, beta=2.0, n_terms=21)
        reduced, _ = limit_solutions(prob)
        direct = solve_heat(replace(prob, beta=1.0))
        for x in (0.1, 0.5, 0.9):
            for t in (0.0, 1.0, 150.0):
                assert reduced.evaluate(x, t) == direct.evaluate(x, t)

    def test_classical_limit_matches_direct_series(self):
        _, classical = limit_solutions(paper_problem(alpha=0.6, beta=2.0))
        for x in (0.2, 0.5, 0.8):
            expected = classical_heat_series(x, 150.0, diffusivity=0.003, n_terms=51)
            assert abs(classical.evaluate(x, 150.0) - expected) <= 1e-9

    def test_beta_ordering_at_figure_time(self):
        # Gamma(3) > Gamma(2) > Gamma(1.5) orders the decay rates, and all
        # coefficients of the profile are non-negative.
        sols = {beta: solve_heat(paper_problem(alpha=0.6, beta=beta)) for beta in (0.5, 1.0, 2.0)}
        for x in [i / 20.0 for i in range(21)]:
            u_half = sols[0.5].evaluate(x, 150.0)
            u_one = sols[1.0].evaluate(x, 150.0)
            u_two = sols[2.0].evaluate(x, 150.0)
            assert u_two <= u_one + 1e-14
            assert u_one <= u_half + 1e-14


class TestSeparationCases:
    """The zero and positive separation constants admit only the trivial
    spatial solution under the zero boundary conditions, which is why the
    solver carries just the sine branch."""

    def test_zero_constant_forces_trivial_solution(self):
        # P(x) = c1*x + c2 with P(0) = P(L) = 0: the boundary matrix
        # [[0, 1], [L, 1]] is nonsingular, so (c1, c2) = (0, 0).
        rng = random.Random(61)
        for _ in range(20):
            length = rng.uniform(0.2, 5.0)
            det = 0.0 * 1.0 - 1.0 * length
            assert det != 0.0
            for c1, c2 in [(1.0, 0.0), (0.3, -0.7), (rng.uniform(-2, 2), rng.uniform(0.1, 2))]:
                if (c1, c2) == (0.0, 0.0):
                    continue
                p0 = c2
                pL = c1 * length + c2
                assert abs(p0) > 0.0 or abs(pL) > 0.0

    def test_positive_constant_forces_trivial_solution(self):
        # P(x) = A*cosh(mu x) + B*sinh(mu x): P(0) = 0 forces A = 0 and then
        # P(L) = B*sinh(mu L) with sinh(mu L) > 0, so B = 0 as well.
        rng = random.Random(67)
        for _ in range(20):
            mu = rng.uniform(0.1, 10.0)
            length = rng.uniform(0.2, 5.0)
            assert math.sinh(mu * length) > 0.0
            for a_coef, b_coef in [(0.5, 0.0), (0.0, 1.0), (rng.uniform(0.1, 2), rng.uniform(0.1, 2))]:
                p0 = a_coef * math.cosh(0.0) + b_coef * math.sinh(0.0)
                pL = a_coef * math.cosh(mu * length) + b_coef * math.sinh(mu * length)
                assert abs(p0) > 0.0 or abs(pL) > 0.0


class TestTimeFactorConsistency:
    def test_each_mode_solves_the_linear_equation(self):
        prob = paper_problem(alpha=0.5, beta=2.0, n_terms=4)
        sol = solve_heat(prob)
        for n in (1, 2, 4):
            mode = LinearOdeProblem(
                mu_sq=(n * math.pi / prob.L) ** 2 * prob.k,
                sign=TermSign.PLUS,
                c=1.0,
                p=FracParams(prob.alpha, prob.beta),
            )
            linear = solve_linear(mode)
            rate = sol.decay_rates[n - 1]
            alpha = prob.alpha
            factor = OdeSolution(
                evaluator=lambda t, rate=rate: math.exp(-rate * t**alpha),
                dual_evaluator=lambda t, rate=rate: DualNumber(
                    math.exp(-rate * t**alpha),
                    -rate * alpha * t ** (alpha - 1.0) * math.exp(-rate * t**alpha),
                ),
            )
            for t in (0.5, 10.0, 150.0):
                assert abs(linear(t) - factor(t)) <= 1e-12
            assert verify_linear(factor, mode, (0.5, 10.0, 150.0)) <= 1e-9
