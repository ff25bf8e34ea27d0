"""Heat-equation solver tests: coefficients, series evaluation, PDE residual, limits."""

import math
import random
import sys

import pytest

from _support import assert_close, classical_heat_series
from mfrac import heat
from mfrac.errors import DomainError, ToleranceNotMetError, ValidationError
from mfrac.expr import as_fn, parse
from mfrac.fracderiv import FracParams
from mfrac.heat import (
    HeatProblem,
    HeatSolution,
    fourier_coeffs,
    heat_residual,
    series_grid,
    solve_heat,
)
from mfrac.ode import LinearOdeProblem, OdeSolution, TermSign, solve_linear, verify_linear
from mfrac.quad import integrate_adaptive
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


def adaptive_coeffs(prob):
    """An independent reference: per-mode adaptive Gauss-Kronrod quadrature."""
    profile = as_fn(prob.initial_profile)
    front = 2.0 / prob.L
    coeffs = []
    for n in range(1, prob.n_terms + 1):
        integrand = lambda x, w=n * (math.pi / prob.L): profile(x) * math.sin(w * x)
        result = integrate_adaptive(integrand, 0.0, prob.L, abs_tol=1e-12 / front, rel_tol=0.0)
        coeffs.append(front * result.value)
    return coeffs


def counting_samples(monkeypatch):
    """A list that grows by one x for each profile sample fourier_coeffs takes."""
    xs = []
    as_fn = heat.as_fn

    def counting(tree):
        f = as_fn(tree)
        return lambda x: xs.append(x) or f(x)

    monkeypatch.setattr(heat, "as_fn", counting)
    return xs


def counting_sines(monkeypatch):
    """A list that grows by one argument for each sine the package computes."""
    args = []
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda v: args.append(v) or sin(v))
    return args


def left_to_right(values):
    """The float sum taken left to right, as the package sums; the builtin
    sum is compensated from Python 3.12 on and may differ in the last bits."""
    total = 0.0
    for v in values:
        total += v
    return total


def smallest_kept(weights):
    """The smallest K >= 1 whose weights past K sum to at most 2^-55 of all."""
    total = left_to_right(weights)
    return next(k for k in range(1, len(weights) + 1)
                if left_to_right(weights[k:]) <= 2.0**-55 * total)


def power_sine(s, w):
    """Integral of x^(s-1) sin(w x) over [0, 1]: the imaginary part of
    (-iw)^(-s) times the lower incomplete gamma function at (s, -iw)."""
    from mpmath import mp

    z = -1j * w
    return (z**-s * mp.gammainc(s, 0, z)).imag


def cubic_sine(coeffs, w, a, b):
    """Integral of p(x) sin(w x) over [a, b] for the cubic p with coefficients
    ``coeffs`` (constant first), integrated by parts four times."""
    from mpmath import mp

    derivs = [coeffs]
    for _ in range(3):
        c = derivs[-1]
        derivs.append([i * c[i] for i in range(1, len(c))])

    def antiderivative(x):
        p0, p1, p2, p3 = (sum(ci * x**i for i, ci in enumerate(c)) for c in derivs)
        sin, cos = mp.sin(w * x), mp.cos(w * x)
        return -p0 * cos / w + p1 * sin / w**2 + p2 * cos / w**3 - p3 * sin / w**4

    return antiderivative(b) - antiderivative(a)


def power_profile_coeffs(p, n_terms):
    """c_n of x^p * (1 - x) on [0, 1], to 30 digits."""
    from mpmath import mp

    with mp.workdps(30):
        return [float(2 * (power_sine(p + 1, n * mp.pi) - power_sine(p + 2, n * mp.pi)))
                for n in range(1, n_terms + 1)]


def kink_profile_coeffs(n_terms):
    """c_n of abs(x - 0.3) * x * (1 - x) on [0, 1], to 30 digits."""
    from mpmath import mp

    with mp.workdps(30):
        k = mp.mpf("0.3")
        right = [0, -k, 1 + k, -1]  # (x - k) * x * (1 - x)
        left = [-c for c in right]
        return [float(2 * (cubic_sine(left, n * mp.pi, 0, k) + cubic_sine(right, n * mp.pi, k, 1)))
                for n in range(1, n_terms + 1)]


class TestGaussProjection:
    def test_rule_weights_sum_to_two(self):
        assert abs(2.0 * sum(heat._WGL) - 2.0) <= 1e-15
        assert len(heat._XGL) == len(heat._WGL) == 32
        assert all(0.0 < x < 1.0 for x in heat._XGL)

    def test_rule_integrates_polynomials_of_degree_127_exactly(self):
        for k in range(128):
            pairs = heat._gauss_samples(lambda x, k=k: x**k, 0.0, 1.0)
            assert abs(sum(s for s, _ in pairs) - 1.0 / (k + 1)) <= 1e-14, k

    @pytest.mark.parametrize("n_terms", [51, 200])
    def test_logistic_profile_against_exact_coefficients(self, n_terms):
        coeffs = fourier_coeffs(paper_problem(n_terms=n_terms))
        for n, c in enumerate(coeffs, start=1):
            expected = 400.0 / (n * math.pi) ** 3 if n % 2 == 1 else 0.0
            assert abs(c - expected) <= 1e-12, n

    @pytest.mark.parametrize("n_terms", [3, 51])
    def test_large_profile_against_exact_coefficients(self, n_terms):
        # c_1 is about 2.6e11, so an absolute 1e-12 would lie below one ulp of it.
        length = 1e6
        prob = HeatProblem(L=length, k=1.0, alpha=0.5, beta=1.0,
                           initial_profile=parse("x*(1e6-x)"), n_terms=n_terms)
        c_1 = 8.0 * length**2 / math.pi**3
        for n, c in enumerate(fourier_coeffs(prob), start=1):
            expected = 4.0 * length**2 * (1 - (-1) ** n) / (n * math.pi) ** 3
            assert abs(c - expected) <= 1e-12 * c_1, n

    def test_large_profile_refines_with_its_own_scale(self):
        # sqrt(x)*(L-x) needs refinement at x = 0, and stretching x by L = 1e6
        # multiplies each coefficient by L^1.5.  The unit profile's 1e-12 is
        # 2.6e-12 of its c_1.
        unit = fourier_coeffs(HeatProblem(L=1.0, k=1.0, alpha=0.5, beta=1.0,
                                          initial_profile=parse("sqrt(x)*(1-x)"), n_terms=11))
        large = fourier_coeffs(HeatProblem(L=1e6, k=1.0, alpha=0.5, beta=1.0,
                                           initial_profile=parse("sqrt(x)*(1e6-x)"), n_terms=11))
        for a, b in zip(unit, large):
            assert abs(b - 1e9 * a) <= 1e-11 * 1e9 * unit[0]

    def test_figure_profile_settles_on_the_first_panel(self, monkeypatch):
        # 64 samples on [0, L] and 64 on each half: the panel is never halved.
        xs = counting_samples(monkeypatch)
        fourier_coeffs(paper_problem(n_terms=51))
        assert len(xs) == 192

    def test_analytic_profiles_are_the_two_panel_sums_bitwise(self):
        # The figure profile and sine profiles like the benchmark's heat grid
        # settle on the first panel, whose value is one sum over its halves.
        rng = random.Random(97)
        problems = [paper_problem(n_terms=51)]
        for _ in range(100):
            length = round(rng.uniform(0.5, 3.0), 3)
            amp = round(rng.choice((-1, 1)) * rng.uniform(0.5, 5.0), 3)
            text = f"{amp!r}*sin({rng.randint(1, 3) * math.pi / length!r}*x)"
            problems.append(HeatProblem(L=length, k=0.003, alpha=0.5, beta=1.0,
                                        initial_profile=parse(text),
                                        n_terms=rng.randint(11, 31)))
        for prob in problems:
            f = as_fn(prob.initial_profile)
            half = 0.5 * prob.L
            pairs = heat._gauss_samples(f, 0.0, half) + heat._gauss_samples(f, half, prob.L)
            want = [2.0 / prob.L
                    * left_to_right([s * math.sin(n * (math.pi / prob.L) * x) for s, x in pairs])
                    for n in range(1, prob.n_terms + 1)]
            assert fourier_coeffs(prob) == want, prob.initial_profile

    def test_smooth_profiles_match_the_adaptive_projection(self):
        rng = random.Random(61)
        problems = [HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                                initial_profile=parse("exp(x)*sin(3.141592653589793*x)"),
                                n_terms=51)]
        for _ in range(6):
            length = rng.uniform(0.3, 4.0)
            amp = rng.uniform(-3.0, 3.0)
            mode = rng.randint(1, 8)
            text = f"{amp!r}*sin({mode}*3.141592653589793*x/{length!r})"
            problems.append(HeatProblem(L=length, k=0.003, alpha=0.5, beta=1.0,
                                        initial_profile=parse(text),
                                        n_terms=rng.randint(11, 31)))
        for prob in problems:
            got = fourier_coeffs(prob)
            want = adaptive_coeffs(prob)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12, prob.initial_profile

    @pytest.mark.parametrize("text, reference", [
        ("sqrt(x)*(1-x)", lambda n: power_profile_coeffs(0.5, n)),
        ("x^0.1*(1-x)", lambda n: power_profile_coeffs(0.1, n)),
        # A per-mode Gauss-Kronrod projection missed these by up to 3.9e-11.
        ("abs(x-0.3)*x*(1-x)", kink_profile_coeffs),
    ], ids=["sqrt", "power_0.1", "kink"])
    def test_non_analytic_profiles_against_closed_forms(self, text, reference):
        prob = HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=parse(text), n_terms=51)
        for n, (got, want) in enumerate(zip(fourier_coeffs(prob), reference(51)), start=1):
            assert abs(got - want) <= 1e-12, n

    def test_unresolved_profile_raises_with_the_best_coefficients(self):
        prob = HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=parse("x*(1-x)*sin(1000000*x)"), n_terms=3)
        with pytest.raises(ToleranceNotMetError, match=r"n=\d .* after 512 panels") as info:
            fourier_coeffs(prob)
        assert len(info.value.best) == 3
        assert all(math.isfinite(c) for c in info.value.best)

    def test_unresolvable_spike_stops_at_the_narrowest_panel(self):
        # The spike is 1e-150 wide: a panel of a few ulps would sample it on
        # so few doubles that its two rules agree on a wrong value.
        prob = HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=parse("x*(1-x)/((x-0.31)^2+1e-300)"), n_terms=3)
        with pytest.raises(ToleranceNotMetError) as info:
            fourier_coeffs(prob)
        assert len(info.value.best) == 3

    def test_non_finite_sample_names_the_profile(self):
        prob = HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=parse("1e308*x*(1-x)*100"), n_terms=3)
        with pytest.raises(ValidationError, match=r"initial profile 1e\+308\*x.* is not finite"):
            fourier_coeffs(prob)


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


def uncut_series(sol, x, t, modes=None):
    """The series over the first ``modes`` modes (all N by default), summed
    left to right in series_grid's order of operations."""
    freq = math.pi / sol.problem.L
    t_pow = t**sol.problem.alpha
    total = 0.0
    for n, (c, rate) in enumerate(zip(sol.coefficients[:modes], sol.decay_rates), start=1):
        total += (c * math.sin(n * freq * x)) * math.exp(-rate * t_pow)
    return total


def tail_weights(sol, t):
    """|c_n * e_n| for each mode, the weights the tail cut compares."""
    t_pow = t**sol.problem.alpha
    return [abs(c * math.exp(-rate * t_pow)) for c, rate in zip(sol.coefficients, sol.decay_rates)]


def random_columns(rng, n_terms, coeffs):
    """Four columns of one table on a random L: random alphas plus 1, sharing ``coeffs``."""
    length = rng.uniform(0.5, 3.0)
    profile = parse(f"x*({length!r}-x)")
    alphas = [rng.uniform(0.1, 1.0) for _ in range(3)] + [1.0]
    return [
        solve_heat(HeatProblem(L=length, k=1e-3, alpha=a, beta=rng.choice([0.5, 1.0, 2.0]),
                               initial_profile=profile, n_terms=n_terms), coefficients=coeffs)
        for a in alphas
    ]


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
                rows = list(zip(*series_grid(sols, xs, t)))
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

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -0.5, math.nan, math.inf, True, "0.5"])
    def test_grid_is_checked_before_any_sine(self, monkeypatch, bad):
        sol = solve_heat(paper_problem(n_terms=5), coefficients=(1.0, 0.5, 0.25, 0.1, 0.05))
        xs = [i / 2000 for i in range(2000)] + [bad]
        sines = counting_sines(monkeypatch)
        with pytest.raises(ValidationError):
            series_grid([sol], xs, 1.0)
        assert sines == []

    def test_benchmark_sized_table_is_the_plain_sum_of_kept_modes_bitwise(self):
        # 2001 points, 6 alphas and the heat_grid range of t; every column
        # equals a left-to-right loop over its kept modes, bit for bit.
        n_terms = 31
        length = 1.7
        prob = HeatProblem(L=length, k=0.004, alpha=0.5, beta=1.0,
                           initial_profile=parse(f"x*({length!r}-x)"), n_terms=n_terms)
        coeffs = fourier_coeffs(prob)
        alphas = (0.05, 0.2, 0.41, 0.6, 0.87, 1.0)
        sols = [solve_heat(HeatProblem(length, 0.004, a, 1.0, prob.initial_profile, n_terms),
                           coefficients=coeffs) for a in alphas]
        xs = [min(length * i / 2000, length) for i in range(2001)]
        cut = 0
        for t in (1.0, 7.5, 100.0):
            columns = series_grid(sols, xs, t)
            assert len(columns) == len(sols)
            for sol, column in zip(sols, columns):
                kept = smallest_kept(tail_weights(sol, t))
                cut += n_terms - kept
                assert column[0] == column[-1] == 0.0
                assert column[1:-1] == [uncut_series(sol, x, t, kept) for x in xs[1:-1]]
        assert cut > 0

    def test_solutions_must_share_the_series(self):
        first = solve_heat(paper_problem(n_terms=3), coefficients=(1.0, 0.5, 0.25))
        other = solve_heat(paper_problem(alpha=0.9, n_terms=3), coefficients=(1.0, 0.5, 0.0))
        with pytest.raises(ValidationError):
            list(series_grid([first, other], [0.5], 1.0))

    def test_nothing_is_cut_at_time_zero(self, monkeypatch):
        # Every time factor is 1, so no mode of a coefficient list without a
        # negligible tail is below the cut: the values are the uncut sums.
        rng = random.Random(41)
        sines = counting_sines(monkeypatch)
        for _ in range(10):
            n_terms = rng.randint(1, 80)
            coeffs = [rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 5.0) for _ in range(n_terms)]
            sols = random_columns(rng, n_terms, coeffs)
            xs = [rng.uniform(0.0, sols[0].problem.L) for _ in range(10)]
            sines.clear()
            rows = list(zip(*series_grid(sols, xs, 0.0)))
            assert len(sines) == n_terms * len(xs)
            for x, row in zip(xs, rows):
                assert row == tuple(uncut_series(sol, x, 0.0) for sol in sols)

    def test_damped_columns_are_within_the_tail_bound(self, monkeypatch):
        # The dropped weights are at most 2^-55 of their total; what remains
        # is the rounding of the two sums, at most N*eps of that total.
        rng = random.Random(29)
        sines = counting_sines(monkeypatch)
        cut = 0
        for _ in range(20):
            n_terms = rng.randint(40, 120)
            coeffs = [rng.uniform(-1.0, 1.0) for _ in range(n_terms)]
            sols = random_columns(rng, n_terms, coeffs)
            xs = [rng.uniform(0.0, sols[0].problem.L) for _ in range(20)]
            t = rng.uniform(0.05, 5.0)
            sines.clear()
            rows = list(zip(*series_grid(sols, xs, t)))
            kept = max(smallest_kept(tail_weights(sol, t)) for sol in sols)
            assert len(sines) == kept * len(xs)
            cut += n_terms - kept
            for sol, column in zip(sols, zip(*rows)):
                total = sum(tail_weights(sol, t))
                bound = (2.0**-55 + n_terms * sys.float_info.epsilon) * total
                for x, value in zip(xs, column):
                    assert abs(value - plain_series(sol, x, t)) <= bound
        assert cut > 0

    def test_overflowing_total_keeps_every_mode(self):
        # sum |c_n * e_n| overflows, so no share of it bounds the dropped modes.
        coeffs = (9e307, -9e307, 9e307, -4e307, 1e307)
        sols = [solve_heat(paper_problem(alpha=a, n_terms=5), coefficients=coeffs)
                for a in (0.5, 1.0)]
        xs = [0.05, 0.1, 0.3, 0.5, 0.6]
        for t in (0.0, 1e-3):
            for x, row in zip(xs, zip(*series_grid(sols, xs, t))):
                assert row == tuple(uncut_series(sol, x, t) for sol in sols)
                assert all(math.isfinite(v) for v in row)

    @pytest.mark.parametrize("t", [0.0, 1.0, 1e6])
    def test_zero_coefficients_give_float_zero(self, t):
        sols = [solve_heat(paper_problem(alpha=a, n_terms=4), coefficients=(0.0, -0.0, 0.0, 0.0))
                for a in (0.3, 1.0)]
        for row in zip(*series_grid(sols, [0.0, 0.25, 0.5, 0.9, 1.0], t)):
            assert row == (0.0, 0.0)
            assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in row)


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
        perturbed = HeatSolution(
            sol.problem, (sol.coefficients[0] * 1.001,) + sol.coefficients[1:], sol.decay_rates
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
    def test_classical_limit_matches_direct_series(self):
        classical = solve_heat(HeatProblem(1.0, 0.003, 1.0, 1.0, PROFILE, 51))
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
