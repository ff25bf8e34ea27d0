"""Integral-operator tests: the quadrature engine in `mfrac.quad`, scaling
laws of the weighted integral, inverse identities."""

import math

import pytest

from _support import assert_close, panels_used
from mfrac import quad
from mfrac.errors import ToleranceNotMetError, ValidationError
from mfrac.expr import as_dual_fn, as_fn, parse
from mfrac.fracderiv import FracParams
from mfrac.fracint import check_inverse_di, check_inverse_id, mfrac_integral
from mfrac.quad import QuadratureResult, integrate_adaptive, refine


def fp(alpha, beta):
    return FracParams(alpha, beta)


class TestAdaptiveQuadrature:
    def test_polynomial_is_exact(self):
        r = integrate_adaptive(lambda x: x**3, 0.0, 2.0)
        assert_close(r.value, 4.0, 1e-13)
        assert r.subdivisions >= 1

    def test_oscillatory(self):
        r = integrate_adaptive(lambda x: math.sin(40.0 * x), 0.0, 1.0, abs_tol=1e-12, rel_tol=0.0)
        expected = (1.0 - math.cos(40.0)) / 40.0
        assert_close(r.value, expected, 1e-11)
        assert r.abs_error_estimate <= 1e-12

    def test_reversed_interval_negates(self):
        fwd = integrate_adaptive(math.exp, 0.0, 1.0)
        rev = integrate_adaptive(math.exp, 1.0, 0.0)
        assert rev.value == -fwd.value

    def test_empty_interval(self):
        r = integrate_adaptive(math.exp, 1.0, 1.0)
        assert r == QuadratureResult(0.0, 0.0, 1)

    def test_interior_singularity_exhausts_budget(self):
        # Singular point off every binary-rational midpoint so only the
        # subdivision budget, not an exact node hit, ends the refinement.
        c = 1.0 + math.sqrt(2.0) / 3.0
        spike = lambda x: abs(x - c) ** -0.5
        # The width floor, 2^-40 of the interval, stops the halving toward c
        # while the panels are still wide enough that no node collides with c.
        with pytest.raises(ToleranceNotMetError) as err:
            integrate_adaptive(spike, 1.0, 2.0, abs_tol=1e-12, rel_tol=0.0)
        assert 10 < panels_used(err.value) < quad._MAX_PANELS  # the floor, not the budget

    def test_validation(self):
        with pytest.raises(ValidationError):
            integrate_adaptive(math.exp, 0.0, float("inf"))
        with pytest.raises(ValidationError):
            integrate_adaptive(math.exp, 0.0, 1.0, abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValidationError):
            integrate_adaptive(lambda x: float("nan"), 0.0, 1.0)


def kronrod_rule(*fs):
    """A refine rule with one G7/K15 component per function in ``fs``."""

    def rule(lo, hi, _):
        panels = [quad._kronrod_panel(f, lo, hi) for f in fs]
        return [v for (v,), _, _, _ in panels], [e for _, (e,), _, _ in panels], None, None

    return rule


class TestRefine:
    def test_smooth_and_kinked_components_share_panels(self):
        kink = lambda x: abs(x - 0.3)
        values, errors, panels = refine(kronrod_rule(math.exp, kink), 0.0, 1.0, None,
                                        1e-12, 0.0, "f")
        assert abs(values[0] - (math.e - 1.0)) <= 1e-12
        assert abs(values[1] - 0.29) <= 1e-12
        assert all(e <= 1e-12 for e in errors)
        # The kink needs panels of its own, which the smooth component shares.
        alone = refine(kronrod_rule(math.exp), 0.0, 1.0, None, 1e-12, 0.0, "f")
        assert alone[2] == 1 < panels

    def test_rel_tol_applies_to_each_component(self):
        big = lambda x: 1e6 * math.exp(x)
        kink = lambda x: abs(x - 0.3)
        values, errors, panels = refine(kronrod_rule(big, kink), 0.0, 1.0, None,
                                        1e-300, 1e-10, "f")
        # A bound taken from the largest total would accept the small
        # component at 1e-4 and stop on one panel.
        assert panels > 1
        for value, error in zip(values, errors):
            assert error <= 1e-10 * abs(value)
        assert abs(values[1] - 0.29) <= 1e-10

    def test_panel_budget_raises(self):
        # Every panel's estimate is its width: the sum never falls, and
        # halving goes breadth first, so the budget ends it.
        rule = lambda lo, hi, _: ((hi - lo,), (hi - lo,), None, None)
        with pytest.raises(ToleranceNotMetError, match="after 512 panels") as info:
            refine(rule, 0.0, 1.0, None, 0.5, 0.0, "the width")
        assert "component" not in str(info.value)
        assert panels_used(info.value) == quad._MAX_PANELS

    def test_width_floor_raises(self):
        # Only the panel holding c has an estimate, so the halving goes depth
        # first and reaches the narrowest panel long before the budget.
        c = math.sqrt(2.0) / 3.0
        rule = lambda lo, hi, _: ((hi - lo, 0.0), (0.0, float(lo <= c < hi)), None, None)
        with pytest.raises(ToleranceNotMetError, match="in component n=2 of 2") as info:
            refine(rule, 0.0, 1.0, None, 0.5, 0.0, "the step")
        assert 40 <= panels_used(info.value) < quad._MAX_PANELS

    def test_non_finite_value_names_what_is_integrated(self):
        rule = lambda lo, hi, _: ((math.inf if lo == 0.5 else 1.0,), (1.0,), None, None)
        with pytest.raises(ValidationError, match=r"the pole is not finite on \[0.5, 1.0\]"):
            refine(rule, 0.0, 1.0, None, 1e-3, 0.0, "the pole")

    @pytest.mark.parametrize("f", [math.exp, lambda x: math.sin(40.0 * x), lambda x: abs(x - 0.3)],
                             ids=["exp", "sin", "kink"])
    def test_kronrod_rule_is_integrate_adaptive(self, f):
        values, errors, panels = refine(kronrod_rule(f), 0.0, 1.0, None, 1e-12, 1e-10, "f")
        got = integrate_adaptive(f, 0.0, 1.0, abs_tol=1e-12, rel_tol=1e-10)
        assert got == QuadratureResult(values[0], errors[0], panels)


class TestWeightedIntegral:
    def test_weight_cancellation(self):
        # f(x) = x^(1-alpha) makes the integrand identically 1.
        r = mfrac_integral(as_fn(parse("x^0.5")), 1.0, 3.0, fp(0.5, 1.0))
        assert_close(r.value, 2.0, 1e-10)

    def test_empty_interval(self):
        r = mfrac_integral(as_fn(parse("x")), 2.0, 2.0, fp(0.5, 1.0))
        assert r == QuadratureResult(0.0, 0.0, 1)

    def test_singular_origin_constant(self):
        # integral of x^(-1/2) over [0,1] is 2; Gamma(3) = 2 doubles it.
        r = mfrac_integral(lambda x: 1.0, 0.0, 1.0, fp(0.5, 2.0))
        assert_close(r.value, 4.0, 1e-9)
        assert r.abs_error_estimate <= max(1e-10, 1e-10 * abs(r.value))

    def test_singular_origin_smooth_profile(self):
        # integral of x*(1-x)*x^(alpha-1) over [0,1] = 1/(alpha+1) - 1/(alpha+2).
        alpha = 0.3
        expected = math.gamma(2.5) * (1.0 / (alpha + 1.0) - 1.0 / (alpha + 2.0))
        r = mfrac_integral(as_fn(parse("x*(1-x)")), 0.0, 1.0, fp(alpha, 1.5))
        assert_close(r.value, expected, 1e-10)

    def test_singular_origin_alpha_near_one(self):
        # Substituting x = u^(1/alpha) leaves a u^1.153 term here, and the
        # single-panel Gauss-Kronrod gap on it is 75x below the true error
        # (7.4e-8).  Reference: mpmath tanh-sinh quadrature at 30 digits.
        f = as_fn(parse("-1.15*exp(0.73*x)*sin(0.1*x) - 2.19*sqrt(1+x^2)"))
        r = mfrac_integral(f, 0.0, 2.7979, fp(0.8674, 1.0))
        assert_close(r.value, -12.426740772873952, 1e-10 * 12.43)

    def test_estimate_covers_the_error_near_alpha_one(self):
        # The true error is 1.2e-10; a sharpened gap, min(gap, (200 gap)^1.5),
        # reports 6.8e-12 here.
        from mpmath import mp

        c = (1.0105132213979349, 0.5021665419400572, 1.153695759648955, 0.9062983039005758)
        text = f"-({c[0]!r}*cos(x))+{c[1]!r}*x^3+-{c[2]!r}+{c[3]!r}*sin(x)"
        t, alpha = 2.8978502471572627, 0.8548691268444766
        r = mfrac_integral(as_fn(parse(text)), 0.0, t, fp(alpha, 1.0))
        with mp.workdps(30):
            k = [mp.mpf(v) for v in c]
            f = lambda x: -k[0] * mp.cos(x) + k[1] * x**3 - k[2] + k[3] * mp.sin(x)
            exact = mp.quad(lambda x: f(x) * x ** (mp.mpf(alpha) - 1), [0, mp.mpf(t)])
        assert abs(r.value - exact) > 1e-10  # the error the estimate must cover
        assert r.abs_error_estimate >= abs(r.value - exact)

    def test_additivity(self):
        f = as_fn(parse("sin(x)"))
        p = fp(0.4, 1.3)
        whole = mfrac_integral(f, 0.5, 2.5, p)
        left = mfrac_integral(f, 0.5, 1.1, p)
        right = mfrac_integral(f, 1.1, 2.5, p)
        tol = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(left.value + right.value - whole.value) <= max(tol, 1e-12)

    def test_linearity(self):
        p = fp(0.6, 0.8)
        f = as_fn(parse("x^2"))
        g = as_fn(parse("cos(x)"))
        combo = mfrac_integral(lambda x: 2.0 * f(x) - 3.0 * g(x), 0.2, 1.7, p)
        parts = 2.0 * mfrac_integral(f, 0.2, 1.7, p).value - 3.0 * mfrac_integral(
            g, 0.2, 1.7, p
        ).value
        assert abs(combo.value - parts) <= 1e-10

    def test_beta_is_a_pure_prefactor(self):
        f = as_fn(parse("exp(x)"))
        r1 = mfrac_integral(f, 0.5, 2.0, fp(0.3, 1.0))
        r2 = mfrac_integral(f, 0.5, 2.0, fp(0.3, 2.5))
        ratio = math.gamma(3.5) / math.gamma(2.0)
        assert abs(r2.value - r1.value * ratio) <= 1e-12 * abs(r2.value)

    def test_validation(self):
        f = as_fn(parse("x"))
        with pytest.raises(ValidationError):
            mfrac_integral(f, -0.5, 1.0, fp(0.5, 1.0))
        with pytest.raises(ValidationError):
            mfrac_integral(f, 2.0, 1.0, fp(0.5, 1.0))
        with pytest.raises(ValidationError):
            mfrac_integral(f, 0.0, 1.0, fp(1.0, 1.0))


class TestInverseIdentities:
    @pytest.mark.parametrize(
        "source,a,t,alpha,beta",
        [
            ("sin(x)", 0.5, 2.0, 0.3, 1.0),
            ("x^2", 1.0, 1.5, 0.9, 0.5),
            ("exp(x/2)", 0.25, 1.75, 0.6, 2.0),
        ],
    )
    def test_derivative_after_integral(self, source, a, t, alpha, beta):
        residual = check_inverse_di(as_fn(parse(source)), a, t, fp(alpha, beta))
        assert residual <= 1e-6

    def test_derivative_after_integral_zero_function(self):
        assert check_inverse_di(lambda x: 0.0, 0.5, 2.0, fp(0.5, 1.0)) == 0.0

    @pytest.mark.parametrize(
        "source,a,t,alpha,beta",
        [
            ("x-1", 1.0, 2.0, 0.5, 1.0),
            ("(x-0.5)^2", 0.5, 1.5, 0.2, 2.0),
            ("sin(x-1)", 1.0, 2.5, 0.7, 0.5),
        ],
    )
    def test_integral_after_derivative(self, source, a, t, alpha, beta):
        tree = parse(source)
        residual = check_inverse_id(as_fn(tree), as_dual_fn(tree), a, t, fp(alpha, beta))
        assert residual <= 1e-9

    def test_integral_after_derivative_zero_function(self):
        zero = parse("0")
        residual = check_inverse_id(as_fn(zero), as_dual_fn(zero), 1.0, 2.0, fp(0.5, 1.0))
        assert residual == 0.0

    def test_compatibility_condition_enforced(self):
        tree = parse("x")
        with pytest.raises(ValidationError):
            check_inverse_id(as_fn(tree), as_dual_fn(tree), 1.0, 2.0, fp(0.5, 1.0))

    def test_di_interval_validation(self):
        with pytest.raises(ValidationError):
            check_inverse_di(lambda x: x, 2.0, 2.0, fp(0.5, 1.0))
