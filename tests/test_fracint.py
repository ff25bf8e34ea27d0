"""Integral-operator tests: quadrature accuracy, scaling laws, inverse identities."""

import math

import pytest

from _support import assert_close
from mfrac.errors import ToleranceNotMetError, ValidationError
from mfrac.expr import as_dual_fn, as_fn, parse
from mfrac.fracderiv import FracParams
from mfrac.fracint import (
    QuadratureResult,
    check_inverse_di,
    check_inverse_id,
    integrate_adaptive,
    mfrac_integral,
)


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
        # Depth 30 keeps panels wide enough that no node collides with c
        # before the budget runs out.
        with pytest.raises(ToleranceNotMetError) as err:
            integrate_adaptive(spike, 1.0, 2.0, abs_tol=1e-12, rel_tol=0.0, max_depth=30)
        best = err.value.best
        exact = 2.0 * (math.sqrt(c - 1.0) + math.sqrt(2.0 - c))
        assert abs(best.value - exact) <= 1e-2
        assert best.subdivisions > 10

    def test_validation(self):
        with pytest.raises(ValidationError):
            integrate_adaptive(math.exp, 0.0, float("inf"))
        with pytest.raises(ValidationError):
            integrate_adaptive(math.exp, 0.0, 1.0, abs_tol=0.0, rel_tol=0.0)
        with pytest.raises(ValidationError):
            integrate_adaptive(lambda x: float("nan"), 0.0, 1.0)


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
