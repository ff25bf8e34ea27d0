"""Kernel tests: log-gamma accuracy and truncated Mittag-Leffler behavior."""

import math
import random
from fractions import Fraction

import pytest

from mfrac import special
from mfrac.errors import ConvergenceError, DomainError, ValidationError
from mfrac.special import (
    INFINITY,
    MLParams,
    TruncationIndex,
    gamma,
    ln_gamma,
    ml_kernel,
    ml_truncated,
)


def params(beta, i=None):
    return MLParams(beta, INFINITY if i is None else TruncationIndex(i))


def ml_reference(z, beta, i=None):
    """Independent arbitrary-term summation at 40 digits, rounded to float."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        zq, bq = mpf(z), mpf(beta)
        total = mpf(1)
        k = 1
        while True:
            term = zq**k / mp.gamma(bq * k + 1)
            if i is not None and k > i:
                break
            if i is None and abs(term) < mpf("1e-35") * (1 + abs(total)) and k > 8:
                break
            total += term
            k += 1
            if k > 5000:
                raise RuntimeError("reference sum did not converge")
        return float(total)


def lgamma_reference(x):
    """ln(Gamma(x)) at 40 digits, rounded to float."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        return float(mp.loggamma(mpf(x)))


class TestLnGamma:
    def test_unit_values(self):
        # Gamma(1) = Gamma(2) = 1, so the logs must vanish to rounding level.
        assert abs(ln_gamma(1.0)) <= 1e-14
        assert abs(ln_gamma(2.0)) <= 1e-14

    def test_log_factorial_ten(self):
        expected = math.log(math.factorial(10))  # exact-integer oracle
        assert abs(ln_gamma(11.0) - expected) <= 1e-13 * expected

    def test_accuracy_on_working_range(self):
        rng = random.Random(7)
        for _ in range(3000):
            x = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
            ref = lgamma_reference(x)
            # Relative near-zero crossings of ln(gamma) degrades to absolute scale.
            assert abs(ln_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_pure_relative_away_from_zeros(self):
        for x in (0.5, 0.7, 3.0, 4.5, 11.0, 26.0, 57.0, 123.0, 200.0):
            ref = lgamma_reference(x)
            assert abs(ln_gamma(x) - ref) <= 1e-13 * abs(ref)

    def test_small_arguments(self):
        for x in (0.05, 0.1, 0.25, 0.49):
            ref = lgamma_reference(x)
            assert abs(ln_gamma(x) - ref) <= 1e-12 * abs(ref)

    def test_smallest_subnormal_is_finite(self):
        # ln(Gamma(x)) ~ -ln(x) near 0, about 744.44 at the smallest double.
        value = ln_gamma(5e-324)
        assert math.isfinite(value)
        assert abs(value - lgamma_reference(5e-324)) <= 1e-13 * abs(value)

    def test_overflow_is_inf(self):
        # ln(Gamma(1e306)) ~ 7e308 exceeds the largest double.
        assert ln_gamma(1e306) == math.inf
        # Every term's weight is then inf, so the kernel sum stops at 1.
        assert ml_truncated(2.0, MLParams(1e306)) == 1.0

    def test_gamma_is_exact_at_small_integers(self):
        for n in range(1, 24):
            assert gamma(float(n)) == math.factorial(n - 1), n

    def test_gamma_convenience(self):
        assert gamma(3.0) == pytest.approx(2.0, rel=1e-13)
        assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        # A finite x <= 0 is outside the domain; NaN and inf are not finite reals.
        with pytest.raises(DomainError if math.isfinite(bad) else ValidationError):
            ln_gamma(bad)

    @pytest.mark.parametrize("big", [172.0, 201.0, 1e308])
    def test_gamma_overflow_is_a_domain_error(self, big):
        assert math.isfinite(gamma(171.0))
        with pytest.raises(DomainError):
            gamma(big)


class TestTimeChange:
    @pytest.mark.parametrize("t0,t", [(0.5, 2.0), (1e-300, 1.0), (1.0, 1e300)])
    @pytest.mark.parametrize("alpha", [0.5, 1e-10, 1e-17, 1e-320])
    def test_matches_the_clock_difference(self, alpha, t0, t):
        # s(t) - s(t0) = t0^alpha * expm1(alpha * ln(t/t0)) / alpha.  As alpha
        # -> 0 the plain difference (t^alpha - t0^alpha) / alpha loses every
        # digit, and the expm1 form must keep them all.
        from mpmath import mp, mpf

        got = special.time_change(t0, t, alpha)
        with mp.workdps(50):
            a = mpf(alpha)
            want = mpf(t0) ** a * mp.expm1(a * mp.log(mpf(t) / mpf(t0))) / a
            rel = float(abs(mpf(got) - want) / want)
        assert rel <= 1e-15, rel


class TestParams:
    def test_truncation_validation(self):
        with pytest.raises(ValidationError):
            TruncationIndex(-1)
        with pytest.raises(ValidationError):
            TruncationIndex(2.0)
        assert TruncationIndex(0).value == 0
        assert INFINITY.is_infinite
        assert str(INFINITY) == "inf"
        assert str(TruncationIndex(5)) == "5"

    def test_beta_validation(self):
        with pytest.raises(ValidationError):
            MLParams(0.0, INFINITY)
        with pytest.raises(ValidationError):
            MLParams(-2.0, INFINITY)
        with pytest.raises(ValidationError):
            MLParams(1.0, 5)  # bare int is not a TruncationIndex


class TestMlTruncated:
    def test_zero_argument_is_exactly_one(self):
        for beta in (0.5, 1.0, 2.0, 3.7):
            for i in (None, 0, 1, 5):
                assert ml_truncated(0.0, params(beta, i)) == 1.0

    def test_single_term_reduction_is_one_plus_z(self):
        rng = random.Random(11)
        for _ in range(300):
            z = rng.uniform(-5.0, 5.0)
            value = ml_truncated(z, params(1.0, 1))
            assert abs(value - (1.0 + z)) <= 1e-15 * (1.0 + abs(z))

    def test_full_series_at_one_is_e(self):
        value = ml_truncated(1.0, params(1.0))
        assert abs(value - math.e) <= 1e-12 * math.e

    def test_four_term_half_beta_sum(self):
        # Direct 4-term sum with libm gamma as the independent oracle.
        expected = 1.0 + 2.0 / math.gamma(1.5) + 4.0 / math.gamma(2.0) + 8.0 / math.gamma(2.5)
        value = ml_truncated(2.0, params(0.5, 3))
        assert abs(value - expected) <= 1e-13 * expected
        assert value == pytest.approx(13.274780558700425, rel=1e-12)

    def test_nondecreasing_in_truncation_for_nonneg_z(self):
        rng = random.Random(13)
        for _ in range(50):
            z = rng.uniform(0.0, 6.0)
            beta = rng.choice([0.5, 1.0, 2.0])
            values = [ml_truncated(z, params(beta, i)) for i in range(0, 12)]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo

    def test_matches_exact_taylor_polynomial_for_unit_beta(self):
        # Horner with exact rational arithmetic: the oracle rounds only once.
        def taylor_exact(z, i):
            zq = Fraction(z)
            acc = Fraction(1, math.factorial(i))
            for k in range(i - 1, -1, -1):
                acc = acc * zq + Fraction(1, math.factorial(k))
            return float(acc)

        for z in (-1.0, -0.5, -0.25, 0.1, 0.5, 1.0, 2.0, 3.0):
            for i in (0, 1, 2, 3, 5, 10, 20):
                mine = ml_truncated(z, params(1.0, i))
                ref = taylor_exact(z, i)
                assert abs(mine - ref) <= 1e-14 * max(1.0, abs(ref)), (z, i)

    def test_infinite_sum_matches_reference(self):
        grid = {
            0.5: [-1.2, -0.5, 0.3, 1.0, 2.0, 5.0, 10.0],
            1.0: [-10.0, -5.0, -1.0, 0.5, 3.0, 10.0],
            2.0: [-10.0, -5.0, -1.0, 2.0, 10.0],
        }
        for beta, zs in grid.items():
            for z in zs:
                mine = ml_truncated(z, params(beta))
                ref = ml_reference(z, beta)
                assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref)), (beta, z)

    def test_finite_truncations_match_reference(self):
        for beta, z, i in [(0.5, 1.7, 4), (2.0, -3.0, 7), (1.5, 0.9, 2), (0.75, -0.6, 9)]:
            mine = ml_truncated(z, params(beta, i))
            ref = ml_reference(z, beta, i)
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_alternating_cancellation_raises(self):
        # sum|term|/|sum| ~ 1e8 at beta=0.5, z=-4: no double summation survives that.
        for z in (-4.0, -10.0):
            with pytest.raises(ConvergenceError):
                ml_truncated(z, params(0.5))

    def test_term_cap_or_overflow_raises(self):
        with pytest.raises(ConvergenceError):
            ml_truncated(50.0, params(0.1))

    def test_non_finite_argument_raises(self):
        with pytest.raises(ValidationError):
            ml_truncated(float("inf"), params(1.0))

    @pytest.mark.parametrize("z, beta, i", [
        (1000.0, 0.1, 400),  # a term overflows
        (710.0, 1.0, 1000),  # every term is finite, the total is not
        (5.1e5, 2.0, None),  # the same on the infinite path
    ])
    def test_overflow_raises_on_every_truncation(self, z, beta, i):
        with pytest.raises(ConvergenceError, match="overflowed"):
            ml_truncated(z, params(beta, i))


def outcome(fn, z):
    """fn(z), or the type and message of the ConvergenceError it raises."""
    try:
        return fn(z)
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))


def plain_term_loop(z, beta, i):
    """The finite kernel sum, every term from k = 1 to i added in order."""
    total = 1.0
    for k in range(1, i + 1):
        mag = math.exp(k * math.log(abs(z)) - ln_gamma(beta * k + 1.0))
        total += -mag if z < 0.0 and k % 2 == 1 else mag
    return total


class TestMlKernel:
    @pytest.mark.parametrize("beta, i, zs", [
        # z = 0, both signs, and on the negative side the reflected beta = 1 path
        (1.0, None, [0.0, -30.0, -10.0, -1.0, -1e-9, 1e-9, 0.7, 3.0, 10.0]),
        (0.5, None, [0.0, -4.0, -1.2, -0.5, 0.3, 2.0, 5.0]),  # -4: cancellation
        (1.0, None, [400.0, 1.0, -2.0]),  # 400: the 500-term cap
        (0.1, None, [1000.0, 50.0, 0.25, -0.1]),  # overflowing terms
        (2.0, None, [5.1e5, 3.0, -3.0]),  # overflowing total
        (0.7, 2000, [0.0, 1e-3, -1e-3, 0.05, -0.05]),  # i above the weight table
        (1.0, 1000, [710.0, 709.0, -0.5]),  # finite-path total overflow
        (0.1, 400, [1000.0, 0.5, -0.5]),  # finite-path term overflow
        (1.0, 1, [-1.0, -0.999, 2.5]),
        (2.0, 7, [-3.0, 0.0, 1.5]),
    ])
    def test_one_kernel_matches_per_call_sums_bitwise(self, beta, i, zs):
        p = params(beta, i)
        rng = random.Random(f"{beta}:{i}")
        zs = zs * 3
        rng.shuffle(zs)
        kernel = ml_kernel(p)
        for z in zs:
            assert outcome(kernel, z) == outcome(lambda v: ml_truncated(v, p), z), z

    def test_finite_sums_equal_the_plain_term_loop(self):
        # The weight table must not change a single operation: compare against
        # the loop sum of sign(z)^k * exp(k*ln|z| - ln_gamma(beta*k + 1)).
        rng = random.Random(29)
        for beta, i in ((0.7, 2000), (1.0, 501), (0.5, 12), (2.0, 3)):
            kernel = ml_kernel(params(beta, i))
            for _ in range(20):
                z = rng.uniform(-0.2, 0.2)
                assert kernel(z) == plain_term_loop(z, beta, i), (beta, i, z)

    def test_finite_sums_past_underflow_equal_the_plain_term_loop(self):
        # The kernel stops at the first term that underflows to 0.0; the plain
        # loop adds every term up to i.  The sums must agree bit for bit.
        rng = random.Random(41)
        for _ in range(12):
            beta = rng.uniform(0.5, 3.0)
            z = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 1.3)
            i = rng.randint(1500, 4000)
            assert math.exp(i * math.log(abs(z)) - ln_gamma(beta * i + 1.0)) == 0.0
            assert ml_kernel(params(beta, i))(z) == plain_term_loop(z, beta, i), (beta, z, i)

    def test_finite_sums_stop_below_a_quarter_ulp(self, monkeypatch):
        # At the limit estimator's step size the terms fall below a quarter ulp
        # of the total after k = 6, so the kernel computes 7 of 20 weights.
        calls = []
        monkeypatch.setattr(special, "ln_gamma", lambda x: calls.append(x) or ln_gamma(x))
        kernel = ml_kernel(params(1.0, 20))
        for z in (1e-2, -1e-2):
            assert kernel(z) == plain_term_loop(z, 1.0, 20), z
        assert len(calls) == 7

    def test_kernel_validates_its_argument(self):
        kernel = ml_kernel(params(1.0))
        with pytest.raises(ValidationError):
            kernel(float("nan"))
        with pytest.raises(ValidationError):
            kernel(True)
