"""Parser, printer, evaluation, and dual-number differentiation tests."""

import math
import random

import pytest

from mfrac.errors import DomainError, ValidationError
from mfrac.expr import (
    MAX_DEPTH,
    Add,
    Call,
    Constant,
    Div,
    DualNumber,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    UnknownIdentifierError,
    Variable,
    as_dual_fn,
    as_fn,
    evaluate,
    evaluate_dual,
    parse,
    unparse,
)

X = Variable()


class TestParse:
    def test_logistic_profile_structure(self):
        expected = Mul(Mul(Constant(50.0), X), Sub(Constant(1.0), X))
        assert parse("50*x*(1-x)") == expected

    def test_bare_variable(self):
        assert parse("x") == X
        assert parse("t") == X
        assert parse(" t ") == X

    def test_power_of_call(self):
        tree = parse("sin(2*t)^2")
        assert tree == Pow(Call("sin", Mul(Constant(2.0), X)), Constant(2.0))
        assert evaluate(tree, 0.7) == pytest.approx(math.sin(1.4) ** 2, rel=1e-15)

    def test_power_is_right_associative(self):
        assert parse("2^3^2") == Pow(Constant(2.0), Pow(Constant(3.0), Constant(2.0)))
        assert evaluate(parse("2^3^2"), 0.0) == 512.0

    def test_unary_minus_binds_into_power_base(self):
        # factor := unary ('^' factor)?, so the base of "-x^2" is (-x).
        assert parse("-x^2") == Pow(Neg(X), Constant(2.0))
        assert evaluate(parse("-x^2"), 3.0) == 9.0
        assert parse("0-x^2") == Sub(Constant(0.0), Pow(X, Constant(2.0)))

    def test_negative_exponent_literal(self):
        assert parse("x^-1") == Pow(X, Neg(Constant(1.0)))
        assert evaluate(parse("x^-1"), 4.0) == 0.25

    def test_number_formats(self):
        assert parse("1.5e-3") == Constant(0.0015)
        assert parse(".5") == Constant(0.5)
        assert parse("2.") == Constant(2.0)

    def test_syntax_error_carries_offset_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse("1+")
        assert err.value.offset == 2
        assert "number" in err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("foo(2)")
        assert err.value.name == "foo"
        assert err.value.offset == 0

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("x y")
        assert err.value.offset == 2

    @pytest.mark.parametrize("bad", ["", "()", "sin()", "sin(", "(1+2", "1 + * 2", "@"])
    def test_malformed_sources(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_non_finite_literal_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("1+1e999")
        assert err.value.offset == 2

    @pytest.mark.parametrize(
        "source,offset",
        [
            ("(" * 1200 + "x" + ")" * 1200, MAX_DEPTH),
            ("-" * 1500 + "x", MAX_DEPTH),
            # The offending operator is the (MAX_DEPTH + 1)-th '+'.
            ("+".join(["x"] * 1500), 2 * MAX_DEPTH + 1),
            ("x^" * 1500 + "x", 2 * MAX_DEPTH + 1),
            ("sin(" * 1200 + "x" + ")" * 1200, 4 * MAX_DEPTH),
        ],
        ids=["parentheses", "minus", "sum", "power", "calls"],
    )
    def test_depth_bound(self, source, offset):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.offset == offset
        assert "deeper" in str(err.value)

    @pytest.mark.parametrize(
        "source",
        [
            "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "-" * MAX_DEPTH + "x",
            "+".join(["x"] * (MAX_DEPTH + 1)),
            "-(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2),
        ],
        ids=["parentheses", "minus", "sum", "mixed"],
    )
    def test_deepest_accepted_trees_evaluate_and_print(self, source):
        tree = parse(source)
        assert parse(unparse(tree)) == tree
        assert evaluate_dual(tree, 0.5).val == evaluate(tree, 0.5)

    def test_unicode_offset_is_in_bytes(self):
        with pytest.raises(ParseError) as err:
            parse("µ")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            parse("1+µ")
        assert err.value.offset == 2


class TestEvaluate:
    def test_examples(self):
        assert evaluate(parse("50*x*(1-x)"), 0.5) == 12.5
        assert evaluate(parse("x"), 3.2) == 3.2
        assert evaluate(parse("exp(0)"), 17.0) == 1.0

    def test_integer_power_keeps_negative_bases(self):
        assert evaluate(parse("x^3"), -2.0) == -8.0
        assert evaluate(parse("x^2.0000000000001"), -2.0) == 4.0  # within integer snap

    def test_int_base_powers_like_its_float(self):
        # Squared as an int, 3 reached 3^65536 exactly and then failed to
        # convert; a large integral exponent never returned at all.
        assert evaluate(parse("x^65536"), 3) == evaluate(parse("x^65536"), 3.0) == math.inf

    def test_int_base_beyond_the_double_range_is_a_domain_error(self):
        with pytest.raises(DomainError, match="int too large to convert to float"):
            evaluate(parse("x^2"), 10**400)

    @pytest.mark.parametrize(
        "source,t",
        [
            ("ln(x)", -1.0),
            ("ln(x)", 0.0),
            ("sqrt(x)", -2.0),
            ("1/x", 0.0),
            ("x^0.5", -1.0),
            ("x^-1", 0.0),
            ("x/(x-1)", 1.0),
        ],
    )
    def test_domain_errors(self, source, t):
        for fn in (evaluate, evaluate_dual):
            with pytest.raises(DomainError, match="^cannot evaluate '"):
                fn(parse(source), t)

    def test_domain_error_names_offending_node(self):
        with pytest.raises(DomainError) as err:
            evaluate(parse("1+ln(0-x)"), 2.0)
        assert "ln" in str(err.value)

    @pytest.mark.parametrize(
        "source,node",
        [
            ("1+x^1000.5", "x^1000.5"),
            ("sin(x^400*x^400)", "sin(x^400.0*x^400.0)"),
            ("exp(x^3)", "exp(x^3.0)"),
        ],
    )
    def test_float_faults_become_domain_errors(self, source, node):
        tree = parse(source)
        for fn in (evaluate, evaluate_dual):
            with pytest.raises(DomainError) as err:
                fn(tree, 10.0)
            assert f"'{node}'" in str(err.value)

    def test_rejects_non_expr(self):
        with pytest.raises(ValidationError):
            evaluate("x", 1.0)


class TestDual:
    def test_examples(self):
        assert evaluate_dual(parse("x^2"), 3.0) == DualNumber(9.0, 6.0)
        assert evaluate_dual(parse("sin(x)"), 0.0) == DualNumber(0.0, 1.0)
        assert evaluate_dual(parse("50*x*(1-x)"), 0.25) == DualNumber(9.375, 25.0)

    def test_abs_not_differentiable_at_zero(self):
        with pytest.raises(DomainError):
            evaluate_dual(parse("abs(x)"), 0.0)
        assert evaluate_dual(parse("abs(x)"), -2.0) == DualNumber(2.0, -1.0)

    def test_varying_exponent(self):
        d = evaluate_dual(parse("x^x"), 2.0)
        assert d.val == 4.0
        assert d.der == pytest.approx(4.0 * (math.log(2.0) + 1.0), rel=1e-14)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            # The parser only ever produces non-negative literals (a leading
            # minus becomes Neg), so the generator mirrors that.
            value = Constant(round(rng.uniform(0.0, 3.0), 3))
            return Neg(value) if rng.random() < 0.3 else value
        return X
    kind = rng.choice(
        ["add", "sub", "mul", "mul", "div", "neg", "pow_int", "pow_frac", "call"]
    )
    if kind == "add":
        return Add(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "sub":
        return Sub(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "mul":
        return Mul(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "div":
        return Div(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "neg":
        return Neg(_random_expr(rng, depth - 1))
    if kind == "pow_int":
        return Pow(_random_expr(rng, depth - 1), Constant(float(rng.choice([2, 3]))))
    if kind == "pow_frac":
        return Pow(_random_expr(rng, depth - 1), Constant(0.5))
    return Call(rng.choice(["sin", "cos", "exp", "ln", "sqrt", "abs"]), _random_expr(rng, depth - 1))


def _usable_samples(seed, count, depth=6):
    """Random trees paired with evaluation points that avoid singularities."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        tree = _random_expr(rng, depth)
        t = rng.uniform(0.3, 2.5)
        try:
            d = evaluate_dual(tree, t)
            for h in (1e-5, -1e-5):
                evaluate(tree, t + h)
        except (DomainError, OverflowError, ZeroDivisionError):
            continue
        if not (math.isfinite(d.val) and math.isfinite(d.der)):
            continue
        if abs(d.val) > 1e6 or abs(d.der) > 1e6:
            continue
        found.append((tree, t, d))
    return found


class TestProperties:
    def test_round_trip_corpus(self):
        corpus = [
            "50*x*(1-x)",
            "sin(2*t)^2",
            "x",
            "1+2*x-3/x",
            "-x^2",
            "x^-1",
            "2^3^2",
            "exp(-(x^2)/2)",
            "sqrt(abs(x-1))",
            "ln(x)/ln(2)",
            "1.5e-3*x",
            "-(x+1)",
        ]
        for source in corpus:
            tree = parse(source)
            assert parse(unparse(tree)) == tree, source

    def test_round_trip_random_trees(self):
        rng = random.Random(99)
        for _ in range(400):
            tree = _random_expr(rng, 5)
            assert parse(unparse(tree)) == tree, unparse(tree)

    def test_dual_value_matches_evaluate_bitwise(self):
        for tree, t, d in _usable_samples(17, 200):
            assert evaluate(tree, t) == d.val

    def test_compiled_functions_match_evaluate_bitwise(self):
        for tree, t, d in _usable_samples(17, 200):
            assert as_fn(tree)(t) == evaluate(tree, t) == d.val
            assert as_dual_fn(tree)(t) == d

    def test_dual_derivative_matches_central_difference(self):
        h = 1e-5
        for tree, t, d in _usable_samples(23, 200):
            approx = (evaluate(tree, t + h) - evaluate(tree, t - h)) / (2.0 * h)
            assert abs(d.der - approx) <= 1e-6 * (1.0 + abs(d.der)), unparse(tree)


def _reference(e, t):
    """Plain recursive evaluation, written out independently of the compiler:
    every operator and call turns a float fault into the DomainError that
    quotes it."""
    if isinstance(e, Constant):
        return e.value
    if isinstance(e, Variable):
        return t
    if isinstance(e, Neg):
        return -_reference(e.operand, t)
    if isinstance(e, Call):
        operands = [_reference(e.arg, t)]
    elif isinstance(e, Pow):
        operands = [_reference(e.base, t), _reference(e.exponent, t)]
    else:
        operands = [_reference(e.left, t), _reference(e.right, t)]
    try:
        if isinstance(e, Call):
            fn = abs if e.func == "abs" else getattr(math, {"ln": "log"}.get(e.func, e.func))
            return fn(*operands)
        left, right = operands
        if isinstance(e, Add):
            return left + right
        if isinstance(e, Sub):
            return left - right
        if isinstance(e, Mul):
            return left * right
        if isinstance(e, Div):
            return left / right
        n = round(right)
        if abs(right - n) >= 1e-12:
            if left < 0.0:
                raise ValueError("negative base with non-integer exponent")
            return left**right
        acc, square, bits = 1.0, left, abs(n)
        while bits:  # square and multiply
            if bits & 1:
                acc *= square
            bits >>= 1
            if bits:
                square *= square
        return 1.0 / acc if n < 0 else acc
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot evaluate '{unparse(e)}' here ({exc.args[-1]})") from None


_CONSTANTS = (0.0, 1.0, 2.0, 3.0, 0.5, 2.5, 1e300, 1e-300)
_EXPONENTS = (0.0, 1.0, 2.0, 3.0, 7.0, 2.0000000000001, 3.0000000001, 0.5, 1.5, 1e300)
_POINTS = (0.0, -0.0, 0.5, 1.7, -1.0, -2.5, 1e300, -1e300, 1e-320)


def _any_tree(rng, depth):
    """A random tree over every node type, with folded and unfolded operands."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.5:
            return X
        value = Constant(rng.choice(_CONSTANTS))
        return rng.choice([value, Neg(value), Constant(-value.value)])
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "pow_const", "call"])
    if kind == "neg":
        return Neg(_any_tree(rng, depth - 1))
    if kind == "call":
        name = rng.choice(["sin", "cos", "exp", "ln", "sqrt", "abs"])
        return Call(name, _any_tree(rng, depth - 1))
    if kind == "pow_const":
        exponent = Constant(rng.choice(_EXPONENTS))
        return Pow(_any_tree(rng, depth - 1), rng.choice([exponent, Neg(exponent)]))
    node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div, "pow": Pow}[kind]
    return node(_any_tree(rng, depth - 1), _any_tree(rng, depth - 1))


def _outcome(fn, t):
    try:
        return repr(fn(t))
    except DomainError as exc:
        return f"DomainError: {exc}"


class TestCompiledClosures:
    def test_value_closure_matches_a_reference_evaluator_bitwise(self):
        rng = random.Random(53)
        for _ in range(1500):
            tree = _any_tree(rng, rng.randint(0, 5))
            value, dual = as_fn(tree), as_dual_fn(tree)
            for t in _POINTS + (rng.uniform(-3.0, 3.0),):
                got = _outcome(value, t)
                assert got == _outcome(lambda s: _reference(tree, s), t), (unparse(tree), t)
                try:
                    d = dual(t)
                except DomainError:
                    continue
                # Where the dual has a value, it is the value closure's, bit for bit.
                assert repr(d.val) == got, (unparse(tree), t)

    def test_negated_literal_folds_to_the_negated_dual(self):
        # -0 is Neg(Constant(0.0)): its dual is -DualNumber(0.0, 0.0), whose
        # derivative -0.0 keeps the sign of a zero product.
        d = as_dual_fn(parse("-0*x"))(2.0)
        assert (repr(d.val), repr(d.der)) == ("-0.0", "-0.0")

    @pytest.mark.parametrize(
        "tree,t,node",
        [
            (parse("2*x"), 10**400, "2.0*x"),
            (Mul(Constant(10**400), Variable()), 1.5, f"{10**400}*x"),
        ],
        ids=["huge-variable", "huge-constant"],
    )
    def test_huge_int_operands_fault_inside_their_node(self, tree, t, node):
        # An int beyond the double range raises OverflowError even in * and +.
        for fn in (as_fn(tree), as_dual_fn(tree), lambda s: evaluate(tree, s)):
            with pytest.raises(DomainError) as err:
                fn(t)
            message = f"cannot evaluate '{node}' here (int too large to convert to float)"
            assert str(err.value) == message
