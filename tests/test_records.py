"""The shared value-class base and the real-number and finite-result checks
in `mfrac.errors`.

Every record compares, hashes, prints and refuses mutation by its fields.
The expected reprs are the ones the package printed when these classes were
dataclasses, so the record base changed none of them.
"""

import copy
import math
import pickle

import pytest

from mfrac.cli import CsvTable
from mfrac.errors import DomainError, Record, ValidationError, require_finite, require_real
from mfrac.expr import (
    Add,
    Call,
    Constant,
    Div,
    DualNumber,
    Mul,
    Neg,
    Pow,
    Sub,
    Variable,
    parse,
)
from mfrac.fracderiv import DerivFamily, FracParams, LimitEstimate, deriv_closed, rolle_witness
from mfrac.fracint import mfrac_integral
from mfrac.heat import HeatProblem, HeatSolution
from mfrac.ode import LinearOdeProblem, OdeSolution, TermSign, solve_linear
from mfrac.quad import QuadratureResult, integrate_adaptive
from mfrac.special import INFINITY, MLParams, TruncationIndex

X = Variable()
ONE = Constant(1.0)
HEAT_REPR = (
    "HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0, initial_profile=Mul(left=Variable(), "
    "right=Sub(left=Constant(value=1.0), right=Variable())), n_terms=3)"
)


def heat_problem():
    return HeatProblem(1.0, 0.003, 0.5, 1.0, parse("x*(1-x)"), 3)


# Class -> (a factory of one instance, the repr it printed as a dataclass).
CASES = {
    Constant: (lambda: Constant(2.5), "Constant(value=2.5)"),
    Variable: (Variable, "Variable()"),
    Add: (lambda: Add(ONE, X), "Add(left=Constant(value=1.0), right=Variable())"),
    Sub: (lambda: Sub(ONE, X), "Sub(left=Constant(value=1.0), right=Variable())"),
    Mul: (lambda: Mul(ONE, X), "Mul(left=Constant(value=1.0), right=Variable())"),
    Div: (lambda: Div(ONE, X), "Div(left=Constant(value=1.0), right=Variable())"),
    Pow: (lambda: Pow(X, Constant(2.0)), "Pow(base=Variable(), exponent=Constant(value=2.0))"),
    Neg: (lambda: Neg(X), "Neg(operand=Variable())"),
    Call: (lambda: Call("sin", X), "Call(func='sin', arg=Variable())"),
    DualNumber: (lambda: DualNumber(1.5, -0.25), "DualNumber(val=1.5, der=-0.25)"),
    TruncationIndex: (lambda: TruncationIndex(3), "TruncationIndex(value=3)"),
    MLParams: (
        lambda: MLParams(0.5, TruncationIndex(2)),
        "MLParams(beta=0.5, trunc=TruncationIndex(value=2))",
    ),
    FracParams: (
        lambda: FracParams(0.5, 2.0, TruncationIndex(1)),
        "FracParams(alpha=0.5, beta=2.0, trunc=TruncationIndex(value=1))",
    ),
    LimitEstimate: (
        lambda: LimitEstimate(1.25, 0.001, 1e-9),
        "LimitEstimate(value=1.25, eps_used=0.001, extrapolation_error=1e-09)",
    ),
    DerivFamily: (
        DerivFamily.conformable,
        "DerivFamily(label='conformable', beta=1.0, trunc=TruncationIndex(value=1))",
    ),
    QuadratureResult: (
        lambda: QuadratureResult(0.5, 1e-12, 3),
        "QuadratureResult(value=0.5, abs_error_estimate=1e-12, subdivisions=3)",
    ),
    LinearOdeProblem: (
        lambda: LinearOdeProblem(2.0, TermSign.PLUS, 1.0, FracParams(0.5, 1.0)),
        "LinearOdeProblem(mu_sq=2.0, sign=<TermSign.PLUS: 'plus'>, c=1.0, "
        "p=FracParams(alpha=0.5, beta=1.0, trunc=TruncationIndex(value=None)))",
    ),
    OdeSolution: (
        lambda: OdeSolution(abs, math.exp, "v(t) = |t|"),
        "OdeSolution(evaluator=<built-in function abs>, "
        "dual_evaluator=<built-in function exp>, description='v(t) = |t|')",
    ),
    HeatProblem: (heat_problem, HEAT_REPR),
    HeatSolution: (
        lambda: HeatSolution(heat_problem(), (0.25, 0.0, 0.5), (1.0, 4.0, 9.0)),
        f"HeatSolution(problem={HEAT_REPR}, coefficients=(0.25, 0.0, 0.5), "
        "decay_rates=(1.0, 4.0, 9.0))",
    ),
    CsvTable: (
        lambda: CsvTable(("x", "u"), ((0.0, 1.0),)),
        "CsvTable(header=('x', 'u'), rows=((0.0, 1.0),))",
    ),
}

each_record = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def fields(record):
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def test_every_value_class_is_a_record():
    assert len(CASES) == 21
    assert all(issubclass(cls, Record) for cls in CASES)


class TestRecordContract:
    @each_record
    def test_repr_is_the_dataclass_repr(self, cls):
        make, text = CASES[cls]
        assert repr(make()) == text

    @each_record
    def test_equal_and_hashed_by_value(self, cls):
        make, _ = CASES[cls]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(fields(a))

    @each_record
    def test_unequal_to_anything_of_another_class(self, cls):
        a = CASES[cls][0]()
        assert a.__eq__(fields(a)) is NotImplemented
        assert a != fields(a)
        assert a != object()

    def test_same_fields_in_another_class_are_unequal(self):
        nodes = [Add(ONE, X), Sub(ONE, X), Mul(ONE, X), Div(ONE, X)]
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                assert (a == b) == (i == j)
        assert LimitEstimate(0.5, 1e-12, 3) != QuadratureResult(0.5, 1e-12, 3)
        assert Constant(1.0) != Constant(2.0)
        assert FracParams(0.5, 1.0) != FracParams(0.5, 2.0)

    @each_record
    def test_fields_can_be_neither_assigned_nor_deleted(self, cls):
        a = CASES[cls][0]()
        before = fields(a)
        for name in cls.__match_args__:
            with pytest.raises(AttributeError):
                setattr(a, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert fields(a) == before

    @each_record
    def test_keyword_construction(self, cls):
        a = CASES[cls][0]()
        assert cls(**dict(zip(cls.__match_args__, fields(a)))) == a

    @each_record
    def test_pickle_and_copy_round_trip(self, cls):
        a = CASES[cls][0]()
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is cls
            assert twin == a

    def test_defaults(self):
        assert TruncationIndex() == TruncationIndex(None) == INFINITY
        assert repr(TruncationIndex()) == "TruncationIndex(value=None)"
        assert MLParams(1.0).trunc is INFINITY
        assert FracParams(0.5, 1.0).trunc is INFINITY
        assert OdeSolution(abs, math.exp).description is None
        profile = parse("x*(1-x)")
        assert HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=profile).n_terms == 51
        assert HeatProblem(L=1.0, k=0.003, alpha=0.5, beta=1.0,
                           initial_profile=profile, n_terms=7).n_terms == 7

    def test_expression_nodes_match_positionally(self):
        match parse("sin(x)^2 - -1/x"):
            case Sub(Pow(Call(name, Variable()), Constant(2.0)), Div(Neg(Constant(c)), Variable())):
                assert (name, c) == ("sin", 1.0)
            case _:
                pytest.fail("the tree did not match")
        match parse("x*2+1"):
            case Add(Mul(Variable(), Constant(two)), Constant(one)):
                assert (two, one) == (2.0, 1.0)
            case _:
                pytest.fail("the tree did not match")

    def test_a_record_must_declare_its_slots(self):
        with pytest.raises(TypeError, match="__slots__"):
            class Loose(Record):
                pass


class TestRequireFinite:
    @pytest.mark.parametrize("value", [-0.0, 5e-324, 1.7976931348623157e308])
    def test_finite_values_pass_unchanged(self, value):
        assert require_finite("v", value) is value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_name_the_quantity(self, value):
        with pytest.raises(DomainError, match=rf"^the computed v is not finite \({value!r}\)$"):
            require_finite("computed v", value)


class TestRequireReal:
    @pytest.mark.parametrize("value", [0, -3, 2.5, 10**300, -1e308])
    def test_finite_reals_pass_unchanged(self, value):
        assert require_real("v", value) is value

    @pytest.mark.parametrize(
        "value", [True, False, math.nan, math.inf, -math.inf, 10**400, "1", None, 1j]
    )
    def test_everything_else_is_rejected(self, value):
        with pytest.raises(ValidationError, match="v must be a finite real"):
            require_real("v", value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: deriv_closed(lambda t: DualNumber(t, 1.0), FracParams(0.5, 1.0), True),
            lambda: rolle_witness(lambda t: DualNumber(0.0, 0.0), True, 2.0, FracParams(0.5, 1.0)),
            lambda: LinearOdeProblem(mu_sq=True, sign=TermSign.PLUS, c=1.0, p=FracParams(0.5, 1.0)),
            lambda: LinearOdeProblem(mu_sq=1.0, sign=TermSign.PLUS, c=True, p=FracParams(0.5, 1.0)),
            lambda: solve_linear(LinearOdeProblem(1.0, TermSign.PLUS, 1.0, FracParams(0.5, 1.0)))(True),
            lambda: integrate_adaptive(math.sin, True, 2.0),
            lambda: mfrac_integral(math.sin, 0.0, True, FracParams(0.5, 1.0)),
            lambda: FracParams(True, 1.0),
            lambda: MLParams(True),
            lambda: HeatProblem(True, 0.003, 0.5, 1.0, parse("x*(1-x)")),
        ],
        ids=["deriv-t", "interval-a", "ode-mu-sq", "ode-c", "ode-solution-t",
             "quadrature-a", "integral-t", "frac-alpha", "ml-beta", "heat-L"],
    )
    def test_a_bool_is_not_a_real(self, call):
        with pytest.raises(ValidationError, match="must be a finite real, got True"):
            call()
