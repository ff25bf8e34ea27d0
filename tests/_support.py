"""Shared helpers for the test suite: random instance generators, oracles and
subprocess runners."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import mfrac
from mfrac.expr import (
    Add,
    Call,
    Constant,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Sub,
    Variable,
    evaluate,
)
from mfrac.fracderiv import FracParams
from mfrac.special import INFINITY, TruncationIndex

X = Variable()


def run_python(*args):
    """Run a separate interpreter with this package on its path, so that an
    escaping exception shows as a traceback and imports start from nothing."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mfrac.__file__)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def run_module(*argv):
    """Run the CLI, ``python -m mfrac ARGV``, in a separate interpreter."""
    return run_python("-m", "mfrac", *argv)


def load_workloads():
    """`benchmarks/workloads.py`, loaded from its file and only read; loaded
    once, so every test module shares one copy."""
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # the dataclass looks its module up
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


_TERM_KINDS = ("const", "linear", "square", "cube", "sin", "cos", "exp_half")


def _term(kind, coeff):
    c = Constant(abs(coeff))
    body = {
        "const": c,
        "linear": Mul(c, X),
        "square": Mul(c, Pow(X, Constant(2.0))),
        "cube": Mul(c, Pow(X, Constant(3.0))),
        "sin": Mul(c, Call("sin", X)),
        "cos": Mul(c, Call("cos", X)),
        "exp_half": Mul(c, Call("exp", Div(X, Constant(2.0)))),
    }[kind]
    return Neg(body) if coeff < 0 else body


def random_poly_trig(rng) -> Expr:
    """A smooth random test function: a short signed sum of polynomial,
    trigonometric, and exp(x/2) terms."""
    kinds = rng.sample(_TERM_KINDS, rng.randint(2, 4))
    coeffs = [rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0) for _ in kinds]
    tree = _term(kinds[0], coeffs[0])
    for kind, coeff in zip(kinds[1:], coeffs[1:]):
        tree = Add(tree, _term(kind, coeff))
    return tree


def random_params(rng, *, trunc_choices=(None, 1, 3, 10)) -> FracParams:
    trunc = rng.choice(trunc_choices)
    return FracParams(
        alpha=rng.uniform(0.05, 0.95),
        beta=rng.choice([0.5, 1.0, 2.0, rng.uniform(0.3, 3.0)]),
        trunc=INFINITY if trunc is None else TruncationIndex(trunc),
    )


def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every variable occurrence, producing the composition e(replacement)."""
    if isinstance(e, Variable):
        return replacement
    if isinstance(e, Constant):
        return e
    if isinstance(e, Add):
        return Add(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Sub):
        return Sub(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Mul):
        return Mul(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Div):
        return Div(substitute(e.left, replacement), substitute(e.right, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacement), substitute(e.exponent, replacement))
    if isinstance(e, Neg):
        return Neg(substitute(e.operand, replacement))
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, replacement))
    raise TypeError(f"not an Expr node: {e!r}")


def classical_heat_series(x, t, *, diffusivity, n_terms):
    """Integer-order separable solution on [0, 1] for the profile 50*x*(1-x).

    Uses the symbolically integrated coefficients 400/(n*pi)^3 for odd n
    (even ones vanish), so it is independent of the package's quadrature.
    """
    total = 0.0
    for n in range(1, n_terms + 1, 2):
        c_n = 400.0 / (n * math.pi) ** 3
        total += (
            c_n
            * math.sin(n * math.pi * x)
            * math.exp(-((n * math.pi) ** 2) * diffusivity * t)
        )
    return total


def assert_close(actual, expected, tol, context=""):
    assert abs(actual - expected) <= tol, (
        f"{context}: |{actual!r} - {expected!r}| = {abs(actual - expected):.3e} > {tol:.3e}"
    )


def eval_fn(tree):
    return lambda s: evaluate(tree, s)
