"""Seeded random fuzz of the command line, run in process.

Every call must return an exit code from 0 to 3 with no exception escaping,
and a call that exits 0 must not print or write a nan or inf cell.
"""

import contextlib
import io
import math
import random

import pytest

from mfrac.cli import main

HOSTILE = ("0", "-0", "1e-320", "1e308", "-1e308", "nan", "inf", "-inf")
TAME = ("0.5", "1", "2", "-1", "0.25", "0.999999", "1e-300", "1e300", "3.7", "-2.5")
ATOMS = (
    "x", "ln(x)", "1/x", "x^1000", "exp(exp(x))", "sqrt(x)", "abs(x)", "sin(x)", "x^0.5",
    "exp(x)", "0", "1e300*x", "x^-3", "cos(1/x)", "ln(1-x)", "x^x", "1e-300",
)
TRUNCATIONS = ("0", "1", "3", "20", "1000", "inf")
CALLS_PER_SEED = 250


def number(rng):
    return rng.choice(HOSTILE if rng.random() < 0.2 else TAME)


def expression(rng):
    source = rng.choice(ATOMS)
    for _ in range(rng.randint(0, 2)):
        source = f"({source}){rng.choice('+-*/')}{rng.choice(ATOMS)}"
    return source


def command(rng, output):
    """One random argv for one of the six computing subcommands."""
    kind = rng.choice(("ml-eval", "deriv", "integrate", "ode", "heat", "compare"))
    if kind == "ml-eval":
        flags = {"z": number(rng), "beta": number(rng), "i": rng.choice(TRUNCATIONS)}
    elif kind == "deriv":
        flags = {"f": expression(rng), "alpha": number(rng), "beta": number(rng),
                 "i": rng.choice(TRUNCATIONS), "t": number(rng),
                 "method": rng.choice(("closed", "limit", "both"))}
    elif kind == "integrate":
        flags = {"f": expression(rng), "a": number(rng), "t": number(rng),
                 "alpha": number(rng), "beta": number(rng)}
    elif kind == "ode":
        flags = {"mu-sq": number(rng), "sign": rng.choice(("plus", "minus")), "c": number(rng),
                 "alpha": number(rng), "beta": number(rng), "t": number(rng)}
    elif kind == "heat":
        length = number(rng)
        profile = f"x*({length}-x)" if rng.random() < 0.7 else expression(rng)
        flags = {"L": length, "k": number(rng), "alpha": number(rng), "beta": number(rng),
                 "f": profile, "t": number(rng), "n-terms": str(rng.randint(1, 5)),
                 "x-points": str(rng.randint(2, 5)), "output": output}
    else:
        flags = {"f": expression(rng), "alpha": number(rng), "t": number(rng)}
    return [kind] + [f"--{key}={value}" for key, value in flags.items()]


def non_finite_cells(text):
    cells = [cell for line in text.splitlines() for cell in line.split(",")]
    found = []
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:  # a header or a label
            continue
        if not math.isfinite(value):
            found.append(cell)
    return found


def fuzz(seed, output):
    """The calls of one seed that broke the contract, with what went wrong."""
    rng = random.Random(seed)
    broken = []
    for _ in range(CALLS_PER_SEED):
        argv = command(rng, str(output))
        if output.exists():
            output.unlink()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:  # anything escaping main breaks the contract
            broken.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        if code not in (0, 1, 2, 3):
            broken.append((argv, f"exit code {code}"))
        elif code == 0:
            text = out.getvalue()
            if argv[0] == "heat":
                text += output.read_text()
            cells = non_finite_cells(text)
            if cells:
                broken.append((argv, f"exit 0 with {cells}"))
    return broken


@pytest.mark.parametrize("seed", range(8))
def test_cli_fuzz(tmp_path, seed):
    broken = fuzz(seed, tmp_path / "heat.csv")
    assert not broken, "\n".join(f"{argv}: {what}" for argv, what in broken[:10])
