"""The benchmark's reference checks as a test: values, not only exit codes.

`benchmarks/workloads.py` draws each workload's seeded operations and checks
an operation's output against a reference that never calls into `mfrac`: the
analytic sine series for `heat`, mpmath for the calculus commands.  Here the
first operations of two seeds per workload run through `cli.main` and must
meet those references.  The module is loaded from its file and only read.
"""

import contextlib
import io
import itertools

import pytest

from _support import load_workloads
from mfrac.cli import main

SEEDS = (1, 2)
HEAT_OPS = 12
CALCULUS_OPS = 240

workloads = load_workloads()


def miss(op, tmp_path):
    """None when the operation exits 0 and meets its reference, else why not."""
    argv = list(op.argv)
    if op.kind == "heat":
        argv += ["--output", str(tmp_path / "heat.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        return f"{op.argv}: exit {code}: {err.getvalue().strip()}"
    if op.kind == "heat":
        reason = workloads.check_heat(op, (tmp_path / "heat.csv").read_text(encoding="ascii"))
    else:
        reason = workloads.check_calculus(op, out.getvalue())
    return reason and f"{op.argv}: {reason}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload,count", [("heat_grid", HEAT_OPS), ("calculus", CALCULUS_OPS)],
                         ids=["heat_grid", "calculus"])
def test_timed_operations_meet_their_references(tmp_path, workload, count, seed):
    ops = itertools.islice(workloads.operations(workload, seed), count)
    misses = [m for m in (miss(op, tmp_path) for op in ops) if m]
    assert misses == []


# Known defects, held out of the benchmark's timed loop (`workloads.held_out`):
# for `heat_endpoint`, `check_heat` expects the unclamped last x, L*(n-1)/(n-1),
# which can round above L; `ml_cancellation` is the kernel's cancelling sums.
# Mending one makes its case pass, which strict=True reports as a failure until
# its marker goes; a class that is no longer held out fails as well.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="held-out inputs fail their references")
@pytest.mark.parametrize("workload,reason", [("heat_grid", "heat_endpoint"),
                                             ("calculus", "ml_cancellation")])
def test_held_out_operations_meet_their_references(tmp_path, workload, reason):
    ops = [op for seed in SEEDS for op, why in workloads.held_out_ops(workload, seed)
           if why == reason]
    if not ops:
        pytest.fail(f"no {reason} operation is held out any more; drop this case")
    assert [m for m in (miss(op, tmp_path) for op in ops) if m] == []
