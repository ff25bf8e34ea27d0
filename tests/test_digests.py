"""Outputs unchanged, byte for byte: committed digests of what the CLI writes.

`tests/digests.json` holds, per set:
- `figures`: the sha256 of `figure1.csv`, `figure2.csv` and `figure3.csv`;
- `heat_grid-1`, `heat_grid-2`: per operation, the heat CSV and exit code of
  the first HEAT_OPS operations of that `heat_grid` seed;
- `calculus-1`: per operation, the stdout and exit code of the first
  CALCULUS_OPS operations of `calculus` seed 1, grouped by operation kind;
- `parse`: what `expr.parse` makes of PARSE_SOURCES seeded random sources and
  of every nesting kind at MAX_DEPTH - 2 to MAX_DEPTH + 2 levels.  A source's
  outcome is its tree's repr and `unparse` text, or its error's type,
  message, byte offset and sorted expected set; `random` holds one digest per
  PARSE_CHUNK sources, and each nesting kind one per source.
A digest is the first 16 hex digits of a sha256.  The operations are drawn by
`benchmarks/workloads.py`, which is loaded from its file and only read, and
every set is recomputed here in process through `cli.main` or `expr.parse`.

A change that alters bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_digests.py --write

and says in CHANGES.md which digests changed and why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from _support import load_workloads
from mfrac.cli import main
from mfrac.expr import MAX_DEPTH, ParseError, parse, unparse

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETS = ("figures", "heat_grid-1", "heat_grid-2", "calculus-1", "parse")
HEAT_OPS = 36
CALCULUS_OPS = 1200
PARSE_SOURCES = 20000
PARSE_CHUNK = 100
FRAMES_PER_LEVEL = 4  # the most stack frames `parse` takes per nesting level

# Sources nested n levels deep, one per way of nesting.
NESTINGS = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "minus": lambda n: "-" * n + "x",
    "power": lambda n: "x^" * n + "x",
    "sum": lambda n: "+".join(["x"] * (n + 1)),
    "product": lambda n: "*".join(["x"] * (n + 1)),
    "call": lambda n: "sin(" * n + "x" + ")" * n,
    "minus-parens": lambda n: "-(" * (n // 2) + "-" * (n % 2) + "x" + ")" * (n // 2),
}

_PREFIXES = ("-", "(", "sin(", "cos(", "exp(", "ln(", "sqrt(", "abs(")
_OPERANDS = ("0", "1", "2.5", ".5", "3.", "1e3", "2E-2", "x", "t")
_INFIXES = ("+", "-", "*", "/", "^")
_STRAYS = ("1e999", "\u00e9", ".", "y", "sin", " ", "(", ")", "^", "x")


def _quiet_main(argv):
    """``main(argv)`` with its stdout captured and its stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def random_source(rng: random.Random) -> str:
    """A walk over the grammar's token positions with stray tokens mixed in,
    so that about half the sources parse and the rest fail in every way."""
    out, opened, want_value = [], 0, True
    for _ in range(rng.randint(1, 20)):
        if rng.random() < 0.05:
            out.append(rng.choice(_STRAYS))
        elif want_value:
            if rng.random() < 0.4:
                out.append(rng.choice(_PREFIXES))
                opened += out[-1] != "-"
            else:
                out.append(rng.choice(_OPERANDS))
                want_value = False
        elif opened and rng.random() < 0.3:
            out.append(")")
            opened -= 1
        else:
            out.append(rng.choice(_INFIXES))
            want_value = True
    if want_value and rng.random() < 0.8:
        out.append(rng.choice(_OPERANDS))
    if rng.random() < 0.9:
        out.append(")" * opened)
    return "".join(out)


def parse_outcome(source: str) -> str:
    """Everything `parse` makes of one source."""
    try:
        tree = parse(source)
    except ParseError as exc:
        return f"{type(exc).__name__}\n{exc}\n{exc.offset}\n{sorted(exc.expected)}"
    return f"{tree!r}\n{unparse(tree)}"


def _parse_digests() -> dict:
    rng = random.Random(1)
    outcomes = [parse_outcome(random_source(rng)) for _ in range(PARSE_SOURCES)]
    digests = {"random": [_digest("\n\n".join(outcomes[i:i + PARSE_CHUNK]).encode())
                          for i in range(0, PARSE_SOURCES, PARSE_CHUNK)]}
    for kind, nest in NESTINGS.items():
        digests[kind] = [_digest(parse_outcome(nest(n)).encode())
                         for n in range(MAX_DEPTH - 2, MAX_DEPTH + 3)]
    return digests


def compute(name: str, workdir: Path) -> dict:
    """One set's digests, as `digests.json` holds them: kind -> list."""
    if name == "parse":
        return _parse_digests()
    if name == "figures":
        code, _ = _quiet_main(["figures", "--output-dir", str(workdir)])
        assert code == 0
        return {"figures": [hashlib.sha256((workdir / f"figure{i}.csv").read_bytes()).hexdigest()
                            for i in (1, 2, 3)]}
    workload, seed = name.rsplit("-", 1)
    count = HEAT_OPS if workload == "heat_grid" else CALCULUS_OPS
    output = workdir / "heat.csv"
    digests = {}
    for op in itertools.islice(load_workloads().operations(workload, int(seed)), count):
        argv = op.argv + ["--output", str(output)] if op.kind == "heat" else op.argv
        code, out = _quiet_main(argv)
        data = output.read_bytes() if op.kind == "heat" and code == 0 else out.encode()
        digests.setdefault(op.kind, []).append(_digest(b"%d\n%s" % (code, data)))
    return digests


def differences(got: dict, want: dict) -> dict:
    """Per operation kind that differs, how many of its operations do."""
    report = {}
    for kind in sorted({*got, *want}):
        mine, theirs = got.get(kind, []), want.get(kind, [])
        changed = sum(a != b for a, b in zip(mine, theirs)) + abs(len(mine) - len(theirs))
        if changed:
            report[kind] = f"{changed} of {len(theirs)} differ"
    return report


@pytest.mark.parametrize("name", SETS)
def test_outputs_match_committed_digests(tmp_path, name):
    want = json.loads(DIGESTS.read_text(encoding="ascii"))[name]
    assert differences(compute(name, tmp_path), want) == {}


def _parses_under(limit: int, source: str) -> bool:
    """Whether `parse(source)` succeeds under the given recursion limit."""
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(limit)  # raises RecursionError below the current depth
        parse(source)
    except RecursionError:
        return False
    finally:
        sys.setrecursionlimit(saved)
    return True


@pytest.mark.parametrize("kind", NESTINGS)
def test_deepest_source_parses_within_its_frame_budget(kind):
    # The least limit under which a bare "x" parses from here measures the
    # stack below the parser, which pytest's own frames make hard to count.
    low, high = 1, sys.getrecursionlimit()
    while low < high:
        mid = (low + high) // 2
        low, high = (low, mid) if _parses_under(mid, "x") else (mid + 1, high)
    assert _parses_under(low + FRAMES_PER_LEVEL * MAX_DEPTH + 2, NESTINGS[kind](MAX_DEPTH))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as workdir:
        data = {name: compute(name, Path(workdir)) for name in SETS}
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
