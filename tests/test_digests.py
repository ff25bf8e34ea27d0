"""Outputs unchanged, byte for byte: committed digests of what the CLI writes.

`tests/digests.json` holds, per set:
- `figures`: the sha256 of `figure1.csv`, `figure2.csv` and `figure3.csv`;
- `heat_grid-1`, `heat_grid-2`: per operation, the heat CSV and exit code of
  the first HEAT_OPS operations of that `heat_grid` seed;
- `calculus-1`: per operation, the stdout and exit code of the first
  CALCULUS_OPS operations of `calculus` seed 1, grouped by operation kind.
An operation's digest is the first 16 hex digits of a sha256.  The operations
are drawn by `benchmarks/workloads.py`, which is loaded from its file and only
read, and every set is recomputed here in process through `cli.main`.

A change that alters bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_digests.py --write

and says in CHANGES.md which digests changed and why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from _support import load_workloads
from mfrac.cli import main

DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETS = ("figures", "heat_grid-1", "heat_grid-2", "calculus-1")
HEAT_OPS = 36
CALCULUS_OPS = 1200


def _quiet_main(argv):
    """``main(argv)`` with its stdout captured and its stderr dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def compute(name: str, workdir: Path) -> dict:
    """One set's digests, as `digests.json` holds them: kind -> list."""
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
        digest = hashlib.sha256(b"%d\n%s" % (code, data)).hexdigest()[:16]
        digests.setdefault(op.kind, []).append(digest)
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as workdir:
        data = {name: compute(name, Path(workdir)) for name in SETS}
    DIGESTS.write_text(json.dumps(data, indent=1) + "\n", encoding="ascii")
