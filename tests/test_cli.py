"""Command-line interface tests: output formats, config handling, exit codes."""

import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from _support import classical_heat_series, run_module, run_python
from mfrac import cli
from mfrac.cli import CsvTable, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCsvTable:
    def test_formatting_is_lossless(self):
        value = 12.900613773279797
        table = CsvTable(("a",), [(value,)])
        assert float(table.to_csv().splitlines()[1]) == value

    def test_cells_match_per_cell_formatting(self):
        rng = random.Random(17)
        values = [0.0, -0.0, 1, -7, 5e-324, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
        values += [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300) for _ in range(199)]
        numbers = CsvTable(("a", "b", "c", "d"), [tuple(values[i:i + 4]) for i in range(0, 208, 4)])
        mixed = CsvTable(("a", "b", "c"), [("label", 0.1, -3), (0.5, "mid", 2.0), ("a", "b", "c")])
        lists = CsvTable(("a", "b"), [[0.1, -2.5e-300], [1, "label"], [math.nan, True]])
        single = CsvTable(("a",), [(v,) for v in values[:20]] + [("label",), [0.25]])
        flags = CsvTable(("a", "b", "c"), [(True, False, 0.5), (False, -0.0, True)])
        for table in (numbers, mixed, lists, single, flags):
            plain = [",".join(table.header)]
            plain += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row)
                      for row in table.rows]
            assert table.to_csv() == "\n".join(plain) + "\n"

    def test_rectangularity_enforced(self):
        from mfrac.errors import ValidationError

        # Too narrow, a tuple too wide, a list too narrow and a labelled row too wide.
        for rows in ([(1.0,)], [(0.5, 1.0), (1.0, 2.0, 3.0)], [[1.0, 2.0], [3.0]],
                     [("label", 1.0, 2.0)]):
            with pytest.raises(ValidationError, match="table rows must match the header width"):
                CsvTable(("a", "b"), rows).to_csv()

    def test_non_ascii_table_writes_no_file(self, tmp_path):
        from mfrac.errors import ValidationError

        path = tmp_path / "t.csv"
        with pytest.raises(ValidationError, match="ASCII"):
            CsvTable(("\u00e9",), [(1.0,)]).write(str(path))
        assert not path.exists()


class TestMlEval:
    def test_single_term(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--z", "0", "--beta", "1", "--i", "5")
        assert code == 0
        assert out.strip() == "1.0"

    def test_one_plus_z(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--z", "0.3", "--beta", "1", "--i", "1")
        assert code == 0
        assert float(out) == pytest.approx(1.3, rel=1e-14)

    def test_exponential(self, capsys):
        code, out, _ = run_cli(capsys, "ml-eval", "--z", "1", "--beta", "1", "--i", "inf")
        assert code == 0
        assert float(out) == pytest.approx(math.e, rel=1e-12)

    def test_cancellation_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "ml-eval", "--z", "-10", "--beta", "0.5", "--i", "inf")
        assert code == 2
        assert "error" in err

    def test_invalid_flag_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "ml-eval", "--z", "nope", "--beta", "1", "--i", "1")
        assert code == 1
        code, _, _ = run_cli(capsys, "ml-eval", "--z", "1", "--beta", "1", "--i", "-3")
        assert code == 1

    def test_huge_finite_truncation_stops_at_underflow(self):
        start = time.perf_counter()
        proc = run_module("ml-eval", "--z", "0.5", "--beta", "1", "--i", "1000000")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert float(proc.stdout) == pytest.approx(math.exp(0.5), rel=1e-15)
        # Summing all 10^6 terms took over 3 s; the first zero term is k = 157.
        assert elapsed < 1.0


class TestDeriv:
    def test_both_methods_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--f", "t^2", "--alpha", "0.5", "--beta", "1",
            "--i", "1", "--t", "1", "--method", "both",
        )
        assert code == 0
        closed, limit, gap = (float(v) for v in out.split(","))
        assert closed == pytest.approx(2.0, rel=1e-13)
        assert limit == pytest.approx(2.0, rel=1e-6)
        assert gap <= 1e-5

    def test_constant_is_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--f", "3", "--alpha", "0.5", "--beta", "1",
            "--t", "2", "--method", "both",
        )
        assert code == 0
        assert out.startswith("0.0,0.0,")

    def test_closed_sine(self, capsys):
        code, out, _ = run_cli(
            capsys, "deriv", "--f", "sin(t)", "--alpha", "0.3", "--beta", "2",
            "--t", "1", "--method", "closed",
        )
        assert code == 0
        assert float(out) == pytest.approx(math.cos(1.0) / 2.0, rel=1e-12)

    def test_closed_cube_is_exact(self, capsys):
        # 4^0.5 * 3 * 4^2 / Gamma(3) = 48: every factor is exact in floats.
        code, out, _ = run_cli(
            capsys, "deriv", "--f", "x^3", "--alpha", "0.5", "--beta", "2",
            "--t", "4", "--method", "closed",
        )
        assert code == 0
        assert out.strip() == "48.0"

    def test_zero_truncation_exits_one(self, capsys):
        for method in ("closed", "limit", "both"):
            code, out, err = run_cli(
                capsys, "deriv", "--f", "x", "--alpha", "0.5", "--beta", "1", "--i", "0",
                "--t", "1", "--method", method,
            )
            assert (code, out) == (1, "")
            assert "truncation index" in err

    def test_bad_expression_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "deriv", "--f", "sin(", "--alpha", "0.5", "--beta", "1", "--t", "1",
        )
        assert code == 1
        assert "error" in err


class TestEvaluationFaults:
    @pytest.mark.parametrize("source", ["x^1000.5", "sin(x^400*x^400)"])
    @pytest.mark.parametrize(
        "command",
        [
            ["deriv", "--alpha", "0.5", "--beta", "1", "--t", "10"],
            ["integrate", "--a", "0", "--t", "10", "--alpha", "0.5", "--beta", "1"],
        ],
    )
    def test_exit_one_without_traceback(self, command, source):
        proc = run_module(*command, "--f", source)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "cannot evaluate" in proc.stderr

    @pytest.mark.parametrize(
        "source",
        ["(" * 1200 + "x" + ")" * 1200, "+".join(["x"] * 1500), "-" * 1500 + "x", "1e999"],
        ids=["parentheses", "sum", "minus", "literal"],
    )
    def test_deep_or_infinite_source_exits_one(self, capsys, source):
        code, _, err = run_cli(
            capsys, "deriv", f"--f={source}", "--alpha", "0.5", "--beta", "1", "--t", "1",
        )
        assert code == 1
        assert "byte" in err


class TestOverflow:
    @pytest.mark.parametrize(
        "command",
        [
            ["heat", "--L", "1", "--k", "0.003", "--alpha", "0.5", "--beta", "200",
             "--f", "50*x*(1-x)", "--n-terms", "3", "--t", "1"],
            ["deriv", "--f", "t^2", "--alpha", "0.5", "--beta", "200", "--t", "1"],
            ["integrate", "--f", "1", "--a", "0", "--t", "1", "--alpha", "0.5", "--beta", "200"],
        ],
        ids=["heat", "deriv", "integrate"],
    )
    def test_gamma_overflow_exits_one(self, tmp_path, command):
        out_path = tmp_path / "heat.csv"
        if command[0] == "heat":
            command = command + ["--output", str(out_path)]
        proc = run_module(*command)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "Gamma(201.0)" in proc.stderr
        assert not out_path.exists()

    # mu^2 = 1e300 overflows exp for the growing solution; with alpha = 1e-10
    # the exponent coefficient itself is infinite.  The decaying solution
    # underflows to 0 instead (TestOde).
    @pytest.mark.parametrize("sign,alpha", [("minus", "0.5"), ("minus", "1e-10")])
    def test_ode_overflow_exits_one(self, sign, alpha):
        proc = run_module("ode", "--mu-sq", "1e300", "--sign", sign, "--c", "1",
                          "--alpha", alpha, "--beta", "1", "--t", "1")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "t=1.0" in proc.stderr
        assert proc.stdout == ""


    @pytest.mark.parametrize(
        "flags",
        [
            ["--L", "1e-160", "--k", "1", "--f", "x*(1e-160-x)", "--t", "1"],
            ["--L", "1", "--k", "1e308", "--f", "x*(1-x)", "--t", "0"],
        ],
        ids=["tiny-L", "huge-k"],
    )
    def test_heat_decay_rate_overflow_exits_one(self, tmp_path, flags):
        out_path = tmp_path / "o.csv"
        proc = run_module("heat", *flags, "--alpha", "0.5", "--beta", "1", "--n-terms", "3",
                          "--x-points", "3", "--output", str(out_path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "decay rate of mode n=1" in proc.stderr
        assert not out_path.exists()

    def test_heat_grid_overflow_exits_one(self, tmp_path, capsys):
        # L*i overflows from i = 2 on, so the grid holds inf, which is
        # rejected rather than clamped to L.
        out_path = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "heat", "--L", "1e308", "--k", "1", "--alpha", "0.5", "--beta", "1",
            "--f", "0*x", "--t", "1", "--n-terms", "3", "--x-points", "5",
            "--output", str(out_path),
        )
        assert code == 1
        assert "x must be a finite real, got inf" in err
        assert not out_path.exists()

    def test_finite_truncation_overflow_exits_two(self):
        proc = run_module("ml-eval", "--z", "1000", "--beta", "0.1", "--i", "400")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "overflowed" in proc.stderr
        assert proc.stdout == ""


class TestNonFiniteEnds:
    """Inputs found by fuzzing that raised a bare exception or printed a
    nan or inf with exit 0."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["deriv", "--f", "x", "--alpha", "0.985", "--beta", "1", "--t", "1e-320",
              "--method", "limit"], 2, "t^-0.985 overflows"),
            (["compare", "--f", "exp(x)", "--alpha", "0.999999", "--t", "1e-320"],
             2, "t^-0.999999 overflows"),
            (["compare", "--f", "exp(ln(x))", "--alpha", "0.999999", "--t", "1e-320"],
             1, "closed-form derivative is not finite (inf)"),
            (["heat", "--L", "1e-320", "--k", "1", "--alpha", "0.5", "--beta", "1",
              "--f", "x*(1e-320-x)", "--t", "1", "--n-terms", "1", "--x-points", "3"],
             1, "pi / L overflows"),
            (["deriv", "--f", "x/ln(x)", "--alpha", "0.5", "--beta", "1", "--t", "1e-320",
              "--method", "closed"], 1, "closed-form derivative is not finite (-inf)"),
            (["deriv", "--f", "x/ln(x)", "--alpha", "0.5", "--beta", "1", "--t", "1e-320",
              "--method", "both"], 1, "closed-form derivative is not finite (-inf)"),
            (["deriv", "--f", "0/((1/x)+(1-x^1000))", "--alpha", "1e-300", "--beta", "3.051",
              "--t", "1e300", "--i", "3", "--method", "closed"],
             1, "closed-form derivative is not finite (nan)"),
            (["ode", "--mu-sq", "1e-10", "--sign", "plus", "--c", "1", "--alpha", "0.001",
              "--beta", "1", "--t", "1e-320"],
             1, "solution's derivative at t=1e-320 is not finite (inf)"),
            (["integrate", "--f", "sqrt(x)", "--a", "0.999999", "--t", "1e308", "--alpha", "0.5",
              "--beta", "3.7"], 1, "integral is not finite (inf)"),
        ],
        ids=["deriv-step", "compare-step", "compare-closed", "heat-tiny-L", "deriv-closed",
             "deriv-both", "deriv-nan", "ode-derivative", "integrate-overflow"],
    )
    def test_exits_typed_with_empty_stdout(self, capsys, tmp_path, argv, code, message):
        out_path = tmp_path / "o.csv"
        if argv[0] == "heat":
            argv = argv + ["--output", str(out_path)]
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith("error: ") and message in err
        assert not out_path.exists()

    def test_steep_integrand_no_longer_overflows_the_error_estimate(self, capsys):
        # (200 * gap)^1.5 overflowed on the first panel; the integral itself
        # is (1.7^1000.5 - 0.5^1000.5) / 1000.5, about 3.66e227.
        code, out, _ = run_cli(capsys, "integrate", "--f", "x^1000", "--a", "0.5", "--t", "1.7",
                               "--alpha", "0.5", "--beta", "1")
        assert code == 0
        value = float(out.split(",")[0])
        exact = (1.7**1000.5 - 0.5**1000.5) / 1000.5
        assert abs(value - exact) <= 1e-12 * exact


class TestParserReuse:
    """`main` reuses one parser per process; no call may see another's flags."""

    def test_heat_columns_do_not_carry_over(self, tmp_path, capsys):
        def heat(name, *alphas):
            path = tmp_path / name
            flags = [arg for a in alphas for arg in ("--alpha", a)]
            code, _, _ = run_cli(capsys, "heat", "--L", "1", "--k", "0.01", "--beta", "1",
                                 "--f", "x*(1-x)", "--n-terms", "3", "--t", "1",
                                 "--x-points", "3", "--output", str(path), *flags)
            assert code == 0
            return read_csv(path)[0]

        assert heat("three.csv", "0.4", "0.6", "0.8") == [
            "x", "u_alpha_0.4", "u_alpha_0.6", "u_alpha_0.8"]
        assert heat("one.csv", "0.5") == ["x", "u_alpha_0.5"]

    def test_ode_times_do_not_carry_over(self, capsys):
        common = ["ode", "--mu-sq", "1", "--sign", "plus", "--c", "1",
                  "--alpha", "0.5", "--beta", "1"]
        code, out, _ = run_cli(capsys, *common, "--t", "0.5", "--t", "1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0.5", "1"]
        code, out, _ = run_cli(capsys, *common)
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1"]

    def test_bad_flag_leaves_the_next_call_intact(self, capsys):
        assert run_cli(capsys, "deriv", "--f", "t^2", "--alpha", "0.5", "--nope", "1")[0] == 1
        argv = ["compare", "--f", "t^2+sin(t)", "--alpha", "0.5", "--t", "1.5"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == run_module(*argv).stdout

    def test_import_builds_no_parser(self):
        proc = run_python(
            "-c", "import mfrac.cli; print(mfrac.cli.build_parser.cache_info().currsize)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestColdStart:
    """Importing the CLI loads no module that only some commands need."""

    def test_import_loads_no_dataclasses_inspect_json_or_typing(self):
        # -S keeps the site hooks of the host environment out of sys.modules.
        proc = run_python(
            "-S", "-c",
            "import sys, mfrac.cli; "
            "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_runtime_uses_only_the_standard_library(self, tmp_path):
        # Every subcommand runs in one -S interpreter; afterwards each loaded
        # top-level module must be mfrac, the script itself or part of the
        # standard library.
        out = str(tmp_path)
        calls = [
            ["ml-eval", "--z", "0.7", "--beta", "0.5", "--i", "inf"],
            ["deriv", "--f", "sin(x)", "--alpha", "0.5", "--beta", "2", "--t", "1.2"],
            ["integrate", "--f", "x^2", "--a", "0", "--t", "1", "--alpha", "0.5", "--beta", "1"],
            ["ode", "--mu-sq", "2", "--sign", "minus", "--c", "1", "--alpha", "0.5",
             "--beta", "1", "--t", "0.5"],
            ["heat", "--L", "1", "--k", "0.01", "--alpha", "0.5", "--beta", "1",
             "--f", "x*(1-x)", "--n-terms", "5", "--t", "1", "--x-points", "5",
             "--output", os.path.join(out, "heat.csv")],
            ["compare", "--f", "x^2", "--alpha", "0.5", "--t", "1"],
            ["figures", "--output-dir", out],
        ]
        proc = run_python(
            "-S", "-c",
            "import sys\n"
            "from mfrac import cli\n"
            f"codes = [cli.main(argv) for argv in {calls!r}]\n"
            "top = {name.partition('.')[0] for name in sys.modules}\n"
            "print(codes, sorted(top - set(sys.stdlib_module_names) - {'__main__', 'mfrac'}))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(calls)} []"

    def test_import_mfrac_loads_no_submodule(self):
        proc = run_python(
            "-S", "-c",
            "import sys, mfrac; print(sorted(m for m in sys.modules if m.startswith('mfrac.')))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command,loaded", [("figures", False), ("heat", False),
                                                ("compare", True)])
    def test_only_the_operator_commands_load_the_operators(self, tmp_path, command, loaded):
        argv = {
            "figures": ["figures", "--output-dir", str(tmp_path)],
            "heat": ["heat", "--L", "1", "--k", "0.01", "--alpha", "0.5", "--beta", "1",
                     "--f", "x*(1-x)", "--n-terms", "5", "--t", "1", "--x-points", "5",
                     "--output", str(tmp_path / "heat.csv")],
            "compare": ["compare", "--f", "x^2", "--alpha", "0.5", "--t", "1"],
        }[command]
        proc = run_python(
            "-S", "-c",
            "import sys\n"
            "from mfrac import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, sorted({'mfrac.fracderiv', 'mfrac.fracint', 'mfrac.ode'}"
            " & set(sys.modules)))",
        )
        assert proc.returncode == 0, proc.stderr
        operators = ["mfrac.fracderiv", "mfrac.fracint", "mfrac.ode"] if loaded else []
        assert proc.stdout.splitlines()[-1] == f"0 {operators}"

    def test_deferred_names_resolve_before_any_command(self):
        # benchmarks/tracer.py wraps these names with getattr and setattr on
        # the module before any command has run.
        proc = run_python(
            "-S", "-c",
            "from mfrac import cli, fracderiv, fracint, ode\n"
            "homes = {'fracderiv': fracderiv, 'fracint': fracint, 'ode': ode}\n"
            "print(all(getattr(cli, name) is getattr(homes[home], name)\n"
            "          for name, home in cli._DEFERRED.items()))\n"
            "cli.no_such_name",
        )
        assert proc.stdout.strip() == "True"
        assert proc.stderr.splitlines()[-1] == (
            "AttributeError: module 'mfrac.cli' has no attribute 'no_such_name'"
        )

    def test_deferred_binding_keeps_a_name_bound_before_it(self):
        # A wrapper set before the first command is what that command calls.
        proc = run_python(
            "-S", "-c",
            "from mfrac import cli, fracderiv\n"
            "calls = []\n"
            "def traced(*args):\n"
            "    calls.append(args)\n"
            "    return fracderiv.deriv_closed(*args)\n"
            "cli.deriv_closed = traced\n"
            "code = cli.main(['deriv', '--f', 'x^2', '--alpha', '0.5', '--beta', '1',\n"
            "                 '--t', '1', '--method', 'closed'])\n"
            "print(code, len(calls), cli.deriv_closed is traced,\n"
            "      cli.deriv_limit is fracderiv.deriv_limit)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 1 True True"

    def test_run_freezes_the_heap(self):
        proc = run_python(
            "-S", "-c",
            "import gc, sys\n"
            "from mfrac import cli\n"
            "sys.argv = ['mfrac', 'ml-eval', '--z', '0.5', '--beta', '1', '--i', '3']\n"
            "try:\n"
            "    cli.run()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0)",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"

    def test_config_file_still_loads(self, tmp_path):
        out_path = tmp_path / "o.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0, "f": "50*x*(1-x)",
            "n_terms": 5, "t": 10.0, "x_points": 5, "output": str(out_path),
        }))
        proc = run_module("heat", "--config", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert read_csv(out_path)[0] == ["x", "u_alpha_0.5"]

    def test_bad_json_still_exits_one(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"L": 1.0,')
        proc = run_module("heat", "--config", str(cfg))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "not valid JSON" in proc.stderr


class TestIntegrate:
    def test_weight_cancellation(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--f", "x^0.5", "--a", "1", "--t", "3",
            "--alpha", "0.5", "--beta", "1",
        )
        assert code == 0
        value, err = (float(v) for v in out.split(","))
        assert value == pytest.approx(2.0, abs=1e-10)
        assert err >= 0.0

    def test_empty_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--f", "x", "--a", "2", "--t", "2",
            "--alpha", "0.5", "--beta", "1",
        )
        assert code == 0
        assert out.split(",")[0] == "0.0"

    def test_singular_origin(self, capsys):
        code, out, _ = run_cli(
            capsys, "integrate", "--f", "1", "--a", "0", "--t", "1",
            "--alpha", "0.5", "--beta", "2",
        )
        assert code == 0
        assert float(out.split(",")[0]) == pytest.approx(4.0, abs=1e-9)

    def test_oscillating_integrand_gives_up_at_the_panel_budget(self, capsys):
        # cos(1/x) oscillates without end toward a = 1e-300; the shared
        # 512-panel budget, not a per-integral one, ends the refinement.
        code, out, err = run_cli(
            capsys, "integrate", "--f", "(x^1000)+cos(1/x)", "--a", "1e-300", "--t", "0.5",
            "--alpha", "0.5", "--beta", "2",
        )
        assert code == 2
        assert out == ""
        assert "Traceback" not in err and "after 512 panels" in err


class TestOde:
    def test_table_with_residuals(self, capsys):
        code, out, _ = run_cli(
            capsys, "ode", "--mu-sq", "1", "--sign", "plus", "--c", "1",
            "--alpha", "1", "--beta", "1", "--t", "0.5", "--t", "1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,v,residual"
        t, v, residual = (float(c) for c in lines[2].split(","))
        assert v == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert residual <= 1e-9

    def test_validation_exit(self, capsys):
        code, _, _ = run_cli(
            capsys, "ode", "--mu-sq", "-1", "--sign", "plus", "--c", "1",
            "--alpha", "0.5", "--beta", "1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags,row",
        [
            (["--mu-sq", "0.5", "--c", "-1", "--alpha", "1e-320", "--beta", "0.25",
              "--t", "0.25"], "0.25,-0,0"),
            (["--mu-sq", "1e300", "--c", "1", "--alpha", "1e-10", "--beta", "1",
              "--t", "1"], "1,0,0"),
            (["--mu-sq", "1e308", "--c", "1", "--alpha", "1e-320", "--beta", "3.7",
              "--t", "0.999999"], "0.99999899999999997,0,0"),
            (["--mu-sq", "0.5", "--c", "1e-300", "--alpha", "1e-300", "--beta", "2",
              "--t", "1e-320"], "9.9998886718268301e-321,0,0"),
        ],
        ids=["tiny-alpha", "huge-mu-sq", "overflowing-slope", "overflowing-chain-factor"],
    )
    def test_underflowing_solution_has_zero_derivative(self, capsys, flags, row):
        # The exponent -Gamma(beta+1) * mu^2 * t^alpha / alpha is beyond the
        # doubles and v underflows to 0.  The derivative is then 0, not nan,
        # also where the rate Gamma(beta+1) * mu^2 itself overflows, or the
        # chain-rule factor t^(alpha-1) does.
        code, out, err = run_cli(capsys, "ode", "--sign", "plus", *flags)
        assert (code, err) == (0, "")
        assert out == f"t,v,residual\n{row}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--sign", "plus", "--mu-sq", "1e308", "--c", "1", "--alpha", "1", "--beta", "10",
             "--t", "1e-312"],
            ["--sign", "plus", "--mu-sq", "1e-320", "--c", "3.7", "--alpha", "1e-320",
             "--beta", "1", "--t", "3.7"],
            ["--sign", "minus", "--mu-sq", "1e-320", "--c", "3.7", "--alpha", "1e-320",
             "--beta", "1", "--t", "3.7"],
            ["--sign", "plus", "--mu-sq", "1e-300", "--c", "1", "--alpha", "0.001",
             "--beta", "1", "--t", "1e-310"],
        ],
        ids=["overflowing-rate", "overflowing-clock-plus", "overflowing-clock-minus",
             "overflowing-chain-rule"],
    )
    def test_moderate_exponent_from_extreme_factors(self, capsys, flags):
        # Gamma(beta+1) * mu^2 (3.6e314) or s = t^alpha/alpha (1e320) alone
        # exceeds the doubles, but their product, the exponent, is 362.88 or
        # 1: v is far from 0 and infinity and must be printed right.  The
        # chain-rule factor t^(alpha-1) (10^309.7) alone overflows too, but
        # the derivative behind the residual, about -4.9e9, does not.
        from mpmath import mp

        mp.dps = 30
        code, out, err = run_cli(capsys, "ode", *flags)
        assert (code, err) == (0, "")
        opts = dict(zip(flags[::2], flags[1::2]))
        mu_sq, c, alpha, beta = (float(opts[k]) for k in ("--mu-sq", "--c", "--alpha", "--beta"))
        t, v, residual = (float(cell) for cell in out.splitlines()[1].split(","))
        sign = -1 if opts["--sign"] == "plus" else 1
        want = c * mp.exp(sign * mp.gamma(beta + 1) * mu_sq * mp.mpf(t) ** alpha / alpha)
        assert v == pytest.approx(float(want), rel=1e-9)
        assert residual <= 1e-9 * (1.0 + mu_sq * abs(v))

    def test_exponent_from_an_overflowing_rate_keeps_its_digits(self, capsys):
        # The rate Gamma(11) * 1e308 overflows on its own; carried as mantissa
        # and exponent it gives v to a few ulps and a residual near rounding.
        code, out, err = run_cli(capsys, "ode", "--mu-sq", "1e308", "--sign", "plus", "--c", "1",
                                 "--alpha", "1", "--beta", "10", "--t", "1e-312")
        assert (code, err) == (0, "")
        _, v, residual = (float(cell) for cell in out.splitlines()[1].split(","))
        assert abs(v - 2.5305703031861590e-158) <= 1e-13 * 2.5305703031861590e-158
        assert residual <= 1e-13 * 1e308 * v


class TestHeat:
    def test_config_run_matches_classical_oracle(self, tmp_path, capsys):
        out_path = tmp_path / "heat.csv"
        config = {
            "L": 1.0,
            "k": 0.003,
            "alpha": [0.4, 0.6, 0.8, 1.0],
            "beta": 1.0,
            "f": "50*x*(1-x)",
            "n_terms": 51,
            "t": 150.0,
            "x_points": 41,
            "output": str(out_path),
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["x", "u_alpha_0.4", "u_alpha_0.6", "u_alpha_0.8", "u_alpha_1"]
        assert len(rows) == 41
        column = header.index("u_alpha_1")
        for row in rows:
            expected = classical_heat_series(row[0], 150.0, diffusivity=0.003, n_terms=51)
            assert abs(row[column] - expected) <= 1e-9
        assert rows[0][1:] == [0.0, 0.0, 0.0, 0.0]
        assert rows[-1][1:] == [0.0, 0.0, 0.0, 0.0]

    def test_time_zero_columns_equal_partial_sum(self, tmp_path, capsys):
        out_path = tmp_path / "heat.csv"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "alpha": [0.3, 0.9], "beta": 2.0,
            "f": "50*x*(1-x)", "n_terms": 21, "t": 0.0, "x_points": 11,
            "output": str(out_path),
        }))
        code, _, _ = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 0
        _, rows = read_csv(out_path)
        for row in rows:
            # Exponentials are all 1 at t=0, so every column is the same sum.
            assert row[1] == row[2]

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        cfg.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0,
            "f": "50*x*(1-x)", "n_terms": 11, "t": 10.0, "x_points": 5,
            "output": str(first),
        }))
        code, _, _ = run_cli(capsys, "heat", "--config", str(cfg), "--output", str(second))
        assert code == 0
        assert second.exists() and not first.exists()

    def test_last_grid_point_is_exactly_l(self, tmp_path, capsys):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, above L.
        out_path = tmp_path / "heat.csv"
        code, _, err = run_cli(
            capsys, "heat", "--L", "0.1", "--k", "1", "--alpha", "0.5", "--beta", "1",
            "--f", "x*(0.1-x)", "--t", "1", "--x-points", "4", "--n-terms", "5",
            "--output", str(out_path),
        )
        assert code == 0, err
        _, rows = read_csv(out_path)
        assert rows[-1] == [0.1, 0.0]

    def test_only_the_last_grid_point_is_clamped(self, tmp_path, capsys):
        # 0.9 * 13 / 13 rounds to 0.9000000000000001, above L; the interior
        # points keep their unclamped values 0.9 * i / 13.
        out_path = tmp_path / "heat.csv"
        code, _, err = run_cli(
            capsys, "heat", "--L", "0.9", "--k", "0.01", "--alpha", "0.5", "--alpha", "1",
            "--beta", "2", "--f", "x*(0.9-x)", "--t", "1", "--x-points", "14",
            "--n-terms", "9", "--output", str(out_path),
        )
        assert code == 0, err
        assert 0.9 * 13 / 13 > 0.9
        _, rows = read_csv(out_path)
        xs = [row[0] for row in rows]
        assert [x.hex() for x in xs[:-1]] == [(0.9 * i / 13).hex() for i in range(13)]
        assert xs[-1].hex() == (0.9).hex()
        assert out_path.read_text().splitlines()[-1].startswith("0.90000000000000002,")
        assert rows[-1][1:] == [0.0, 0.0]

    def test_large_profile_meets_its_tolerance(self, tmp_path, capsys):
        # c_1 is about 2.6e11 here, so an absolute 1e-12 is below one ulp of it.
        out_path = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "heat", "--L", "1e6", "--k", "1", "--alpha", "0.5", "--beta", "1",
            "--f", "x*(1e6-x)", "--t", "1", "--n-terms", "3", "--x-points", "3",
            "--output", str(out_path),
        )
        assert code == 0, err
        _, rows = read_csv(out_path)
        assert [row[0] for row in rows] == [0.0, 5e5, 1e6]
        assert rows[0][1] == rows[2][1] == 0.0
        assert math.isfinite(rows[1][1]) and rows[1][1] > 0.0

    def test_unresolvable_profile_exits_two_quickly(self, tmp_path):
        # The panel budget bounds the work: no output, exit 2, in seconds.
        out_path = tmp_path / "o.csv"
        start = time.perf_counter()
        proc = run_module(
            "heat", "--L", "1", "--k", "0.003", "--alpha", "0.5", "--beta", "1",
            "--f", "x*(1-x)*sin(1000000*x)", "--t", "1", "--n-terms", "51",
            "--output", str(out_path),
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "after 512 panels" in proc.stderr
        assert not out_path.exists()
        assert elapsed < 5.0

    def test_close_alphas_get_distinct_columns(self, tmp_path, capsys):
        # Six significant digits print both alphas as 0.5.
        out_path = tmp_path / "o.csv"
        flags = ["heat", "--L", "1", "--k", "0.01", "--beta", "1", "--f", "x*(1-x)", "--t", "1",
                 "--n-terms", "3", "--x-points", "3", "--output", str(out_path)]
        code, _, err = run_cli(capsys, *flags, "--alpha", "0.5", "--alpha", "0.5000001")
        assert code == 0, err
        header, _ = read_csv(out_path)
        assert header == ["x", "u_alpha_0.5", "u_alpha_0.5000001"]
        code, _, err = run_cli(capsys, *flags, "--alpha", "0.5", "--alpha", "0.50")
        assert code == 1
        assert "config key 'alpha' contains duplicate values" in err

    def test_non_finite_profile_named(self, tmp_path, capsys):
        out_path = tmp_path / "o.csv"
        code, _, err = run_cli(
            capsys, "heat", "--L", "1", "--k", "0.003", "--alpha", "0.5", "--beta", "1",
            "--f", "1e308*x*(1-x)*100", "--t", "1", "--output", str(out_path),
        )
        assert code == 1
        assert "initial profile 1e+308*x*(1.0-x)*100.0 is not finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("key,value", [("t", "NaN"), ("L", "Infinity"), ("k", "-Infinity")])
    def test_non_finite_config_number_rejected(self, tmp_path, capsys, key, value):
        out_path = tmp_path / "heat.csv"
        config = {
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0,
            "f": "50*x*(1-x)", "n_terms": 5, "t": 10.0, "x_points": 5,
            "output": str(out_path),
        }
        cfg = tmp_path / "config.json"
        # json.dumps writes NaN and Infinity as the bare tokens Python's reader accepts.
        cfg.write_text(json.dumps(config).replace(f'"{key}": {config[key]}', f'"{key}": {value}'))
        code, _, err = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 1
        assert f"'{key}'" in err and "finite" in err
        assert not out_path.exists()

    def test_bad_number_names_its_key(self, tmp_path):
        proc = run_module(
            "heat", "--L", "-1", "--k", "1", "--alpha", "0.5", "--beta", "1",
            "--f", "x*(1-x)", "--t", "1", "--output", str(tmp_path / "o.csv"),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "'L'" in proc.stderr and "alpha" not in proc.stderr

    @pytest.mark.parametrize("key,value", [
        ("n_terms", 0), ("n_terms", True), ("n_terms", 2.0),
        ("x_points", 1), ("x_points", True), ("x_points", 2.0),
    ])
    def test_bad_count_names_its_key(self, tmp_path, capsys, key, value):
        config = {
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0, "f": "50*x*(1-x)",
            "n_terms": 5, "t": 10.0, "x_points": 5, "output": str(tmp_path / "o.csv"),
            key: value,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 1
        assert f"'{key}'" in err and "alpha" not in err

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"LL": 1.0}))
        code, _, err = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 1
        assert "LL" in err

    def test_missing_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0,
            "f": "50*x*(1-x)", "t": 10.0, "output": str(tmp_path / "o.csv"),
        }))
        cfg2 = tmp_path / "config2.json"
        cfg2.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "beta": 1.0,
            "f": "50*x*(1-x)", "t": 10.0, "output": str(tmp_path / "o.csv"),
        }))
        assert run_cli(capsys, "heat", "--config", str(cfg))[0] == 0
        code, _, err = run_cli(capsys, "heat", "--config", str(cfg2))
        assert code == 1
        assert "alpha" in err

    def test_bad_profile_named(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "k": 0.003, "alpha": 0.5, "beta": 1.0,
            "f": "x",  # does not vanish at x = L
            "t": 10.0, "output": str(tmp_path / "o.csv"),
        }))
        code, _, err = run_cli(capsys, "heat", "--config", str(cfg))
        assert code == 1
        assert "boundary" in err


class TestFigures:
    def test_files_and_boundary_rows(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "figures", "--output-dir", str(tmp_path / "figs"))
        assert code == 0
        for name in ("figure1.csv", "figure2.csv", "figure3.csv"):
            header, rows = read_csv(tmp_path / "figs" / name)
            assert header[0] == "x"
            assert len(header) == 6
            assert len(rows) == 201
            assert all(v == 0.0 for v in rows[0][1:])
            assert all(v == 0.0 for v in rows[-1][1:])

    def test_one_projection_serves_all_figures(self, tmp_path, capsys, monkeypatch):
        calls = []
        project = cli.fourier_coeffs

        def counting(prob):
            calls.append(prob)
            return project(prob)

        monkeypatch.setattr(cli, "fourier_coeffs", counting)
        code, _, _ = run_cli(capsys, "figures", "--output-dir", str(tmp_path))
        assert code == 0
        assert len(calls) == 1
        assert sorted(os.listdir(tmp_path)) == ["figure1.csv", "figure2.csv", "figure3.csv"]

    def test_one_series_pass_equals_one_pass_per_figure(self):
        groups = []
        for beta in (0.5, 1.0, 2.0):
            problems, t, xs = cli._heat_setup({
                "L": 1.3, "k": 0.01, "alpha": [0.3, 0.7, 1.0], "beta": beta,
                "f": "x*(1.3-x)*exp(x)", "n_terms": 17, "t": 2.5, "x_points": 41,
            })
            groups.append(problems)
        coefficients = cli.fourier_coeffs(groups[0][0])
        together = cli._heat_tables(groups, t, xs, coefficients)
        for group, table in zip(groups, together):
            [alone] = cli._heat_tables([group], t, xs, coefficients)
            assert table == alone

    def test_io_error_exits_three(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "figures", "--output-dir", str(blocker))
        assert code == 3
        assert "error" in err


class TestCompare:
    def test_table_relationships(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--f", "t^2", "--alpha", "0.5", "--t", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,value,abs_deviation_from_beta1_closed"
        cells = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        # Identical parameters must give byte-identical output rows.
        assert cells["conformable"] == cells["generalized(i=1)"]
        assert cells["m_fractional(beta=1)"] == cells["alternative"]
        gen20 = float(cells["generalized(i=20)"][0])
        alt = float(cells["alternative"][0])
        assert abs(gen20 - alt) <= 1e-10
        closed = float(cells["closed_beta1"][0])
        assert closed == pytest.approx(2.0, rel=1e-13)

    def test_beta_rows_deviate_by_gamma_ratio(self, capsys):
        _, out, _ = run_cli(capsys, "compare", "--f", "t^2", "--alpha", "0.5", "--t", "1")
        cells = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        half = float(cells["m_fractional(beta=0.5)"][0])
        expected = 2.0 / math.gamma(1.5)
        assert half == pytest.approx(expected, rel=1e-6)


class TestExitCodes:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_stdout_flush_exits_three(self):
        # With stdout buffered, the write fails only when run() flushes it.
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "mfrac", "compare", "--f", "x^2", "--alpha", "0.5",
                 "--t", "1"],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ")

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "nope")[0] == 1

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "ml-eval", "--z", "1")[0] == 1
