"""Benchmark of the `mfrac` command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload figures --seed 1 --seconds 15 --trace 0

Workloads (see NOTES.md for why each exists):
  figures    `python -m mfrac figures` in a fresh interpreter per operation
  heat_grid  in-process `heat` calls on seeded profiles with known coefficients
  calculus   in-process mix of deriv, compare, integrate, ode and ml-eval

Each workload is a closed loop with one client.  Every operation is checked
against an independent reference outside the timed region.  With `--trace 0`
it prints the end-to-end metrics, whose times are scaled to a reference
machine speed (see clock.py); with `--trace 1` it runs a fixed, seeded
list of operations, each once untraced and once traced, whatever
`--seconds` says, and prints the per-layer metrics, whose work counts
repeat exactly for a seed.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import clock
import workloads
from tracer import LAYERS, layer_of

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SPAWNS = 15
QUICK_SETUP_SPAWNS = 2
WARMUP = {"figures": 1, "heat_grid": len(workloads.HEAT_SIZES),
          "calculus": len(workloads.CALCULUS_DECK)}
TRACE_OPS = {"figures": 3, "heat_grid": 24, "calculus": 480}
QUICK_TRACE_OPS = {"figures": 1, "heat_grid": 2, "calculus": 24}
CHILD_TIMEOUT_S = 150

# Per-layer metrics: times are milliseconds per operation, counts are totals
# over the traced operations.
SPAN_MS = {
    "heat.project_ms": "heat.project",
    "heat.series_ms": "heat.series",
    "cli.csv_ms": "cli.csv",
    "cli.build_parser_ms": "cli.build_parser",
    "expr.parse_ms": "expr.parse",
    "fracderiv.limit_ms": "fracderiv.limit",
    "special.ml_ms": "special.ml",
    "fracint.mfrac_integral_ms": "fracint.mfrac_integral",
    "ode.solve_ms": "ode.solve",
}
LEAF_CALLS = {
    "expr.value_evals": "expr.value",
    "expr.dual_evals": "expr.dual",
    "heat.series_points": "heat.series",
    "special.ml_calls": "special.ml",
}
COUNTS = (
    "heat.coeffs", "heat.series_terms", "fracint.quad_calls", "fracint.panels",
    "fracint.integrand_evals", "fracderiv.quotient_evals", "special.lngamma_calls",
) + tuple(f"{layer}.errors" for layer in LAYERS)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env, spawns):
    """Median time from starting a fresh interpreter to `import mfrac.cli`
    done, scaled and raw.  The loop is timed between spawns; the first spawn
    only warms the file cache."""
    code = "import time, mfrac.cli; print(repr(time.perf_counter()))"
    times, points = [], []
    for index in range(spawns + 1):
        points.append((index, clock.calibrate()))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(proc.stdout) - start)
    points.append((spawns + 1, clock.calibrate()))
    return statistics.median(clock.scale(times, 1, points)), statistics.median(times[1:])


def run_figures(workdir, env, seconds, trace_ops):
    """Closed loop of fresh `python -m mfrac figures` processes.  Traced, each
    timed process is paired with one under tracer.py, which writes its spans
    at exit."""
    warmup = WARMUP["figures"]
    outdir = os.path.join(workdir, "figures")
    durations, misses, crashes, golden = [], [], [], None
    report = {"spans": []}

    def one(cmd, traced=False):
        nonlocal golden
        start = time.perf_counter()
        proc = subprocess.run(cmd + ["figures", "--output-dir", outdir], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if workloads.crashed(proc.returncode, proc.stderr):
            crashes.append(f"figures: {proc.stderr.strip()[-300:]}")
        reason, golden = check_figures(proc, outdir, golden)
        if reason and traced:
            crashes.append(f"figures: traced run differs from untraced run: {reason}")
        elif reason:
            misses.append(f"figures: {reason}")
        return elapsed

    calibration = clock.Calibration()
    timed = traced = 0.0
    while True:
        index = len(durations)
        if index == warmup:
            calibration.mark(index)
        # As in worker.py, traced and untraced processes alternate in order.
        pair = trace_ops and index >= warmup
        if pair:
            report["spans"].append(os.path.join(workdir, f"spans-{index}.json"))
            tracer_cmd = [sys.executable, str(BENCH / "tracer.py"), report["spans"][-1],
                          str(index - warmup)]
        if pair and index % 2:
            traced += one(tracer_cmd, traced=True)
        durations.append(one([sys.executable, "-m", "mfrac"]))
        if pair and not index % 2:
            traced += one(tracer_cmd, traced=True)
        if index >= warmup:
            timed += durations[-1]
            calibration.timed(index, durations[-1])
            enough = index + 1 - warmup >= workloads.MIN_TIMED_OPS
            if index + 1 == warmup + trace_ops or (not trace_ops and timed >= seconds and enough):
                break
    calibration.mark(len(durations))
    report.update(untraced_s=timed, traced_s=traced, calibration=calibration.points)
    report.update(durations=durations, warmup=warmup, attempted=len(durations),
                  failed=len(misses), misses=misses, crashes=crashes,
                  shape={"kinds": {"figures": 1.0}, "ops": len(durations)}, held_out={},
                  rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return report


def check_figures(proc, outdir, golden):
    """Every run must write the same bytes; the first run's beta = 1,
    alpha = 1 column must match the classical series."""
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", golden
    texts = []
    for n in (1, 2, 3):
        with open(os.path.join(outdir, f"figure{n}.csv"), "rb") as handle:
            texts.append(handle.read())
    if golden is None:
        reason = workloads.classical_figure_column(texts[1].decode("ascii"))
        return reason, (texts if reason is None else None)
    return (None if texts == golden else "CSV bytes differ between runs"), golden


def run_worker(workload, workdir, env, seed, seconds, trace_ops):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--warmup", str(WARMUP[workload]), "--trace-ops", str(trace_ops),
           "--workdir", workdir]
    subprocess.run(cmd, env=env, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    with open(os.path.join(workdir, "worker.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    if trace_ops:
        report["spans"] = [os.path.join(workdir, "spans.json")]
    return report


def end_to_end(report, setup_s, timed):
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(timed) / sum(timed), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(timed), "ms"),
        "op_p99_ms": (1e3 * statistics.quantiles(timed, n=100, method="inclusive")[98], "ms"),
        "peak_rss_mb": (report["rss_kb"] / 1024.0, "MB"),
    }


def per_layer(report, n_ops):
    """Per-layer metrics from the span files: span time, self time (a span's
    time minus the time its child spans and leaves cover), calls, counts."""
    span_s, self_s, calls, counts = Counter(), Counter(), Counter(), Counter()
    for path in report["spans"]:
        with open(path, encoding="utf-8") as handle:
            dump = json.load(handle)
        name_of = {sid: name for sid, name, *_ in dump["spans"]}
        covered = Counter()
        for _, _, start, end, parent, _ in dump["spans"]:
            covered[parent] += end - start
        for name, parent, n, total, _ in dump["leaves"]:
            covered[parent] += total
            span_s[name] += total
            self_s[layer_of(name)] += total
            calls[name] += n
            if name == "special.ml" and name_of.get(parent) == "fracderiv.limit":
                counts["fracderiv.quotient_evals"] += n
        for sid, name, start, end, _, _ in dump["spans"]:
            span_s[name] += end - start
            self_s[layer_of(name)] += end - start - covered[sid]
        counts.update(dump["counts"])
    metrics = {m: (1e3 * span_s[name] / n_ops, "ms") for m, name in SPAN_MS.items()}
    metrics.update({f"{layer}.self_ms": (1e3 * self_s[layer] / n_ops, "ms") for layer in LAYERS})
    metrics.update({m: (calls[name], "count") for m, name in LEAF_CALLS.items()})
    metrics.update({m: (counts[m], "count") for m in COUNTS})
    metrics["trace.overhead_ratio"] = (report["traced_s"] / report["untraced_s"], "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: few set-up spawns, few traced operations")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mfrac" / "__init__.py").is_file():
        print(f"error: no mfrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    trace_ops = (QUICK_TRACE_OPS if args.quick else TRACE_OPS)[args.workload] if args.trace else 0
    workdir = tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT)
    try:
        spawns = QUICK_SETUP_SPAWNS if args.quick else SETUP_SPAWNS
        setup_s, setup_wall_s = (None, None) if args.trace else setup_seconds(env, spawns)
        if args.workload == "figures":
            report = run_figures(workdir, env, args.seconds, trace_ops)
        else:
            report = run_worker(args.workload, workdir, env, args.seed, args.seconds, trace_ops)
        if args.trace:
            metrics, wall = per_layer(report, trace_ops), {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        warmup = report["warmup"]
        metrics = end_to_end(report, setup_s,
                             clock.scale(report["durations"], warmup, report["calibration"]))
        wall = end_to_end(report, setup_wall_s, report["durations"][warmup:])
    for name, (value, unit) in metrics.items():
        raw = f"  (wall {wall[name][0]:.6g})" if name in wall and unit != "MB" else ""
        print(f"{name:28s} {value:.6g} {unit}{raw}")
    if args.trace:
        total = sum(metrics[f"{layer}.self_ms"][0] for layer in LAYERS)
        shares = {layer: round(metrics[f"{layer}.self_ms"][0] / total, 4) for layer in LAYERS}
        print("layer_share_of_op_time", json.dumps(shares))
    print(f"{'fail_ratio':28s} {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']})")
    print("shape", json.dumps(report["shape"], sort_keys=True))
    print("held_out", json.dumps(report["held_out"], sort_keys=True))
    for reason in report["crashes"][:5]:
        print(f"crash: {reason}", file=sys.stderr)
    for reason in report["misses"][:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["crashes"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
