"""In-process closed loop: one client calls `mfrac.cli.main` with the next
seeded operation as soon as the previous one returns.

Run from `run.py` in a fresh interpreter, so that the peak resident size it
reports belongs to the library and this loop, not to the checks.  Untraced,
it runs operations until their summed time reaches `--seconds`.  Traced, it
runs a fixed number of operations, each once untraced and once traced, so
that work counts repeat exactly and the two wall times give the overhead.
Afterwards, untimed, it runs the seed's first held-out operations (see
`workloads.held_out`) and reports how many of them fail.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import time
import traceback

import clock
import workloads
from mfrac import cli


def run_one(op, workdir):
    argv = list(op.argv)
    if op.kind == "heat":
        argv += ["--output", os.path.join(workdir, "heat.csv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an untyped exception is itself a finding
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    if code == 0 and op.kind == "heat":
        with open(argv[-1], encoding="ascii") as handle:
            out.write(handle.read())
    return elapsed, code, out.getvalue(), err.getvalue()


def outcome(op, code, out, err):
    """None when the command exited 0 and met its reference, else why not."""
    check = workloads.check_heat if op.kind == "heat" else workloads.check_calculus
    try:
        reason = check(op, out) if code == 0 else f"exit {code}: {err.strip()[-200:]}"
    except (ValueError, IndexError, StopIteration) as exc:
        reason = f"unparseable output ({exc})"
    return reason and f"{op.argv}: {reason}"


def run_traced(tracer, op, op_id, workdir):
    tracer.install()
    tracer.op = op_id
    try:
        return run_one(op, workdir)
    finally:
        tracer.uninstall()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("heat_grid", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--trace-ops", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    # Outputs go to a file as they arrive, so the peak resident size does not
    # grow with the number of operations a run completes.  Heat outputs are
    # large and are checked at once instead, outside the timed call.
    tracer = None
    if args.trace_ops:
        from tracer import Tracer

        tracer = Tracer()
    log_path = os.path.join(args.workdir, "outputs.jsonl")
    durations, misses, crashes = [], [], []
    calibration = clock.Calibration()
    timed = traced = 0.0
    limit = args.warmup + args.trace_ops if args.trace_ops else None
    with open(log_path, "w", encoding="utf-8") as log:
        for index, op in enumerate(workloads.operations(args.workload, args.seed)):
            if index == limit:
                break
            if index == args.warmup:
                calibration.mark(index)
            # Traced, each operation also runs under the tracer, first on odd
            # indices and second on even ones, so that drift and warm caches
            # fall on both sides of the overhead ratio alike.
            pair = tracer is not None and index >= args.warmup
            if pair and index % 2:
                traced_result = run_traced(tracer, op, index - args.warmup, args.workdir)
            elapsed, code, out, err = run_one(op, args.workdir)
            if pair and not index % 2:
                traced_result = run_traced(tracer, op, index - args.warmup, args.workdir)
            if pair:
                traced += traced_result[0]
                if traced_result[1:3] != (code, out):
                    crashes.append(f"{op.argv}: traced run differs from untraced run")
            durations.append(elapsed)
            if op.kind == "heat":
                misses.append(outcome(op, code, out, err))
                out = None
            log.write(json.dumps([code, out, err]) + "\n")
            if index >= args.warmup:
                timed += elapsed
                calibration.timed(index, elapsed)
                enough = index + 1 - args.warmup >= workloads.MIN_TIMED_OPS
                if limit is None and timed >= args.seconds and enough:
                    break
    report = {"warmup": args.warmup, "durations": durations,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    calibration.mark(len(durations))
    held = [(op, reason) + run_one(op, args.workdir)[1:]
            for op, reason in workloads.held_out_ops(args.workload, args.seed)]
    report["calibration"] = calibration.points
    if tracer is not None:
        tracer.dump(os.path.join(args.workdir, "spans.json"))
        report.update(untraced_s=timed, traced_s=traced)

    with open(log_path, encoding="utf-8") as log:
        records = [json.loads(line) for line in log]
    ops = list(itertools.islice(workloads.operations(args.workload, args.seed), len(records)))
    crashes += [f"{op.argv}: {err.strip()[-300:]}" for op, (code, _, err) in zip(ops, records)
                if workloads.crashed(code, err)]
    if args.workload == "calculus":
        misses = [outcome(op, code, out, err) for op, (code, out, err) in zip(ops, records)]
    misses = [m for m in misses if m]
    held_out = {}
    for op, reason, code, out, err in held:
        if workloads.crashed(code, err):
            crashes.append(f"{op.argv}: {err.strip()[-300:]}")
        tally = held_out.setdefault(reason, {"run": 0, "failed": 0, "first_failure": None})
        tally["run"] += 1
        miss = outcome(op, code, out, err)
        if miss:
            tally["failed"] += 1
            tally["first_failure"] = tally["first_failure"] or miss
    report.update(attempted=len(ops), failed=len(misses), misses=misses, crashes=crashes,
                  shape=workloads.shape(ops), held_out=held_out)
    with open(os.path.join(args.workdir, "worker.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    main()
