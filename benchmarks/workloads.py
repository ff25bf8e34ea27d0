"""Seeded operation streams for the in-process workloads, and the
independent references every operation is checked against.

An operation is a `mfrac` command line.  The stream for a workload is a pure
function of the seed, so the worker that times the operations and the code
that checks them draw the same inputs.  References never call into `mfrac`:
heat rows come from the analytic sine series, the figure column from the
classical series, and the calculus commands from mpmath.  mpmath is imported
only inside the calculus checks, after timing has ended.  Inputs on which
the program is known to fail are held out of the timed stream and run apart
from it; see `held_out`.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import random
import statistics
from dataclasses import dataclass

WORKLOADS = ("figures", "heat_grid", "calculus")
# A timed loop stops once its operations add up to the run length and at
# least this many were timed, so that a p99 can be interpolated.
MIN_TIMED_OPS = 2

# One shuffled deck per block of twelve calculus operations keeps the kind
# shares identical for every seed; only the order and the inputs vary.
CALCULUS_DECK = (
    ("deriv",) * 3 + ("compare",) + ("integrate_a0",) * 2 + ("integrate_a",) * 2
    + ("ode",) * 2 + ("ml_eval",) * 2
)
# (n_terms, x_points, number of alphas): every block of six heat operations
# runs each size once, in seeded order, so the size mix is the same for every
# seed and the median operation does not drift with it.
HEAT_SIZES = ((11, 1401, 5), (15, 2001, 4), (19, 1001, 6), (23, 1801, 4), (27, 1201, 6),
              (31, 1601, 5))
BETA_CHOICES = ("0.5", "1", "2", "uniform")
TRUNC_CHOICES = ("1", "3", "10", "inf")

# Tolerances of the reference checks.  The library's own targets are 1e-10
# for quadrature, 1e-12 for the kernel sum and the heat coefficients, and
# 1e-5 for the closed-versus-limit agreement printed by `deriv --method both`.
TOL_VALUE = 1e-9
TOL_LIMIT = 1e-5
TOL_KERNEL = 1e-12
TOL_HEAT = 1e-9

# An ml-eval input is timed only if its alternating sum cancels by at most
# this factor: half the library's own limit of 32, so that rounding cannot
# carry a timed input across that limit.
ML_CANCELLATION_HOLD = 16.0
# Held-out operations run after each timed loop, untimed, so that the
# failures they show stay visible in every run.
HELD_OUT_OPS = {"heat_grid": 3, "calculus": 24}


@dataclass
class Op:
    """One command: its kind, its arguments, and what its check needs."""

    kind: str
    argv: list
    spec: dict


# ---------------------------------------------------------------- generators


def _smooth_expr(rng: random.Random):
    """A signed sum of 1-3 products of smooth atoms, rendered twice: in the
    mfrac grammar and as a Python expression over mpmath (`mp`)."""
    mf_terms, mp_terms, nodes = [], [], 0
    for _ in range(rng.randint(1, 3)):
        coef = round(rng.uniform(0.2, 3.0), 2)
        mf, mp_ = [repr(coef)], [repr(coef)]
        for _ in range(rng.randint(1, 2)):
            a = round(rng.uniform(-1.5, 1.5), 2) or 0.5
            kind = rng.choice(("x", "x2", "x3", "sin", "cos", "exp", "sqrt", "ln"))
            m, p, n = {
                "x": ("x", "x", 1),
                "x2": ("x^2", "x**2", 3),
                "x3": ("x^3", "x**3", 3),
                "sin": (f"sin({a}*x)", f"mp.sin({a}*x)", 4),
                "cos": (f"cos({a}*x)", f"mp.cos({a}*x)", 4),
                "exp": (f"exp({a}*x)", f"mp.exp({a}*x)", 4),
                "sqrt": ("sqrt(1+x^2)", "mp.sqrt(1+x**2)", 6),
                "ln": ("ln(1+x^2)", "mp.log(1+x**2)", 6),
            }[kind]
            mf.append(m)
            mp_.append(p)
            nodes += n + 1
        sign = rng.choice(("+", "-"))
        if mf_terms or sign == "-":
            mf_terms.append(sign)
            mp_terms.append(sign)
        mf_terms.append("*".join(mf))
        mp_terms.append("*".join(mp_))
    return " ".join(mf_terms), " ".join(mp_terms), nodes


def _beta(rng):
    choice = rng.choice(BETA_CHOICES)
    value = float(choice) if choice != "uniform" else round(rng.uniform(0.3, 3.0), 3)
    return choice, value


def _calculus_op(kind: str, rng: random.Random) -> Op:
    alpha = round(rng.uniform(0.05, 0.95), 4)
    beta_choice, beta = _beta(rng)
    trunc = rng.choice(TRUNC_CHOICES)
    spec = {"alpha": alpha, "beta": beta, "beta_choice": beta_choice}
    if kind == "ml_eval":
        z = round(rng.uniform(-3.0, 3.0), 4)
        spec.update(z=z, trunc=trunc)
        return Op(kind, ["ml-eval", "--z", repr(z), "--beta", repr(beta), "--i", trunc], spec)
    if kind == "ode":
        mu_sq = round(rng.uniform(0.1, 3.0), 4)
        sign = rng.choice(("plus", "minus"))
        c = round(rng.uniform(-5.0, 5.0), 3)
        ts = [round(rng.uniform(0.1, 3.0), 4) for _ in range(rng.randint(1, 4))]
        spec.update(mu_sq=mu_sq, sign=sign, c=c, ts=ts)
        argv = ["ode", "--mu-sq", repr(mu_sq), "--sign", sign, "--c", repr(c),
                "--alpha", repr(alpha), "--beta", repr(beta)]
        for t in ts:
            argv += ["--t", repr(t)]
        return Op(kind, argv, spec)
    f_mf, f_mp, nodes = _smooth_expr(rng)
    t = round(rng.uniform(0.2, 3.0), 4)
    spec.update(f=f_mp, nodes=nodes, t=t)
    if kind == "deriv":
        spec["trunc"] = trunc
        return Op(kind, ["deriv", "--f", f_mf, "--alpha", repr(alpha), "--beta", repr(beta),
                         "--i", trunc, "--t", repr(t), "--method", "both"], spec)
    if kind == "compare":
        return Op(kind, ["compare", "--f", f_mf, "--alpha", repr(alpha), "--t", repr(t)], spec)
    a = 0.0 if kind == "integrate_a0" else round(rng.uniform(0.1, 1.0), 4)
    if a:
        t = round(a + rng.uniform(0.1, 2.0), 4)
    spec.update(a=a, t=t)
    return Op(kind, ["integrate", "--f", f_mf, "--a", repr(a), "--t", repr(t),
                     "--alpha", repr(alpha), "--beta", repr(beta)], spec)


def _heat_op(rng: random.Random, n_terms: int, x_points: int, n_alphas: int) -> Op:
    """The profile b sin(m pi x / L) has one known sine coefficient, so the
    exact series is b sin(m pi x / L) exp(-rate_m t^alpha).  Low modes keep
    the projection a small share of the call, as for smooth profiles."""
    length = round(rng.uniform(0.5, 3.0), 3)
    mode = rng.randint(1, 3)
    amp = round(rng.choice((-1, 1)) * rng.uniform(0.5, 5.0), 3)
    alphas = [a / 1000 for a in sorted(rng.sample(range(50, 1001), n_alphas))]
    beta_choice, beta = _beta(rng)
    k = round(rng.uniform(0.001, 0.01), 5)
    t = round(rng.uniform(1.0, 100.0), 3)
    argv = ["heat", "--L", repr(length), "--k", repr(k), "--beta", repr(beta),
            f"--f={amp!r}*sin({mode * math.pi / length!r}*x)", "--n-terms", str(n_terms),
            "--t", repr(t), "--x-points", str(x_points)]
    for a in alphas:
        argv += ["--alpha", repr(a)]
    spec = {"L": length, "k": k, "beta": beta, "beta_choice": beta_choice, "t": t,
            "mode": mode, "amp": amp, "alphas": alphas, "n_terms": n_terms,
            "x_points": x_points}
    return Op("heat", argv, spec)


def held_out(op: Op):
    """Why `op` is kept out of the timed loop, or None.

    Two input classes are held out, because the program fails on them:
    - `heat_endpoint`: the last grid point `L*(n-1)/(n-1)` rounds above L,
      and `heat` exits 1 (a defect in `cli._heat_table`).
    - `ml_cancellation`: the alternating Mittag-Leffler sum cancels by more
      than ML_CANCELLATION_HOLD.  With i = inf, `ml-eval` exits 2 beyond its
      own limit of 32; with a finite i it has no guard and may miss its
      target with exit code 0 (ROADMAP item 4).
    Held-out inputs are run after the timed loop; see `held_out_ops`.
    """
    s = op.spec
    if op.kind == "heat":
        n = s["x_points"] - 1
        if s["L"] * n / n > s["L"]:
            return "heat_endpoint"
    if op.kind == "ml_eval" and _ml_cancellation(s["z"], s["beta"], s["trunc"]) > ML_CANCELLATION_HOLD:
        return "ml_cancellation"
    return None


def _ml_cancellation(z: float, beta: float, trunc: str) -> float:
    """Sum of |terms| over |sum| of z^k / Gamma(beta k + 1), in floats; 1 when
    nothing cancels.  With i = inf and beta = 1 the library sums exp(-z) and
    inverts it, so nothing cancels either."""
    if z >= 0.0 or (trunc == "inf" and beta == 1.0):
        return 1.0
    total = abs_sum = 1.0
    last = int(trunc) if trunc != "inf" else 500
    for k in range(1, last + 1):
        mag = math.exp(k * math.log(-z) - math.lgamma(beta * k + 1.0))
        total += -mag if k % 2 else mag
        abs_sum += mag
        if trunc == "inf" and mag < 1e-17 * abs_sum:
            break
    return abs_sum / abs(total) if total else math.inf


def _stream(workload: str, seed: int):
    """Endless seeded stream of (operation, held-out reason or None).  A
    held-out operation is followed by a fresh draw of the same kind and size,
    so kind shares and sizes are the same with or without hold-outs."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "heat_grid":
            sizes = rng.sample(HEAT_SIZES, len(HEAT_SIZES))
            block = [functools.partial(_heat_op, rng, *size) for size in sizes]
        else:
            deck = list(CALCULUS_DECK)
            rng.shuffle(deck)
            block = [functools.partial(_calculus_op, kind, rng) for kind in deck]
        for draw in block:
            while True:
                op = draw()
                reason = held_out(op)
                yield op, reason
                if reason is None:
                    break


def operations(workload: str, seed: int):
    """Endless seeded stream of the operations an in-process workload times;
    `figures` has a single fixed input and needs none."""
    return (op for op, reason in _stream(workload, seed) if reason is None)


def held_out_ops(workload: str, seed: int):
    """The first HELD_OUT_OPS[workload] held-out operations of the seed's
    stream, with why each is held out."""
    held = ((op, reason) for op, reason in _stream(workload, seed) if reason)
    return list(itertools.islice(held, HELD_OUT_OPS.get(workload, 0)))


def shape(ops) -> dict:
    """Operation-kind shares and size distribution of the operations run,
    so that runs with different seeds can be shown to share one shape."""
    ops = list(ops)
    out = {"ops": len(ops)}

    def shares(values):
        values = list(values)
        return {v: round(values.count(v) / len(values), 4) for v in sorted(set(values))}

    def spread(values):
        values = list(values)
        return {"min": min(values), "median": statistics.median(values), "max": max(values),
                "mean": round(statistics.fmean(values), 3)}

    out["kinds"] = shares(op.kind for op in ops)
    with_beta = [op for op in ops if "beta_choice" in op.spec]
    if with_beta:
        out["beta"] = shares(op.spec["beta_choice"] for op in with_beta)
    with_trunc = [op.spec["trunc"] for op in ops if "trunc" in op.spec]
    if with_trunc:
        out["i"] = shares(with_trunc)
    with_nodes = [op.spec["nodes"] for op in ops if "nodes" in op.spec]
    if with_nodes:
        out["expr_nodes"] = spread(with_nodes)
    if ops[0].kind == "heat":
        for key in ("n_terms", "x_points"):
            out[key] = spread(op.spec[key] for op in ops)
        out["alphas"] = spread(len(op.spec["alphas"]) for op in ops)
        out["mode"] = shares(op.spec["mode"] for op in ops)
    return out


# ---------------------------------------------------------------- checks
#
# A check returns None when the output meets its reference, else a short
# reason.  Only outputs of commands that exited 0 are checked here.


def crashed(code, err):
    """An untyped exception or an undocumented exit code: the run that saw it
    is reported as not correct, beyond counting the operation as failed."""
    return code not in (0, 1, 2, 3) or "Traceback" in err


def _rows(text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [[float(v) for v in row] for row in reader]


def check_heat(op: Op, text: str):
    s = op.spec
    header, rows = _rows(text)
    if header != ["x"] + [f"u_alpha_{a:g}" for a in s["alphas"]]:
        return f"header {header}"
    if len(rows) != s["x_points"]:
        return f"{len(rows)} rows"
    length = s["L"]
    bound = TOL_HEAT * (1.0 + abs(s["amp"]))
    rate = math.gamma(s["beta"] + 1.0) * (s["mode"] * math.pi / length) ** 2 * s["k"]
    for i, row in enumerate(rows):
        x = length * i / (s["x_points"] - 1)
        if row[0] != x:
            return f"row {i}: x = {row[0]!r}"
        for alpha, got in zip(s["alphas"], row[1:]):
            want = (s["amp"] * math.sin(s["mode"] * math.pi * x / length)
                    * math.exp(-rate / alpha * s["t"] ** alpha))
            if abs(got - want) > bound:
                return f"x={x!r} alpha={alpha}: {got!r} != {want!r}"
    return None


def classical_figure_column(text: str):
    """Check the alpha = 1 column of figure2.csv (beta = 1) against the
    classical series of 50 x (1 - x): b_n = 400 / (n pi)^3 for odd n."""
    header, rows = _rows(text)
    col = header.index("u_alpha_1")
    for row in rows:
        x = row[0]
        want = sum(
            400.0 / (n * math.pi) ** 3 * math.sin(n * math.pi * x)
            * math.exp(-0.003 * (n * math.pi) ** 2 * 150.0)
            for n in range(1, 52, 2)
        )
        if abs(row[col] - want) > TOL_HEAT:
            return f"x={x!r}: {row[col]!r} != {want!r}"
    return None


def _close(got, want, tol):
    return abs(got - float(want)) <= tol * (1.0 + abs(float(want)))


def check_calculus(op: Op, out: str):
    import mpmath as mp

    mp.mp.dps = 20
    s = op.spec
    if op.kind == "ml_eval":
        return _check_ml(s, float(out), mp)
    if op.kind == "ode":
        scale = mp.gamma(s["beta"] + 1)
        coeff = -scale * s["mu_sq"] / s["alpha"] * (1 if s["sign"] == "plus" else -1)
        _, rows = _rows(out)
        if [r[0] for r in rows] != s["ts"]:
            return "sample times"
        for t, v, residual in rows:
            want = s["c"] * mp.exp(coeff * mp.mpf(t) ** s["alpha"])
            if not _close(v, want, TOL_KERNEL * 10):
                return f"v({t}) = {v!r} != {mp.nstr(want, 17)}"
            if residual > TOL_VALUE * (1.0 + s["mu_sq"] * abs(v)):
                return f"residual {residual!r} at t={t}"
        return None
    f = eval(f"lambda x: {s['f']}", {"mp": mp})
    alpha, t = mp.mpf(s["alpha"]), mp.mpf(s["t"])
    if op.kind.startswith("integrate"):
        lo, hi = mp.mpf(s["a"]), t
        if s["a"] == 0.0:
            # x = u^(1/alpha) removes the endpoint singularity analytically.
            want = mp.quad(lambda u: f(u ** (1 / alpha)) / alpha, [0, t ** alpha])
        else:
            want = mp.quad(lambda x: f(x) * x ** (alpha - 1), [lo, hi])
        want *= mp.gamma(s["beta"] + 1)
        got = float(out.split(",")[0])
        return None if _close(got, want, TOL_VALUE) else f"{got!r} != {mp.nstr(want, 17)}"
    slope = t ** (1 - alpha) * mp.diff(f, t)
    if op.kind == "deriv":
        closed, limit, _ = (float(v) for v in out.split(","))
        want = slope / mp.gamma(s["beta"] + 1)
        if not _close(closed, want, TOL_VALUE):
            return f"closed {closed!r} != {mp.nstr(want, 17)}"
        if not _close(limit, want, TOL_LIMIT):
            return f"limit {limit!r} != {mp.nstr(want, 17)}"
        return None
    # compare: every beta = 1 family matches the closed form; the untruncated
    # kernel with weight beta is that value divided by Gamma(beta + 1).
    reader = csv.reader(io.StringIO(out))
    next(reader)
    for label, value, _ in reader:
        beta = float(label.split("=")[1].rstrip(")")) if label.startswith("m_frac") else 1.0
        want = slope / mp.gamma(beta + 1)
        tol = TOL_VALUE if label == "closed_beta1" else TOL_LIMIT
        if not _close(float(value), want, tol):
            return f"{label}: {value} != {mp.nstr(want, 17)}"
    return None


def _check_ml(s, got, mp):
    # The alternating sums cancel by up to ~17 digits on this domain.
    mp.mp.dps = 45
    z, beta = mp.mpf(s["z"]), mp.mpf(s["beta"])
    total, k = mp.mpf(0), 0
    while True:
        term = z ** k * mp.rgamma(beta * k + 1)
        total += term
        k += 1
        if s["trunc"] != "inf" and k > int(s["trunc"]):
            break
        if s["trunc"] == "inf" and k > 5 and abs(term) < mp.mpf(10) ** -35 * (1 + abs(total)):
            break
    if abs(got - total) <= TOL_KERNEL * abs(total):
        return None
    return f"{got!r} != {mp.nstr(total, 17)}"
