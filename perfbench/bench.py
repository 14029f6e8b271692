"""Closed-loop measurement of one workload, its checks and its report.

One caller runs one operation at a time in this process, as a CLI or
library user drives the solver. Untraced runs (``--trace 0``) report the
end-to-end metrics, with operation times in reference seconds: wall time
scaled by the host's speed, which ``reference`` measures between the
operations; set-up time is scaled the same way. Wall-time figures are
printed beside them. Traced runs
(``--trace 1``) run every operation both untraced and under
``spans.patched``, alternating which comes first, and report the per-layer
metrics, the tracing overhead, and whether both runs gave identical results.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import powersched.flow
import powersched.pipeline
from powersched.rational import Rat

import checks
import reference
import spans
from corpus import WORKLOADS, SolveOp, make_corpus, warmup_op

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
SETUP_REPEATS = 3
SETUP_KERNEL_RUNS = 10  # reference-kernel timings after each corpus build

# setup_s, like the operation times, is in reference seconds (see setup)
END_TO_END = {
    "ops_per_ref_s": "1/ref_s", "op_ref_s.p50": "ref_s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in spans.TIME_METRICS},
    "pipeline.self_s": "s",
    **{name: "count" for name in spans.COUNT_METRICS},
    "extend.flow_calls_per_slot": "ratio",
    "pipeline.energy_ratio": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.overhead": "frac",
}


class OpTimeout(Exception):
    """An operation ran past its workload's time budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def time_budget(seconds: float):
    """Raise OpTimeout in the block once it has run for ``seconds``."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class OpRecord:
    index: int
    seconds: float
    status: str  # ok | timeout | error | wrong
    detail: str = ""
    ref_seconds: float = 0.0  # seconds scaled by the host's speed
    summary: tuple | None = None  # what traced and untraced runs must share
    lp_check: tuple | None = None  # (instance, points, exact LP objective)
    energy: int = 0


def _call(op, tracer):
    if isinstance(op, SolveOp):
        name = spans.ROOT_SOLVE
        fn = lambda: powersched.pipeline.solve_instance(op.instance, op.config)
    else:
        name = "flow.check"
        fn = lambda: powersched.flow.check_feasible(op.instance, op.supply)
    if tracer is None:
        return fn()
    with tracer.span(name):
        return fn()


def _record(k: int, op, out, seconds: float) -> OpRecord:
    """Check one result; keep only what the report and later checks need."""
    if isinstance(op, SolveOp):
        problems = checks.check_solve(out)
        rec = OpRecord(k, seconds, "ok",
                       summary=(str(out.lp_objective), out.energy, out.mode,
                                out.chosen),
                       lp_check=(op.instance, out.points, out.lp_objective),
                       energy=out.energy)
    else:
        problems = checks.check_verdict(op.instance, op.supply, out)
        rec = OpRecord(k, seconds, "ok",
                       summary=(out.feasible, out.flow_value, out.deficiency,
                                str(out.witness)))
    if problems:
        rec.status, rec.detail = "wrong", "; ".join(problems)
    return rec


def run_op(workload, op, k: int, tracer=None) -> OpRecord:
    """Run, time and check one operation; failures are recorded."""
    if tracer is not None:
        tracer.op = k
    out, status, detail = None, "ok", ""
    start = time.perf_counter()
    try:
        with time_budget(workload.budget_s):
            out = _call(op, tracer)
    except OpTimeout:
        status = "timeout"
    except Exception:  # a crashing operation is a counted failure
        status, detail = "error", traceback.format_exc(limit=-4)
    seconds = time.perf_counter() - start
    if status == "ok" and seconds > workload.budget_s:
        status = "timeout"
    if status != "ok":
        return OpRecord(k, seconds, status, detail)
    return _record(k, op, out, seconds)


def check_lps(records: list[OpRecord]) -> None:
    """Compare every exact LP objective with HiGHS (after the timing)."""
    for rec in records:
        if rec.status == "ok" and rec.lp_check is not None:
            problems = checks.check_lp(*rec.lp_check)
            if problems:
                rec.status, rec.detail = "wrong", "; ".join(problems)


def _rate(records: list[OpRecord]) -> float:
    ok = sum(1 for r in records if r.status == "ok")
    return ok / sum(r.seconds for r in records)


def timed(workload, ops, seconds: float):
    """Operations in corpus order until ``seconds`` of operation time are
    spent, each followed by one timing of the reference kernel.

    An operation's time in reference seconds is its wall time times the
    host's speed over the run. Returns the records and that speed.
    """
    records: list[OpRecord] = []
    kernel_times: list[float] = []
    spent = 0.0
    while not records or spent < seconds:
        records.append(run_op(workload, ops[len(records) % len(ops)],
                              len(records)))
        spent += records[-1].seconds
        kernel_times.append(reference.time_kernel())
    speed = reference.host_speed(kernel_times)
    for rec in records:
        rec.ref_seconds = rec.seconds * speed
    return records, speed


def energy_ratio(records: list[OpRecord]) -> float | None:
    """Sum of energies over sum of exact LP objectives of the solves."""
    solved = [r for r in records if r.status == "ok" and r.lp_check]
    lp = sum((Fraction(r.lp_check[2]) for r in solved), Fraction(0))
    return float(sum(r.energy for r in solved) / lp) if lp else None


def environment() -> dict:
    """What a result depends on besides the code; never compare across
    different rational backends."""
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "rational": f"{Rat.__module__}.{Rat.__qualname__}",
        "scipy": scipy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def setup(workload, seed: int, import_s: float):
    """Generate the corpus and warm up, several times. Returns the corpus,
    the imports plus the median build in wall seconds, and the host's speed
    from kernel timings between the builds."""
    times: list[float] = []
    kernel_times: list[float] = []
    warm = warmup_op(workload)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = make_corpus(workload, seed)
        _call(warm, None)
        times.append(time.perf_counter() - start)
        kernel_times += [reference.time_kernel()
                         for _ in range(SETUP_KERNEL_RUNS)]
    return (ops, import_s + statistics.median(times),
            reference.host_speed(kernel_times))


def wall_metrics(records) -> dict[str, float]:
    return {
        "ops_per_s": _rate(records),
        "op_s.p50": statistics.median(r.seconds for r in records),
    }


def end_to_end(records, setup_s: float) -> dict[str, float]:
    """Operation and set-up times in reference seconds."""
    ok = sum(1 for r in records if r.status == "ok")
    return {
        "ops_per_ref_s": ok / sum(r.ref_seconds for r in records),
        "op_ref_s.p50": statistics.median(r.ref_seconds for r in records),
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def p90_line(records) -> str:
    """The 90th percentile of operation time, with its sample count.

    Printed but not in the JSON result, whose metrics every workload must
    report under one bound: on the solve workloads the tail moves with the
    few slowest LPs a seed happens to draw.
    """
    times = [r.seconds for r in records]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 \
        else times[0]
    beyond = sum(1 for t in times if t > p90)
    return (f"op_s.p90 = {p90:.6g} s ({len(times)} samples, "
            f"{beyond} beyond it)")


def traced(workload, ops, seconds: float):
    """Each operation untraced and traced, in alternating order, so that
    drift during the run cancels out of the overhead; per-layer metrics."""
    count = workload.count_ops
    tracer = spans.Tracer()
    plain: list[OpRecord] = []
    traced_recs: list[OpRecord] = []
    spent = 0.0
    k = 0
    while k < count or spent < seconds / 2:
        op = ops[k % len(ops)]
        for with_trace in (k % 2 == 1, k % 2 == 0):
            if with_trace:
                with spans.patched(tracer):
                    traced_recs.append(run_op(workload, op, k, tracer))
            else:
                plain.append(run_op(workload, op, k))
        spent += plain[-1].seconds
        k += 1
    for a, b in zip(plain, traced_recs):
        if a.status == b.status == "ok" and a.summary != b.summary:
            b.status = "wrong"
            b.detail = f"traced result {b.summary} != untraced {a.summary}"
    metrics = spans.layer_metrics(tracer, count)
    metrics["pipeline.energy_ratio"] = energy_ratio(plain[:count]) or 0.0
    metrics["trace.ops_per_s"] = _rate(traced_recs)
    metrics["trace.overhead"] = 1 - _rate(traced_recs) / _rate(plain)
    return plain, traced_recs, metrics, tracer.spans


def main(argv, import_s: float) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    env = environment()
    ops, setup_wall_s, setup_speed = setup(workload, args.seed, import_s)
    if args.trace:
        plain, traced_recs, metrics, span_list = traced(workload, ops,
                                                        args.seconds)
        records = plain + traced_recs
        units = PER_LAYER_UNITS
        check_lps(plain)
    else:
        records, speed = timed(workload, ops, args.seconds)
        plain = records
        # before the LP check, whose scipy import would count in peak RSS
        metrics = end_to_end(records, setup_wall_s * setup_speed)
        wall = wall_metrics(records)
        span_list = None
        units = END_TO_END
        check_lps(plain)

    failed = [r for r in records if r.status != "ok"]
    correct = not any(r.status in ("wrong", "error") for r in records)
    ratio = energy_ratio(plain)
    lines = [
        f"env {json.dumps(env)}",
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(records)} ops ({len(plain)} per pass), {len(failed)} failed",
        f"failed_frac = {len(failed) / len(records):.4f}",
    ]
    if ratio is not None:
        lines.append(f"energy_ratio = {ratio:.6f} (sum energy / sum LP)")
    else:
        infeasible = sum(1 for r in plain if r.summary and not r.summary[0])
        lines.append(f"infeasible verdicts = {infeasible} of {len(plain)}")
    lines += [f"{name} = {value:.6g} {units[name]}"
              for name, value in metrics.items()]
    if not args.trace:
        lines += [
            f"host speed = {speed:.4f} (reference kernel "
            f"{reference.KERNEL_REF_S * 1e3:.3f} ms / its mean over "
            f"{len(records)} timings in this run)",
            f"setup_wall_s = {setup_wall_s:.6g} s (host speed "
            f"{setup_speed:.4f} during set-up)",
            f"ops_per_s = {wall['ops_per_s']:.6g} 1/s (wall)",
            f"op_s.p50 = {wall['op_s.p50']:.6g} s (wall)",
            p90_line(records),
        ]
    lines += [f"FAILED op {r.index}: {r.status} {r.detail}" for r in failed]
    print("\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "env": env, "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "metrics": metrics, "energy_ratio": ratio,
        "host_speed": None if args.trace else speed,
        "setup_wall_s": setup_wall_s, "setup_speed": setup_speed,
        "wall": None if args.trace else wall,
        "attempted": len(records), "failed": len(failed),
        "op_seconds": [r.seconds for r in records], "spans": span_list,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1
