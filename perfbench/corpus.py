"""Seeded inputs for the benchmark workloads.

Each workload turns a seed into a list of operations. The same seed always
gives the same operations; the solver only ever sees the generated inputs.
Instance shapes rotate deterministically with the operation index, so two
seeds differ in their job windows, not in the mix of sizes. That keeps the
run-to-run spread of the throughput figures down to what the windows cause,
and the instances are small enough that one run averages over hundreds of
them.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from powersched.core import Instance, Interval
from powersched.gen import generate_instance
from powersched.pipeline import PipelineConfig
from powersched.rational import as_rat

# the five unit jobs of the paper's integrality-gap example; a fixed input
# for the warm-up so that set-up time does not depend on the seed
WARMUP_JOBS = [(0, 1, 1), (1, 7, 1), (2, 4, 1), (4, 6, 1), (7, 8, 1)]


@dataclass(frozen=True)
class SolveOp:
    """One ``solve_instance`` call."""

    instance: Instance
    config: PipelineConfig


@dataclass(frozen=True)
class CheckOp:
    """One ``check_feasible`` call on an m-machine supply."""

    instance: Instance
    supply: tuple[Interval, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "solve" | "check"
    budget_s: float  # an operation running longer than this fails
    count_ops: int  # per-layer figures average over this many first ops
    pool: int  # operations generated per run; the loop cycles through them


WORKLOADS = {
    w.name: w for w in (
        Workload("solve-small", "solve", budget_s=10.0, count_ops=24,
                 pool=720),
        Workload("solve-restricted", "solve", budget_s=10.0, count_ops=40,
                 pool=600),
        Workload("certify-long", "check", budget_s=3.0, count_ops=48,
                 pool=1440),
    )
}

RESTRICTED = PipelineConfig(mode="restricted", epsilon=as_rat(1))

# certify-long: n jobs on m machines over a long horizon; each machine's
# supply is [0, D) with one hole of up to HOLE_SHARE * D slots, which makes
# roughly half of the verdicts infeasible. Instances differ in cost by about
# a fifth, so a run spreads its checks over many of them.
LONG_N, LONG_M, LONG_D, LONG_DENSITY = 30, 3, 2000, 0.5
LONG_INSTANCES = 48
HOLE_SHARE = 0.5
# hole lengths are drawn stratified from HOLE_STRATA equal slices of
# [1, HOLE_SHARE * D]: any HOLE_STRATA consecutive operations cover every
# slice, and each instance meets every slice in turn
HOLE_STRATA = 6


def _instance(rng: random.Random, n: int, m: int, horizon: int, wakeup: int,
              density: float) -> Instance:
    return generate_instance(rng.randrange(1 << 31), n, m, horizon, wakeup,
                             density)


def _solve_small(rng: random.Random, pool: int) -> list[SolveOp]:
    # cycle of 24 shapes: m in {1,2,3}, D in {10,12}, n in {5,6}, Q in {2,3}
    config = PipelineConfig()
    return [
        SolveOp(_instance(rng, 5 + (k // 6) % 2, 1 + k % 3,
                          (10, 12)[(k // 3) % 2], 2 + (k // 12) % 2, 0.5),
                config)
        for k in range(pool)
    ]


def _solve_restricted(rng: random.Random, pool: int) -> list[SolveOp]:
    # m = 1, 2, 2: an even split would put the median operation time in the
    # gap between the cheap single-machine and the multi-machine solves
    return [
        SolveOp(_instance(rng, 2, 1 + min(k % 3, 1), 32, 2, 0.5), RESTRICTED)
        for k in range(pool)
    ]


def _holed_supply(rng: random.Random, machines: int, horizon: int,
                  stratum: int) -> tuple[Interval, ...]:
    out = []
    longest = int(HOLE_SHARE * horizon)
    lo = 1 + (longest - 1) * stratum // HOLE_STRATA
    hi = 1 + (longest - 1) * (stratum + 1) // HOLE_STRATA
    for _ in range(machines):
        hole = rng.randint(lo, hi)
        start = rng.randrange(0, horizon - hole + 1)
        if start > 0:
            out.append(Interval(0, start))
        if start + hole < horizon:
            out.append(Interval(start + hole, horizon))
    return tuple(sorted(out))


def _certify_long(rng: random.Random, pool: int) -> list[CheckOp]:
    instances = [
        _instance(rng, LONG_N, LONG_M, LONG_D, 5, LONG_DENSITY)
        for _ in range(LONG_INSTANCES)
    ]
    return [
        CheckOp(inst, _holed_supply(rng, inst.machines, inst.horizon,
                                    (k + k // LONG_INSTANCES) % HOLE_STRATA))
        for k, inst in ((k, instances[k % LONG_INSTANCES])
                        for k in range(pool))
    ]


_MAKERS = {
    "solve-small": _solve_small,
    "solve-restricted": _solve_restricted,
    "certify-long": _certify_long,
}


def make_corpus(workload: Workload, seed: int) -> list:
    """The workload's operations for one seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    return _MAKERS[workload.name](rng, workload.pool)


def warmup_op(workload: Workload):
    """A fixed, tiny operation of the workload's kind."""
    inst = Instance.build(WARMUP_JOBS, machines=1, wakeup=1)
    if workload.kind == "check":
        return CheckOp(inst, (Interval(0, inst.horizon),))
    config = RESTRICTED if workload.name == "solve-restricted" \
        else PipelineConfig()
    return SolveOp(inst, config)
