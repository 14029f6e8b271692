"""End-to-end solving pipeline: LP, rounding, repair, assignment, report."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .core import (
    InfeasibleInstanceError,
    Instance,
    InternalInvariantError,
    Interval,
    energy,
)
from .decompose import CandidateSolution, convex_decompose, uncross
from .extend import extend_multi_batched, extend_single, modify_multi
from .flow import check_feasible
from .flow import build_coarse  # noqa: F401 -- traced by perfbench/spans.py
from .lp import (
    FractionalSolution,
    build_lp_multi,
    build_lp_single,
    build_point_set,
    enumerate_intervals,
    solve_lp,
)
from .rational import Rat, as_rat
from .schedule import Schedule, assign_jobs, exact_opt, verify
from .schedule import expand_coarse  # noqa: F401 -- traced by perfbench/spans.py

# horizon above which the default mode switches to the restricted point set
FULL_MODE_HORIZON = 200


@dataclass
class PipelineConfig:
    mode: str = "auto"  # auto | full | restricted
    epsilon: Rat = as_rat("1/4")
    exact: bool = False
    oracle_limits: tuple[int, int, int] = (6, 12, 2)


@dataclass
class CandidateReport:
    weight: Rat
    interval_count: int
    pre_energy: int
    post_energy: int
    added_length: int
    supply: tuple[Interval, ...]


@dataclass
class PipelineResult:
    instance: Instance
    mode: str
    points: list[int] | None
    lp_objective: Rat
    lp_solution: FractionalSolution
    candidates: list[CandidateReport]
    chosen: int
    schedule: Schedule
    bound: Rat
    stage_seconds: dict = field(default_factory=dict)
    oracle_energy: int | None = None

    @property
    def energy(self) -> int:
        return self.schedule.energy


def _resolve_mode(instance: Instance, config: PipelineConfig) -> str:
    if config.mode in ("full", "restricted"):
        return config.mode
    if config.mode != "auto":
        raise ValueError(f"unknown mode {config.mode!r}")
    return "full" if instance.horizon <= FULL_MODE_HORIZON else "restricted"


def repair_candidate(instance: Instance, candidate: CandidateSolution
                     ) -> tuple[list[Interval], int]:
    """Repair one candidate into a feasible supply; returns (supply, added)."""
    if instance.machines == 1:
        return extend_single(instance, candidate.intervals)
    modified = modify_multi(candidate.intervals, instance.machines)
    return extend_multi_batched(instance, modified)


def solve_instance(instance: Instance, config: PipelineConfig | None = None
                   ) -> PipelineResult:
    """Run the whole pipeline. Raises InfeasibleInstanceError with a witness
    when no schedule exists.

    The mode and its point set shape only the LP; decomposition, repair and
    assignment take the same path in every mode.
    """
    config = config or PipelineConfig()
    stage_seconds: dict[str, float] = {}
    t0 = time.perf_counter()

    full_supply = [Interval(0, instance.horizon)] * instance.machines \
        if instance.horizon > 0 else []
    pre = check_feasible(instance, full_supply)
    if not pre.feasible:
        raise InfeasibleInstanceError(pre.witness, pre.deficiency)
    stage_seconds["precheck"] = time.perf_counter() - t0

    mode = _resolve_mode(instance, config)
    t0 = time.perf_counter()
    points = build_point_set(instance, config.epsilon) \
        if mode == "restricted" else None
    intervals = enumerate_intervals(instance.horizon, points)
    if instance.machines == 1:
        model = build_lp_single(instance, intervals, points)
    else:
        model = build_lp_multi(instance, intervals, points)
    solution = solve_lp(model)
    stage_seconds["lp"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    support = uncross(solution.support())
    candidates = convex_decompose(support)
    stage_seconds["decompose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    total = instance.total_ptime
    reports: list[CandidateReport] = []
    for cand in candidates:
        supply, added = repair_candidate(instance, cand)
        pre_e = energy(cand.intervals, instance.wakeup)
        post_e = energy(supply, instance.wakeup)
        if added > total:
            raise InternalInvariantError("repair added more than P slots")
        limit = pre_e + total if instance.machines == 1 else 2 * pre_e + total
        if post_e > limit:
            raise InternalInvariantError("repair exceeded its energy budget")
        reports.append(CandidateReport(cand.weight, len(cand.intervals),
                                       pre_e, post_e, added, tuple(supply)))
    chosen = min(range(len(reports)), key=lambda i: (reports[i].post_energy, i))
    stage_seconds["extend"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        schedule = assign_jobs(instance, reports[chosen].supply)
    except InfeasibleInstanceError as exc:
        raise InternalInvariantError("repaired supply is not feasible") from exc
    problems = verify(instance, schedule)
    if problems:
        raise InternalInvariantError(f"schedule failed verification: {problems}")
    stage_seconds["assign"] = time.perf_counter() - t0

    bound = solution.objective + total if instance.machines == 1 \
        else 2 * solution.objective + total
    if schedule.energy > bound:
        raise InternalInvariantError(
            f"energy {schedule.energy} exceeds guarantee {bound}"
        )

    oracle_energy = None
    if config.exact:
        t0 = time.perf_counter()
        opt = exact_opt(instance, config.oracle_limits)
        if opt is None:
            raise InternalInvariantError("oracle found a validated instance infeasible")
        oracle_energy = opt[0]
        stage_seconds["oracle"] = time.perf_counter() - t0

    return PipelineResult(
        instance, mode, points, solution.objective, solution, reports,
        chosen, schedule, bound, stage_seconds, oracle_energy,
    )
