"""Correctness checks on every benchmark operation, run outside the timing.

Each check returns a list of problems; an empty list means the output is
right. The LP check needs scipy, which is imported only when it first runs,
after the timed loop, so that its memory stays out of the peak RSS figure.
"""
from __future__ import annotations

from powersched.core import coverage_profile, deficiency
from powersched.flow import FeasibilityResult
from powersched.lp import LpModel, build_lp_multi, build_lp_single, \
    enumerate_intervals
from powersched.pipeline import PipelineResult
from powersched.schedule import verify

LP_RTOL = 1e-7


def check_solve(result: PipelineResult) -> list[str]:
    """Schedule verifies; its energy is recomputed and within the guarantee."""
    inst = result.instance
    problems = [f"verify: {v.kind}: {v.message}"
                for v in verify(inst, result.schedule)]
    recomputed = sum(iv.length + inst.wakeup
                     for ivs in result.schedule.machine_intervals
                     for iv in ivs)
    if recomputed != result.energy:
        problems.append(f"energy {result.energy} but machines cost "
                        f"{recomputed}")
    lp = result.lp_objective
    bound = lp + inst.total_ptime if inst.machines == 1 \
        else 2 * lp + inst.total_ptime
    if recomputed > bound:
        problems.append(f"energy {recomputed} above guarantee {bound}")
    return problems


def check_verdict(instance, supply, result: FeasibilityResult) -> list[str]:
    """An infeasible verdict's witness re-scores to its deficiency; a
    feasible verdict's flows schedule every job inside its window."""
    if not result.feasible:
        if result.witness is None or result.deficiency <= 0:
            return ["infeasible verdict without a positive witness"]
        score = deficiency(instance, supply, result.witness)
        if score != result.deficiency:
            return [f"witness re-scores to {score}, "
                    f"verdict says {result.deficiency}"]
        return []
    problems = []
    cover = coverage_profile(supply, instance.horizon)
    done: dict[int, int] = {}
    used = [0] * instance.horizon
    jobs = {j.id: j for j in instance.jobs}
    for (job_id, t), units in (result.flows or {}).items():
        j = jobs[job_id]
        if not (j.release <= t < j.deadline) or units > 1:
            problems.append(f"job {job_id} gets {units} in slot {t}")
        done[job_id] = done.get(job_id, 0) + units
        used[t] += units
    for j in instance.jobs:
        if done.get(j.id, 0) != j.ptime:
            problems.append(f"job {j.id} gets {done.get(j.id, 0)} "
                            f"of {j.ptime}")
    problems += [f"slot {t} uses {u} of {c}"
                 for t, (u, c) in enumerate(zip(used, cover)) if u > c]
    return problems


def rebuild_model(instance, points) -> LpModel:
    """The model ``solve_instance`` builds for this instance and point set."""
    intervals = enumerate_intervals(instance.horizon, points)
    build = build_lp_single if instance.machines == 1 else build_lp_multi
    return build(instance, intervals, points)


def highs_objective(model: LpModel) -> float:
    """Optimal value of the model by HiGHS in floating point."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    parts = {"ub": ([], [], [], []), "eq": ([], [], [], [])}
    for row in model.rows:
        rows, cols, vals, rhs = parts["eq" if row.sense == "==" else "ub"]
        sign = -1.0 if row.sense == ">=" else 1.0
        for j, a in row.coeffs.items():
            rows.append(len(rhs))
            cols.append(j)
            vals.append(sign * float(a))
        rhs.append(sign * float(row.rhs))
    n = len(model.var_names)
    mats = {}
    for key, (rows, cols, vals, rhs) in parts.items():
        mats[key] = (csr_array((vals, (rows, cols)), shape=(len(rhs), n)),
                     rhs) if rhs else (None, None)
    res = linprog(
        [float(c) for c in model.objective],
        A_ub=mats["ub"][0], b_ub=mats["ub"][1],
        A_eq=mats["eq"][0], b_eq=mats["eq"][1],
        bounds=[(0, None if u is None else float(u)) for u in model.upper],
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"HiGHS: {res.message}")
    return float(res.fun)


def check_lp(instance, points, objective) -> list[str]:
    """The exact LP objective matches HiGHS on the same model."""
    exact = float(objective)
    try:
        ref = highs_objective(rebuild_model(instance, points))
    except ValueError as exc:
        return [str(exc)]
    if abs(ref - exact) > LP_RTOL * max(1.0, abs(exact)):
        return [f"LP objective {objective} but HiGHS finds {ref}"]
    return []
