"""Concrete schedules: flow read-out, machine assignment, verification,
and the exhaustive optimum used as test oracle.

Supply intervals are placed onto machines first-fit in start-time order
(smallest machine index whose intervals stay slot-disjoint), which needs no
more machines than the peak slot coverage. The feasibility flow, spread over
unit slots by ``flow.spread_flow``, is then placed slot by slot onto the
active machines.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DisjointIntervalSet,
    InfeasibleInstanceError,
    Instance,
    InternalInvariantError,
    Interval,
    coverage_profile,
    energy,
    total_volume,
)
from .flow import check_feasible, spread_flow


@dataclass(frozen=True)
class Schedule:
    """Per-machine active intervals plus slot-level job placement."""

    machine_intervals: tuple[tuple[Interval, ...], ...]
    assignment: tuple[tuple[int, int, int], ...]  # (slot, machine, job id)
    energy: int
    supply: tuple[Interval, ...]


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    slot: int | None = None
    machine: int | None = None
    job: int | None = None


class OracleLimitError(ValueError):
    """Search-space limits exceeded for the exhaustive optimum."""


def first_fit_machines(supply: Sequence[Interval], machines: int
                       ) -> list[list[Interval]]:
    """Assign supply intervals to machines in start order, smallest index
    whose previous interval has ended. Returns per-machine interval lists."""
    per_machine: list[list[Interval]] = [[] for _ in range(machines)]
    last_end = [0] * machines
    for iv in sorted(supply):
        for k in range(machines):
            if not per_machine[k] or last_end[k] <= iv.start:
                per_machine[k].append(iv)
                last_end[k] = iv.end
                break
        else:
            raise InternalInvariantError(
                "supply needs more machines than available"
            )
    return per_machine


def assign_jobs(instance: Instance, supply: Sequence[Interval]) -> Schedule:
    """Turn a feasible supply into a schedule via the feasibility flow."""
    supply = sorted(supply)
    result = check_feasible(instance, supply)
    if not result.feasible:
        raise InfeasibleInstanceError(result.witness, result.deficiency)
    return _place(instance, supply, result.flows or {})


def expand_coarse(instance: Instance, supply: Sequence[Interval],
                  points: Sequence[int],
                  flows: dict[tuple[int, int], int]) -> Schedule:
    """Expand a coarse-slot flow of value P into a unit-slot schedule.

    ``flows`` maps (job id, coarse slot index) to routed units, with slots
    delimited by consecutive points; supply and job windows must be aligned
    to the points. The flow is spread as in ``check_feasible`` and placed
    as in ``assign_jobs``.
    """
    pts = sorted(set(points))
    return _place(instance, sorted(supply),
                  spread_flow(list(zip(pts, pts[1:])), flows))


def _place(instance: Instance, supply: list[Interval],
           flows: dict[tuple[int, int], int]) -> Schedule:
    """Place a unit-slot flow, keyed by (job id, slot), onto the machines
    that first-fit gives the sorted supply."""
    per_machine = first_fit_machines(supply, instance.machines)

    slot_jobs: dict[int, list[int]] = {}
    for job_id, t in flows:
        slot_jobs.setdefault(t, []).append(job_id)

    records = []
    for t, jobs_here in sorted(slot_jobs.items()):
        active = sorted(
            k for k, ivs in enumerate(per_machine)
            if any(iv.covers_slot(t) for iv in ivs)
        )
        jobs_here.sort()
        if len(jobs_here) > len(active):
            raise InternalInvariantError(
                f"slot {t} routes more jobs than active machines"
            )
        for mach, job_id in zip(active, jobs_here):
            records.append((t, mach, job_id))

    return Schedule(
        tuple(tuple(ivs) for ivs in per_machine),
        tuple(sorted(records)),
        energy(supply, instance.wakeup),
        tuple(supply),
    )


def verify(instance: Instance, schedule: Schedule) -> list[Violation]:
    """All invariant violations of a schedule; empty means valid."""
    bad: list[Violation] = []
    jobs = {j.id: j for j in instance.jobs}
    horizon = instance.horizon

    if len(schedule.machine_intervals) > instance.machines:
        bad.append(Violation("machine-count",
                             f"{len(schedule.machine_intervals)} machines used"))
    for k, ivs in enumerate(schedule.machine_intervals):
        ordered = sorted(ivs)
        for iv in ordered:
            if iv.start < 0 or iv.end > horizon:
                bad.append(Violation("range", f"{iv} outside horizon",
                                     machine=k))
        for left, right in zip(ordered, ordered[1:]):
            if right.start < left.end:
                bad.append(Violation(
                    "machine-overlap",
                    f"{left} and {right} share a slot", machine=k))

    seen_mach: set[tuple[int, int]] = set()
    seen_job: set[tuple[int, int]] = set()
    done: dict[int, int] = {}
    for t, mach, job_id in schedule.assignment:
        if job_id not in jobs:
            bad.append(Violation("unknown-job", f"job {job_id}", job=job_id))
            continue
        j = jobs[job_id]
        if (t, mach) in seen_mach:
            bad.append(Violation("double-booked",
                                 f"machine {mach} twice in slot {t}",
                                 slot=t, machine=mach))
        seen_mach.add((t, mach))
        if (t, job_id) in seen_job:
            bad.append(Violation("self-parallel",
                                 f"job {job_id} twice in slot {t}",
                                 slot=t, job=job_id))
        seen_job.add((t, job_id))
        if not (j.release <= t and t + 1 <= j.deadline):
            bad.append(Violation("window",
                                 f"job {job_id} outside [{j.release},{j.deadline}]",
                                 slot=t, job=job_id))
        if mach >= len(schedule.machine_intervals) or not any(
            iv.covers_slot(t) for iv in schedule.machine_intervals[mach]
        ):
            bad.append(Violation("inactive",
                                 f"machine {mach} asleep in slot {t}",
                                 slot=t, machine=mach))
        done[job_id] = done.get(job_id, 0) + 1
    for j in instance.jobs:
        if done.get(j.id, 0) != j.ptime:
            bad.append(Violation("volume",
                                 f"job {j.id} ran {done.get(j.id, 0)} of {j.ptime}",
                                 job=j.id))

    expected = energy(schedule.supply, instance.wakeup)
    if schedule.energy != expected:
        bad.append(Violation("energy",
                             f"recorded {schedule.energy}, supply costs {expected}"))
    return bad


def _layer_supply(profile: Sequence[int], machines: int) -> list[Interval]:
    """Minimal-wakeup supply realizing a coverage profile: one layer of
    maximal runs per multiplicity level."""
    out = []
    for level in range(1, machines + 1):
        run = DisjointIntervalSet.from_slots(
            t for t, c in enumerate(profile) if c >= level
        )
        out.extend(run.intervals)
    return sorted(out)


def _quick_volume_ok(instance: Instance, prefix: list[int]) -> bool:
    rels = sorted({j.release for j in instance.jobs})
    deads = sorted({j.deadline for j in instance.jobs})
    for a in rels:
        for b in deads:
            if a < b and total_volume(instance, a, b) > prefix[b] - prefix[a]:
                return False
    return True


def exact_opt(instance: Instance,
              limits: tuple[int, int, int] = (6, 12, 2)
              ) -> tuple[int, Schedule] | None:
    """Exhaustive minimum-energy schedule, or None when infeasible.

    Enumerates per-slot coverage profiles (supply multisets canonicalized
    into multiplicity layers), in increasing energy, and returns the first
    feasible one. Refuses instances beyond the given (n, D, m) limits.
    """
    max_n, max_d, max_m = limits
    n, d, m = len(instance.jobs), instance.horizon, instance.machines
    if n > max_n or d > max_d or m > max_m:
        raise OracleLimitError(
            f"instance (n={n}, D={d}, m={m}) beyond oracle limits {limits}"
        )
    total = instance.total_ptime
    if d == 0:
        sched = Schedule((), (), 0, ())
        return (0, sched) if total == 0 else None

    q = instance.wakeup
    scored = []
    for profile in itertools.product(range(m + 1), repeat=d):
        vol = sum(profile)
        if vol < total:
            continue
        wakes = 0
        for level in range(1, m + 1):
            prev = 0
            for c in profile:
                cur = 1 if c >= level else 0
                if cur and not prev:
                    wakes += 1
                prev = cur
        scored.append((vol + q * wakes, profile))
    scored.sort()

    for cost, profile in scored:
        prefix = [0]
        for c in profile:
            prefix.append(prefix[-1] + c)
        if not _quick_volume_ok(instance, prefix):
            continue
        supply = _layer_supply(profile, m)
        if m == 1:
            # single machine: the window-volume condition is also sufficient
            feasible = True
        else:
            feasible = check_feasible(instance, supply).feasible
        if feasible:
            sched = assign_jobs(instance, supply)
            return cost, sched
    return None


def brute_force_feasible(instance: Instance, supply: Sequence[Interval],
                         limit_nodes: int = 2_000_000) -> bool:
    """Exhaustive slot-assignment search, independent of the flow network."""
    profile = coverage_profile(supply, instance.horizon)
    jobs = sorted(instance.jobs, key=lambda j: (j.deadline, j.release, j.id))
    caps = list(profile)
    budget = [limit_nodes]

    def place(i: int) -> bool:
        budget[0] -= 1
        if budget[0] < 0:
            raise OracleLimitError("search budget exhausted")
        if i == len(jobs):
            return True
        j = jobs[i]
        options = [t for t in range(j.release, j.deadline) if caps[t] > 0]
        if len(options) < j.ptime:
            return False
        for combo in itertools.combinations(options, j.ptime):
            for t in combo:
                caps[t] -= 1
            if place(i + 1):
                return True
            for t in combo:
                caps[t] += 1
        return False

    return place(0)
