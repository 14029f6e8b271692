"""Instance model and interval algebra.

Time is discrete: slot t is the unit interval [t, t+1]. Intervals are closed
integer intervals [a, b] with a < b; two intervals that merely touch at an
endpoint count as overlapping, but they do not share a slot. A machine is
active on a set of intervals and pays |I| energy to run through I plus a
fixed wake-up cost per interval.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .rational import Rat, as_rat


class SchedulingError(Exception):
    """Base class for domain errors."""


class TriviallyInfeasibleError(SchedulingError):
    """A job needs more slots than its release-deadline window contains."""


class InfeasibleInstanceError(SchedulingError):
    """Instance admits no feasible schedule; carries a deficiency witness."""

    def __init__(self, witness: "DisjointIntervalSet", deficiency: int):
        super().__init__(
            f"infeasible: witness {witness} has deficiency {deficiency}"
        )
        self.witness = witness
        self.deficiency = deficiency


class InternalInvariantError(SchedulingError):
    """A guaranteed algorithm invariant failed; indicates a bug."""


@dataclass(frozen=True, order=True)
class Interval:
    """Closed integer interval [start, end], start < end."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad interval [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "Interval") -> bool:
        """True if the two intervals share an integer point (touching counts)."""
        return self.start <= other.end and other.start <= self.end

    def overlaps_window(self, a: int, b: int) -> bool:
        return self.start <= b and a <= self.end

    def contains(self, other: "Interval") -> bool:
        """True if other lies inside self."""
        return self.start <= other.start and other.end <= self.end

    def strictly_contains(self, other: "Interval") -> bool:
        return self.start < other.start and other.end < self.end

    def covers_slot(self, t: int) -> bool:
        """True if slot [t, t+1] lies inside the interval."""
        return self.start <= t and t + 1 <= self.end

    def intersection_length(self, a: int, b: int) -> int:
        return max(0, min(self.end, b) - max(self.start, a))

    def shift(self, offset: int) -> "Interval":
        return Interval(self.start + offset, self.end + offset)

    def __str__(self) -> str:
        return f"[{self.start},{self.end}]"


@dataclass(frozen=True)
class Job:
    """A job that must run for ptime slots inside [release, deadline]."""

    id: int
    release: int
    deadline: int
    ptime: int

    @property
    def window(self) -> Interval:
        return Interval(self.release, self.deadline)

    @property
    def slack(self) -> int:
        return (self.deadline - self.release) - self.ptime


@dataclass(frozen=True)
class Instance:
    """Jobs plus machine count, wake-up cost and horizon.

    Release times are normalized so the earliest is 0; ``offset`` records the
    shift so file output can restore the original clock. ``total_ptime`` is
    the total volume P.
    """

    jobs: tuple[Job, ...]
    machines: int
    wakeup: int
    horizon: int
    offset: int = 0
    total_ptime: int = field(default=0)

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("need at least one machine")
        if self.wakeup < 0:
            raise ValueError("wake-up cost must be non-negative")
        object.__setattr__(
            self, "total_ptime", sum(j.ptime for j in self.jobs)
        )
        for j in self.jobs:
            if not (0 <= j.release < j.deadline <= self.horizon):
                raise ValueError(f"job {j.id} outside [0, {self.horizon}]")

    @classmethod
    def build(
        cls,
        jobs: Iterable[tuple[int, int, int]],
        machines: int = 1,
        wakeup: int = 0,
        horizon: int | None = None,
    ) -> "Instance":
        """Validate and normalize raw (release, deadline, ptime) triples.

        Zero-length jobs are dropped (they never need processing). A job
        whose processing time exceeds its window makes the whole instance
        trivially infeasible and is rejected outright.
        """
        raw = [Job(i, r, d, p) for i, (r, d, p) in enumerate(jobs)]
        for j in raw:
            if j.release < 0 or j.ptime < 0:
                raise ValueError(f"job {j.id} has negative times")
            if j.release >= j.deadline:
                raise ValueError(f"job {j.id} has empty window")
            if j.ptime > j.deadline - j.release:
                raise TriviallyInfeasibleError(
                    f"job {j.id} needs {j.ptime} slots in a window of "
                    f"{j.deadline - j.release}"
                )
        kept = [j for j in raw if j.ptime > 0]
        offset = min((j.release for j in kept), default=0)
        kept = [
            Job(j.id, j.release - offset, j.deadline - offset, j.ptime)
            for j in kept
        ]
        max_d = max((j.deadline for j in kept), default=0)
        if kept:
            if horizon is not None and horizon - offset != max_d:
                raise ValueError(
                    f"horizon {horizon} does not match the furthest deadline"
                )
            horizon = max_d
        else:
            horizon = max(0, (horizon or 0) - offset)
        return cls(tuple(kept), machines, wakeup, horizon, offset)


@dataclass(frozen=True)
class DisjointIntervalSet:
    """Sorted, pairwise disjoint intervals (no shared endpoints)."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = self.intervals
        for left, right in zip(ivs, ivs[1:]):
            if right.start <= left.end:
                raise ValueError(f"{left} and {right} overlap")

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "DisjointIntervalSet":
        return cls(tuple(sorted(intervals)))

    @classmethod
    def from_slots(cls, slots: Iterable[int]) -> "DisjointIntervalSet":
        """Aggregate unit slots into maximal runs."""
        out: list[Interval] = []
        for t in sorted(set(slots)):
            if out and out[-1].end == t:
                out[-1] = Interval(out[-1].start, t + 1)
            else:
                out.append(Interval(t, t + 1))
        return cls(tuple(out))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def total_length(self) -> int:
        return sum(iv.length for iv in self.intervals)

    def slots(self) -> list[int]:
        return [t for iv in self.intervals for t in range(iv.start, iv.end)]

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self.intervals)) + "}"


@dataclass(frozen=True)
class IntervalMultiset:
    """Weighted multiset of intervals; weights are exact rationals in (0, m]."""

    entries: tuple[tuple[Interval, Rat], ...]

    @classmethod
    def from_weighted(cls, entries) -> "IntervalMultiset":
        norm = tuple(
            (iv, as_rat(w)) for iv, w in entries if as_rat(w) > 0
        )
        return cls(norm)

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalMultiset":
        return cls(tuple((iv, as_rat(1)) for iv in intervals))

    def is_integral(self) -> bool:
        return all(w == 1 for _, w in self.entries)

    def coverage(self, t: int) -> Rat:
        """Total weight of entries covering slot [t, t+1]."""
        return sum((w for iv, w in self.entries if iv.covers_slot(t)), as_rat(0))

    def check_overlap_bound(self, machines: int, horizon: int) -> None:
        for t in range(horizon):
            if self.coverage(t) > machines:
                raise ValueError(f"slot {t} covered more than {machines} times")

    def intervals(self) -> list[Interval]:
        """Integral entries expanded by multiplicity."""
        out = []
        for iv, w in self.entries:
            if w != int(w):
                raise ValueError("multiset is not integral")
            out.extend([iv] * int(w))
        return out


def coverage_profile(supply: Sequence[Interval], horizon: int) -> list[int]:
    """Per-slot count of supply intervals covering each unit slot."""
    prof = [0] * horizon
    for iv in supply:
        for t in range(iv.start, min(iv.end, horizon)):
            prof[t] += 1
    return prof


def total_volume(instance: Instance, a: int, b: int) -> int:
    """Total processing time of jobs whose whole window lies in [a, b]."""
    if not (0 <= a < b <= instance.horizon):
        raise ValueError(f"window [{a},{b}] outside [0,{instance.horizon}]")
    return sum(
        j.ptime
        for j in instance.jobs
        if a <= j.release and j.deadline <= b
    )


def forced_volume_interval(job: Job, a: int, b: int) -> int:
    """Volume of the job that every feasible schedule must run inside [a, b].

    The job can place at most |window \\ [a,b]| slots outside the window, so
    max(0, ptime - slack_outside) is forced inside.
    """
    if not (0 <= a < b):
        raise ValueError(f"bad window [{a},{b}]")
    inside = job.window.intersection_length(a, b)
    outside = (job.deadline - job.release) - inside
    return max(0, job.ptime - outside)


def forced_volume_set(job: Job, q: Sequence[Interval] | DisjointIntervalSet) -> int:
    """Forced volume with respect to a set of disjoint intervals.

    Superadditive across disjoint pieces: escaping several windows at once
    leaves less room outside than escaping each individually.
    """
    if not isinstance(q, DisjointIntervalSet):
        q = DisjointIntervalSet.from_intervals(q)
    inside = sum(iv.intersection_length(job.release, job.deadline) for iv in q)
    outside = (job.deadline - job.release) - inside
    return max(0, job.ptime - outside)


def deficiency(
    instance: Instance,
    supply: Sequence[Interval] | IntervalMultiset,
    q: Sequence[Interval] | DisjointIntervalSet,
) -> int:
    """Shortfall of supply capacity inside q against total forced volume.

    A positive value certifies that the supply cannot host all jobs.
    """
    if isinstance(supply, IntervalMultiset):
        supply = supply.intervals()
    forced = sum(forced_volume_set(j, q) for j in instance.jobs)
    prof = coverage_profile(supply, instance.horizon)
    capacity = sum(
        prof[t] for iv in q for t in range(iv.start, min(iv.end, instance.horizon))
    )
    return max(0, forced - capacity)


def energy(intervals: Sequence[Interval] | IntervalMultiset, wakeup: int) -> int:
    """Total energy of an integral interval multiset: sum of |I| + wakeup."""
    if isinstance(intervals, IntervalMultiset):
        intervals = intervals.intervals()
    return sum(iv.length + wakeup for iv in intervals)
