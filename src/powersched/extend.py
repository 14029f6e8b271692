"""Repairing integral candidates into feasible supply sets.

Single machine: scan deficient windows by earliest end time t, pick a
candidate interval overlapping the tightest deficient window, grow it right
up to t and then leftwards (merging through neighbours at no cost) until
every window ending at t has zero deficiency. Each round charges at most
the volume deadlined at t, so the whole repair adds at most P slots and
never adds a wake-up.

Multi machine: first each candidate is modified (chains of overlapping
intervals are linked, isolated intervals get a copy when that stays within
the machine bound), at most doubling length and count while raising the
overlap of every partially covered window. Then intervals are extended one
slot at a time into the current minimal max-deficiency witness, mirroring
the flow-network capacity augmentation: each step raises the max-flow by
exactly one, so the total growth is at most P. The batched repair, the one
the pipeline runs, extends by the largest step that still pays off one flow
unit per slot, found by binary search on the coarse feasibility network,
which bounds the number of iterations by the interval count. The unit-step
repair on the unit-slot network is kept as the reference the tests compare
it against.
"""
from __future__ import annotations

from typing import Sequence

from .core import (
    Instance,
    InternalInvariantError,
    Interval,
    coverage_profile,
    total_volume,
)
from .flow import build_unit_network, feasibility_network
from .flow import build_coarse  # noqa: F401 -- traced by perfbench/spans.py


def _merged(intervals: Sequence[Interval]) -> list[Interval]:
    out: list[Interval] = []
    for iv in sorted(intervals):
        if out and iv.start <= out[-1].end:
            if iv.end > out[-1].end:
                out[-1] = Interval(out[-1].start, iv.end)
        else:
            out.append(iv)
    return out


def extend_single(instance: Instance, candidate: Sequence[Interval]
                  ) -> tuple[list[Interval], int]:
    """Grow a disjoint candidate until every window has zero deficiency.

    Returns the repaired intervals and the number of slots added. Requires a
    single-machine instance that is feasible under full availability.
    """
    if instance.machines != 1:
        raise ValueError("single-machine extension needs machines == 1")
    work = _merged(candidate)
    added = 0
    releases = sorted({j.release for j in instance.jobs})
    deadlines = sorted({j.deadline for j in instance.jobs})

    def active_len(a: int, b: int) -> int:
        return sum(iv.intersection_length(a, b) for iv in work)

    def deficient_windows_at(t: int) -> list[int]:
        return [
            a for a in releases
            if a < t and total_volume(instance, a, t) > active_len(a, t)
        ]

    while True:
        target = None
        for t in deadlines:
            starts = deficient_windows_at(t)
            if starts:
                target = (t, max(starts))
                break
        if target is None:
            break
        t, a1 = target
        budget = sum(j.ptime for j in instance.jobs if j.deadline == t)
        if budget <= 0:
            raise InternalInvariantError("deficient window with no deadline volume")

        idx = None
        for n, iv in enumerate(work):
            if iv.overlaps_window(a1, t):
                idx = n  # keep scanning: rightmost overlapping interval wins
        if idx is None:
            raise InternalInvariantError(
                f"no candidate interval overlaps deficient window [{a1},{t}]"
            )

        # grow right up to t, then left toward 0; merging through a
        # neighbour costs nothing
        while deficient_windows_at(t):
            iv = work[idx]
            if iv.end < t:
                if idx + 1 < len(work) and work[idx + 1].start == iv.end:
                    work[idx] = Interval(iv.start, work[idx + 1].end)
                    del work[idx + 1]
                else:
                    work[idx] = Interval(iv.start, iv.end + 1)
                    added += 1
                    budget -= 1
            elif iv.start > 0:
                if idx > 0 and work[idx - 1].end == iv.start:
                    work[idx] = Interval(work[idx - 1].start, iv.end)
                    del work[idx - 1]
                    idx -= 1
                else:
                    work[idx] = Interval(iv.start - 1, iv.end)
                    added += 1
                    budget -= 1
            else:
                raise InternalInvariantError(
                    "window still deficient though all earlier slots are active"
                )
            if budget < 0:
                raise InternalInvariantError(
                    "extension exceeded the deadline volume budget"
                )
    return work, added


def _consume_right(avail: list[int], start: int, stop: int) -> int:
    """Greatest reachable end in [start, stop] walking right through slots
    with spare machine capacity, consuming it."""
    t = start
    while t < stop and t < len(avail) and avail[t] > 0:
        avail[t] -= 1
        t += 1
    return t


def modify_multi(candidate: Sequence[Interval], machines: int
                 ) -> list[Interval]:
    """Link or duplicate candidate intervals ahead of the multi-machine repair.

    Base pass, in start-time order: an interval overlapping its successor is
    stretched toward the successor's end; otherwise the successor gets a
    copy (a leading copy of the first interval is attempted as well).
    Stretches and copies consume per-slot machine capacity and stop at
    saturated slots, which keeps every slot within the machine count even
    where the bare linking rule would overshoot.

    A repair pass then guarantees the overlap property directly: while some
    window overlaps 0 < l < m candidate intervals but at most l of the
    result, a unit slot inside it is added. Such a slot always has spare
    capacity (a saturated slot's m coverers would all overlap the window,
    forcing l >= m), so the property and the machine bound hold together.
    Total length and interval count stay within twice the input's.
    """
    ordered = sorted(candidate)
    n = len(ordered)
    if n == 0:
        return []
    if machines < 2:
        raise ValueError("modification applies to multi-machine candidates")
    horizon = max(iv.end for iv in ordered)
    profile = coverage_profile(ordered, horizon)
    avail = [machines - c for c in profile]

    out: list[Interval] = []
    partner = machines - 1
    if partner >= n or not ordered[0].overlaps(ordered[partner]):
        end = _consume_right(avail, ordered[0].start, ordered[0].end)
        if end > ordered[0].start:
            out.append(Interval(ordered[0].start, end))
    for j in range(n):
        cur = ordered[j]
        if j + 1 < n and cur.overlaps(ordered[j + 1]):
            end = _consume_right(avail, cur.end, ordered[j + 1].end)
            out.append(Interval(cur.start, max(cur.end, end)))
        else:
            out.append(cur)
            if j + 1 < n:
                nxt = ordered[j + 1]
                partner = j + 1 + machines - 1
                if partner >= n or not nxt.overlaps(ordered[partner]):
                    end = _consume_right(avail, nxt.start, nxt.end)
                    if end > nxt.start:
                        out.append(Interval(nxt.start, end))

    # overlap-repair pass: where the linking rule left a window without its
    # extra interval, add a capacity-truncated copy of the leftmost
    # overlapping interval (a unit slot as last resort; a saturated slot
    # inside the window would force m overlaps, so room always exists)
    guard = 2 * n + 2 * machines * horizon + 16
    for _ in range(guard):
        cov = coverage_profile(out, horizon)
        fix = None
        for a in range(horizon):
            for b in range(a + 1, horizon + 1):
                before = sum(1 for iv in ordered if iv.overlaps_window(a, b))
                if not 0 < before < machines:
                    continue
                after = sum(1 for iv in out if iv.overlaps_window(a, b))
                if after <= before:
                    fix = (a, b)
                    break
            if fix:
                break
        if fix is None:
            break
        a, b = fix
        avail_now = [machines - c for c in cov]
        patch = None
        for iv in ordered:
            if iv.overlaps_window(a, b):
                end = _consume_right(avail_now, iv.start, iv.end)
                if end > iv.start and Interval(iv.start, end).overlaps_window(a, b):
                    patch = Interval(iv.start, end)
                break
        if patch is None:
            slot = next(
                (t for t in range(max(0, a - 1), min(b, horizon - 1) + 1)
                 if cov[t] < machines),
                None,
            )
            if slot is None:
                raise InternalInvariantError(
                    f"window [{a},{b}] cannot gain an interval within the "
                    "machine bound"
                )
            patch = Interval(slot, slot + 1)
        out.append(patch)
    else:
        raise InternalInvariantError("overlap repair did not converge")

    if len(out) > 2 * n or sum(iv.length for iv in out) > 2 * sum(
        iv.length for iv in ordered
    ):
        raise InternalInvariantError("modification exceeded its 2x budget")
    return sorted(out)


def _extension_step(supply: list[Interval], witness, machines: int,
                    profile: list[int], horizon: int):
    """Pick (interval index, grown interval, slot) for one unit extension.

    Scans witness intervals left to right, then supply intervals in order,
    extending into the witness slot adjacent to the interval (left side
    first). Slots already covered by m intervals are skipped so the supply
    stays schedulable on m machines.
    """
    for q in witness:
        for n, iv in enumerate(supply):
            if not iv.overlaps(q):
                continue
            if q.start < iv.start:
                slot = iv.start - 1
                if profile[slot] < machines:
                    return n, Interval(iv.start - 1, iv.end), slot
            if q.end > iv.end and iv.end < horizon:
                slot = iv.end
                if profile[slot] < machines:
                    return n, Interval(iv.start, iv.end + 1), slot
    return None


def extend_multi(instance: Instance,
                 supply: Sequence[Interval]) -> tuple[list[Interval], int]:
    """Unit-step repair on the unit-slot network with incremental reflow."""
    work = sorted(supply)
    machines = instance.machines
    profile = coverage_profile(work, instance.horizon)
    net = build_unit_network(instance, work)
    flow = net.max_flow()
    total = instance.total_ptime
    added = 0
    while flow < total:
        side = net.residual_source_side()
        witness = net.witness_from_side(side)
        step = _extension_step(work, witness, machines, profile,
                               instance.horizon)
        if step is None:
            raise InternalInvariantError(
                "positive deficiency but no extendable interval"
            )
        n, grown, slot = step
        work[n] = grown
        profile[slot] += 1
        net.increase_slot_capacity(slot, 1)
        new_flow = net.max_flow()
        if new_flow != flow + 1:
            raise InternalInvariantError("extension did not gain one flow unit")
        flow = new_flow
        added += 1
        work.sort()
        profile = coverage_profile(work, instance.horizon)
    return work, added


def extend_multi_batched(instance: Instance, supply: Sequence[Interval]
                         ) -> tuple[list[Interval], int]:
    """Batched repair: per chosen interval, extend by the largest step that
    still gains one flow unit per slot (binary search on the step size)."""
    work = sorted(supply)
    machines = instance.machines
    total = instance.total_ptime
    horizon = instance.horizon
    added = 0
    while True:
        net = feasibility_network(instance, work)
        flow = net.max_flow()
        if flow == total:
            return work, added
        profile = coverage_profile(work, horizon)
        witness = net.witness_from_side(net.residual_source_side())
        step = _extension_step(work, witness, machines, profile, horizon)
        if step is None:
            raise InternalInvariantError(
                "positive deficiency but no extendable interval"
            )
        n, grown, slot = step
        iv = work[n]
        leftward = grown.start < iv.start
        # how far the interval may grow while every touched slot stays
        # below the machine bound
        room = 0
        if leftward:
            t = iv.start - 1
            while t >= 0 and profile[t] < machines:
                room += 1
                t -= 1
        else:
            t = iv.end
            while t < horizon and profile[t] < machines:
                room += 1
                t += 1
        room = min(room, total - flow)

        def grow(delta: int) -> Interval:
            if leftward:
                return Interval(iv.start - delta, iv.end)
            return Interval(iv.start, iv.end + delta)

        def gain(delta: int) -> int:
            trial = list(work)
            trial[n] = grow(delta)
            return feasibility_network(instance, trial).max_flow() - flow

        if gain(1) != 1:
            raise InternalInvariantError("unit extension did not pay off")
        lo, hi = 1, room
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if gain(mid) == mid:
                lo = mid
            else:
                hi = mid - 1
        work[n] = grow(lo)
        added += lo
        work.sort()
