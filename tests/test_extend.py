import random

import pytest

from powersched.core import Instance, Interval, coverage_profile, energy
from powersched.decompose import convex_decompose, uncross
from powersched.extend import (
    extend_multi,
    extend_multi_batched,
    extend_single,
    modify_multi,
)
from powersched.flow import build_unit_network, check_feasible
from powersched.lp import (
    build_lp_multi,
    build_lp_single,
    build_point_set,
    enumerate_intervals,
    solve_lp,
)

from conftest import seeded_instance

C1 = [Interval(0, 1), Interval(4, 6), Interval(7, 8)]


def test_extend_single_gap_candidate(gap_instance):
    repaired, added = extend_single(gap_instance, C1)
    assert repaired == [Interval(0, 1), Interval(3, 6), Interval(7, 8)]
    assert added == 1
    assert added <= gap_instance.total_ptime
    assert check_feasible(gap_instance, repaired).feasible
    assert energy(repaired, gap_instance.wakeup) == 8


def test_extend_single_identity_when_feasible(gap_instance):
    good = [Interval(0, 3), Interval(5, 8)]
    repaired, added = extend_single(gap_instance, good)
    assert repaired == good and added == 0


def test_extend_single_stops_at_zero_deficiency():
    inst = Instance.build([(0, 3, 2)], machines=1, wakeup=1)
    repaired, added = extend_single(inst, [Interval(0, 1)])
    assert repaired == [Interval(0, 2)]
    assert added == 1


def test_extend_single_never_adds_wakeups():
    rng = random.Random(3)
    for seed in range(25):
        inst = seeded_instance(seed, n_max=5, d_max=10)
        model = build_lp_single(inst, enumerate_intervals(inst.horizon))
        sol = solve_lp(model)
        for cand in convex_decompose(uncross(sol.support())):
            repaired, added = extend_single(inst, cand.intervals)
            assert added <= inst.total_ptime
            assert len(repaired) <= len(cand.intervals) or not cand.intervals
            assert check_feasible(inst, repaired).feasible
            assert (energy(repaired, inst.wakeup)
                    <= energy(list(cand.intervals), inst.wakeup)
                    + inst.total_ptime)


def test_modify_multi_chain():
    assert modify_multi([Interval(0, 2), Interval(1, 3)], 2) == [
        Interval(0, 3), Interval(1, 3)
    ]


def test_modify_multi_copies():
    assert modify_multi([Interval(0, 1), Interval(3, 4)], 2) == [
        Interval(0, 1), Interval(0, 1), Interval(3, 4), Interval(3, 4)
    ]


def test_modify_multi_empty():
    assert modify_multi([], 3) == []


def _windows(horizon):
    return [
        (a, b) for a in range(horizon) for b in range(a + 1, horizon + 1)
    ]


def _overlaps(intervals, a, b):
    return sum(1 for iv in intervals if iv.overlaps_window(a, b))


def test_modify_multi_guarantees_exhaustive():
    """Length and count at most double, small window overlaps grow, and the
    per-slot machine bound is kept, checked on every window of every fixture."""
    for seed in range(30):
        inst = seeded_instance(seed, n_max=4, d_max=10, machines=2)
        model = build_lp_multi(inst, enumerate_intervals(inst.horizon))
        sol = solve_lp(model)
        for cand in convex_decompose(uncross(sol.support())):
            before = list(cand.intervals)
            after = modify_multi(before, inst.machines)
            assert sum(iv.length for iv in after) <= 2 * sum(
                iv.length for iv in before
            )
            assert len(after) <= 2 * len(before)
            if before:
                prof = coverage_profile(after, inst.horizon)
                assert max(prof) <= inst.machines
            for a, b in _windows(inst.horizon):
                l = _overlaps(before, a, b)
                if 0 < l < inst.machines:
                    assert _overlaps(after, a, b) >= l + 1, (seed, a, b)


def _multi_candidates(seed, machines=2, d_max=10):
    inst = seeded_instance(seed, n_max=4, d_max=d_max, machines=machines)
    model = build_lp_multi(inst, enumerate_intervals(inst.horizon))
    sol = solve_lp(model)
    cands = convex_decompose(uncross(sol.support()))
    return inst, [modify_multi(c.intervals, machines) for c in cands]


def test_extend_multi_repairs_random_candidates():
    for seed in range(20):
        inst, modified = _multi_candidates(seed)
        for supply in modified:
            repaired, added = extend_multi(inst, supply)
            assert added <= inst.total_ptime
            assert len(repaired) == len(supply)
            assert check_feasible(inst, repaired).feasible
            prof = coverage_profile(repaired, inst.horizon)
            assert not prof or max(prof) <= inst.machines


def test_extend_multi_identity_when_feasible():
    inst = Instance.build([(0, 2, 1)], machines=2, wakeup=1)
    supply = [Interval(0, 2), Interval(0, 2)]
    repaired, added = extend_multi(inst, supply)
    assert repaired == sorted(supply) and added == 0


def test_extend_multi_source_side_shrinks():
    for seed in range(8):
        inst, modified = _multi_candidates(seed)
        for supply in modified:
            work = sorted(supply)
            net = build_unit_network(inst, work)
            flow = net.max_flow()
            side = net.residual_source_side()
            from powersched.extend import _extension_step

            prof = coverage_profile(work, inst.horizon)
            while flow < inst.total_ptime:
                witness = net.witness_from_side(side)
                n, grown, slot = _extension_step(
                    work, witness, inst.machines, prof, inst.horizon
                )
                work[n] = grown
                work.sort()
                prof = coverage_profile(work, inst.horizon)
                net.increase_slot_capacity(slot, 1)
                flow = net.max_flow()
                new_side = net.residual_source_side()
                assert new_side <= side
                side = new_side


def test_batched_equals_unit_step_accounting():
    done = 0
    for seed in range(40):
        inst, modified = _multi_candidates(seed)
        for supply in modified:
            unit_repair, unit_added = extend_multi(inst, supply)
            batch_repair, batch_added = extend_multi_batched(inst, supply)
            assert unit_added == batch_added
            assert check_feasible(inst, unit_repair).feasible
            assert check_feasible(inst, batch_repair).feasible
            done += 1
        if done >= 60:
            break
    assert done >= 60


def test_batched_with_points_mode():
    """Batched repair of restricted-mode (point set) LP candidates adds as
    much as the unit-step reference."""
    for seed in (1, 4, 9):
        inst = seeded_instance(seed, n_max=4, d_max=12, machines=2)
        pts = build_point_set(inst, 1)
        model = build_lp_multi(
            inst, enumerate_intervals(inst.horizon, pts), pts
        )
        sol = solve_lp(model)
        for cand in convex_decompose(uncross(sol.support())):
            supply = modify_multi(cand.intervals, inst.machines)
            repaired, added = extend_multi_batched(inst, supply)
            assert added == extend_multi(inst, supply)[1]
            assert added <= inst.total_ptime
            assert check_feasible(inst, repaired).feasible


def test_extend_single_rejects_multi_machine():
    inst = Instance.build([(0, 2, 1)], machines=2, wakeup=0)
    with pytest.raises(ValueError):
        extend_single(inst, [])
