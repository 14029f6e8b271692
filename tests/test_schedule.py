import random

import pytest

from powersched.core import Instance, Interval, energy
from powersched.flow import aligned_points, build_coarse
from powersched.schedule import (
    OracleLimitError,
    Schedule,
    assign_jobs,
    brute_force_feasible,
    exact_opt,
    expand_coarse,
    first_fit_machines,
    verify,
)

from conftest import random_supply, seeded_instance


def test_assign_jobs_gap_repaired(gap_instance):
    supply = [Interval(0, 1), Interval(3, 6), Interval(7, 8)]
    sched = assign_jobs(gap_instance, supply)
    assert verify(gap_instance, sched) == []
    assert sched.energy == 8 == energy(supply, gap_instance.wakeup)
    placed = {job: t for t, _, job in sched.assignment}
    # forced placements: j0 and j4 have unit windows, j2 fits only slot 3
    assert placed[0] == 0
    assert placed[4] == 7
    assert placed[2] == 3
    assert sorted(placed[j] for j in (1, 3)) == [4, 5]


def test_assign_jobs_rejects_infeasible(gap_instance):
    from powersched.core import InfeasibleInstanceError

    with pytest.raises(InfeasibleInstanceError):
        assign_jobs(gap_instance, [Interval(0, 1)])


def test_assign_empty_instance():
    inst = Instance.build([], machines=2, wakeup=3, horizon=4)
    sched = assign_jobs(inst, [])
    assert sched.energy == 0
    assert verify(inst, sched) == []


def test_first_fit_uses_peak_coverage():
    supply = [Interval(0, 4), Interval(2, 6), Interval(4, 8), Interval(6, 9)]
    per_machine = first_fit_machines(supply, 2)
    # touching intervals share a machine; slot-sharing ones do not
    assert per_machine[0] == [Interval(0, 4), Interval(4, 8)]
    assert per_machine[1] == [Interval(2, 6), Interval(6, 9)]


def test_verify_catches_violations(gap_instance):
    supply = (Interval(0, 1), Interval(3, 6), Interval(7, 8))
    good = assign_jobs(gap_instance, supply)
    # processing outside the job window
    bad = Schedule(good.machine_intervals,
                   ((0, 0, 1),) + good.assignment[1:], good.energy,
                   good.supply)
    kinds = {v.kind for v in verify(gap_instance, bad)}
    assert "window" in kinds and "volume" in kinds
    # one job on two machines in the same slot
    at_four = next(job for t, _, job in good.assignment if t == 4)
    twice = Schedule(
        (good.machine_intervals[0], (Interval(3, 6),)),
        good.assignment + ((4, 1, at_four),),
        good.energy, good.supply,
    )
    kinds = {v.kind for v in verify(gap_instance, twice)}
    assert "self-parallel" in kinds
    wrong_energy = Schedule(good.machine_intervals, good.assignment,
                            good.energy + 1, good.supply)
    assert {v.kind for v in verify(gap_instance, wrong_energy)} == {"energy"}


def test_expand_coarse_wrap_layout():
    inst = Instance.build([(0, 4, 3), (0, 4, 3), (0, 4, 2)],
                          machines=2, wakeup=1)
    supply = [Interval(0, 4), Interval(0, 4)]
    pts = [0, 4]
    net = build_coarse(inst, supply, pts)
    assert net.max_flow() == 8
    sched = expand_coarse(inst, supply, pts, net.job_slot_flow())
    assert verify(inst, sched) == []
    assert sched.energy == energy(supply, 1)


def test_expand_coarse_single_crossing():
    inst = Instance.build([(0, 3, 2)], machines=1, wakeup=0)
    pts = [0, 3]
    supply = [Interval(0, 3)]
    net = build_coarse(inst, supply, pts)
    net.max_flow()
    sched = expand_coarse(inst, supply, pts, net.job_slot_flow())
    assert verify(inst, sched) == []
    assert len(sched.assignment) == 2


def test_expand_coarse_rejects_overlong_volume():
    inst = Instance.build([(0, 4, 3)], machines=1, wakeup=0)
    with pytest.raises(ValueError):
        expand_coarse(inst, [Interval(0, 4)], [0, 2, 4], {(0, 0): 3})


def test_expand_coarse_random_supplies():
    rng = random.Random(23)
    done = 0
    for seed in range(40):
        machines = 1 + seed % 2
        inst = seeded_instance(seed, n_max=4, d_max=9, machines=machines)
        supply = random_supply(rng, inst.horizon, machines)
        pts = aligned_points(inst, supply, [0, inst.horizon])
        net = build_coarse(inst, supply, pts)
        if net.max_flow() != inst.total_ptime:
            continue
        sched = expand_coarse(inst, supply, pts, net.job_slot_flow())
        assert verify(inst, sched) == [], seed
        done += 1
    assert done >= 10


def test_exact_opt_gap(gap_instance):
    value, sched = exact_opt(gap_instance)
    assert value == 8
    assert verify(gap_instance, sched) == []
    assert sched.energy == 8


def test_exact_opt_small_cases():
    inst = Instance.build([(0, 1, 1)], machines=1, wakeup=2)
    value, _ = exact_opt(inst)
    assert value == 3

    infeasible = Instance.build([(0, 2, 2), (0, 2, 1)], machines=1, wakeup=0)
    assert exact_opt(infeasible) is None

    empty = Instance.build([], machines=1, wakeup=1, horizon=3)
    assert exact_opt(empty)[0] == 0


def test_exact_opt_refuses_big():
    inst = Instance.build([(0, 30, 2)], machines=1, wakeup=1)
    with pytest.raises(OracleLimitError):
        exact_opt(inst)


def test_exact_opt_multi_machine():
    inst = Instance.build([(0, 2, 2), (0, 2, 2), (1, 3, 1)],
                          machines=2, wakeup=1)
    value, sched = exact_opt(inst)
    assert verify(inst, sched) == []
    # two machines must run in slots 0 and 1; the third unit fits in slot 2
    assert value == sched.energy == 7


def test_brute_force_matches_on_knowns(gap_instance):
    assert brute_force_feasible(gap_instance,
                                [Interval(0, 3), Interval(5, 8)])
    assert not brute_force_feasible(
        gap_instance, [Interval(0, 1), Interval(4, 6), Interval(7, 8)]
    )
