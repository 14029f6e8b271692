import itertools
import random

import pytest

from powersched.core import Instance, Interval, coverage_profile, deficiency
from powersched.flow import (
    augment_capacity_step,
    build_coarse,
    build_unit_network,
    check_feasible,
    min_cut_minimal_source,
)
from powersched.gen import generate_instance
from powersched.schedule import brute_force_feasible

from conftest import random_supply, seeded_instance

C1 = [Interval(0, 1), Interval(4, 6), Interval(7, 8)]
C2 = [Interval(0, 3), Interval(5, 8)]


def test_full_supply_saturates(gap_instance):
    net = build_unit_network(gap_instance, [Interval(0, 8)])
    assert net.max_flow() == 5 == gap_instance.total_ptime


def test_single_slot_bottleneck():
    inst = Instance.build([(0, 2, 2), (0, 2, 1)], machines=1, wakeup=0)
    net = build_unit_network(inst, [Interval(0, 2)])
    assert net.max_flow() == 2 < inst.total_ptime


def test_empty_jobs_zero_flow():
    inst = Instance.build([], machines=1, wakeup=0, horizon=4)
    net = build_unit_network(inst, [Interval(0, 4)])
    assert net.max_flow() == 0


def test_min_cut_on_gap_candidate(gap_instance):
    net = build_unit_network(gap_instance, C1)
    assert net.max_flow() == 4
    cut = min_cut_minimal_source(net)
    assert cut.capacity == 4
    assert list(cut.witness) == [Interval(2, 4)]
    assert deficiency(gap_instance, C1, cut.witness) == 1
    assert cut.capacity + 1 == gap_instance.total_ptime


def test_min_cut_bare_supply():
    inst = Instance.build([(0, 2, 2)], machines=1, wakeup=0)
    result = check_feasible(inst, [])
    assert not result.feasible
    assert list(result.witness) == [Interval(0, 2)]
    assert result.deficiency == 2


def test_min_cut_of_feasible_network(gap_instance):
    net = build_unit_network(gap_instance, [Interval(0, 8)])
    net.max_flow()
    cut = min_cut_minimal_source(net)
    assert cut.capacity == gap_instance.total_ptime
    assert len(cut.witness) == 0


def test_check_feasible_gap_candidates(gap_instance):
    assert check_feasible(gap_instance, C2).feasible
    bad = check_feasible(gap_instance, C1)
    assert not bad.feasible
    assert bad.deficiency == 1
    assert deficiency(gap_instance, C1, bad.witness) == bad.deficiency
    assert check_feasible(gap_instance, [Interval(0, 8)]).feasible


def test_cut_deficiency_relation_all_cuts():
    """Every source-side choice S gives def(Q(S)) + c(S) >= P, with
    equality at the minimal min cut."""
    inst = Instance.build([(0, 3, 2), (1, 4, 1)], machines=1, wakeup=0)
    supply = [Interval(0, 2), Interval(3, 4)]
    net = build_unit_network(inst, supply)
    total = inst.total_ptime
    flow = net.max_flow()
    others = [n for n in range(net.n_nodes) if n not in (net.source, net.sink)]
    for bits in itertools.product((0, 1), repeat=len(others)):
        side = {net.source} | {n for n, b in zip(others, bits) if b}
        cap = net.cut_capacity(side)
        wit = net.witness_from_side(side)
        assert deficiency(inst, supply, wit) + cap >= total
    cut = min_cut_minimal_source(net)
    assert deficiency(inst, supply, cut.witness) + cut.capacity == total
    assert cut.capacity == flow


def test_augment_until_saturated():
    inst = Instance.build([(0, 2, 2)], machines=1, wakeup=0)
    net = build_unit_network(inst, [])
    assert net.max_flow() == 0
    slot0, flow = augment_capacity_step(net)
    assert (slot0, flow) == (0, 1)
    slot1, flow = augment_capacity_step(net)
    assert (slot1, flow) == (1, 2)
    with pytest.raises(ValueError):
        augment_capacity_step(net)


def test_augment_source_side_shrinks(gap_instance):
    net = build_unit_network(gap_instance, C1)
    net.max_flow()
    side = net.residual_source_side()
    while net.flow_value < gap_instance.total_ptime:
        augment_capacity_step(net)
        new_side = net.residual_source_side()
        assert new_side <= side
        side = new_side
    # exactly P - F steps happened: capacity raised once per missing unit


def test_augment_step_count():
    rng = random.Random(5)
    for seed in range(15):
        inst = seeded_instance(seed, n_max=4, d_max=8)
        supply = random_supply(rng, inst.horizon, 1)
        net = build_unit_network(inst, supply)
        start = net.max_flow()
        steps = 0
        while net.flow_value < inst.total_ptime:
            augment_capacity_step(net)
            steps += 1
        assert steps == inst.total_ptime - start


def test_flow_value_invariant_under_job_order(gap_instance):
    jobs = [(j.release, j.deadline, j.ptime) for j in gap_instance.jobs]
    value = build_unit_network(gap_instance, C1).max_flow()
    for perm in itertools.permutations(jobs):
        inst = Instance.build(list(perm), machines=1, wakeup=1)
        assert build_unit_network(inst, C1).max_flow() == value


def test_check_feasible_matches_brute_force():
    rng = random.Random(11)
    for seed in range(60):
        machines = 1 + seed % 2
        inst = seeded_instance(seed, n_max=4, d_max=6, machines=machines)
        supply = random_supply(rng, inst.horizon, machines)
        got = check_feasible(inst, supply).feasible
        want = brute_force_feasible(inst, supply)
        assert got == want, (seed, supply)


def test_coarse_degenerate_matches_unit(gap_instance):
    unit = build_unit_network(gap_instance, C1)
    coarse = build_coarse(gap_instance, C1, list(range(9)))
    assert unit.max_flow() == coarse.max_flow()
    assert [c for c in coarse.arc_cap] == [c for c in unit.arc_cap]


def test_coarse_capacity_rule():
    inst = Instance.build([(0, 4, 3), (0, 4, 3), (0, 4, 2)],
                          machines=2, wakeup=0)
    supply = [Interval(0, 4), Interval(0, 4)]
    net = build_coarse(inst, supply, [0, 4])
    # one coarse slot of length 4 crossed by two intervals: capacity 8
    assert net.arc_cap[net.sink_arc[0]] == 8
    assert net.max_flow() == 8 == inst.total_ptime


def test_coarse_job_inside_slot():
    inst = Instance.build([(0, 5, 3)], machines=1, wakeup=0)
    net = build_coarse(inst, [Interval(0, 5)], [0, 5])
    assert net.max_flow() == 3


def test_coarse_requires_alignment():
    inst = Instance.build([(0, 4, 2)], machines=1, wakeup=0)
    with pytest.raises(ValueError):
        build_coarse(inst, [Interval(0, 3)], [0, 4])
    with pytest.raises(ValueError):
        build_coarse(inst, [], [1, 4])


def _holed_supply(rng, machines, horizon):
    """Per machine, [0, D) minus one hole of 1..D/2 slots."""
    out = []
    for _ in range(machines):
        hole = rng.randint(1, horizon // 2)
        start = rng.randrange(0, horizon - hole + 1)
        if start > 0:
            out.append(Interval(0, start))
        if start + hole < horizon:
            out.append(Interval(start + hole, horizon))
    return out


def _differential_cases():
    rng = random.Random(31)
    for seed in range(90):
        machines = 1 + seed % 3
        inst = seeded_instance(seed, n_max=5, d_max=12, machines=machines)
        yield inst, random_supply(rng, inst.horizon, machines, 4)
    for seed in range(12):
        machines = 1 + seed % 3
        inst = generate_instance(700 + seed, 12, machines, 300, 5, 0.5)
        yield inst, _holed_supply(rng, machines, inst.horizon)
    inst = seeded_instance(3, machines=2)
    yield inst, [Interval(1, inst.horizon + 4)] * 2


def test_check_feasible_matches_unit_network():
    """The coarse verdict equals the unit-slot reference: flow value,
    deficiency and witness; feasible flows are unit-slot schedules."""
    verdicts = set()
    for inst, supply in _differential_cases():
        got = check_feasible(inst, supply)
        ref = build_unit_network(inst, supply)
        assert got.flow_value == ref.max_flow()
        verdicts.add(got.feasible)
        if not got.feasible:
            cut = min_cut_minimal_source(ref)
            assert got.deficiency == inst.total_ptime - cut.capacity
            assert got.witness == cut.witness
            continue
        assert got.flow_value == inst.total_ptime
        cover = coverage_profile(supply, inst.horizon)
        jobs = {j.id: j for j in inst.jobs}
        done = dict.fromkeys(jobs, 0)
        for (job_id, t), units in got.flows.items():
            assert units == 1
            assert jobs[job_id].release <= t < jobs[job_id].deadline
            done[job_id] += 1
            cover[t] -= 1
        assert done == {j.id: j.ptime for j in inst.jobs}
        assert min(cover, default=0) >= 0
    assert verdicts == {True, False}
