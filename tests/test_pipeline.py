import pytest

from powersched.core import (
    InfeasibleInstanceError,
    Instance,
    Interval,
)
from powersched.pipeline import PipelineConfig, solve_instance
from powersched.rational import as_rat
from powersched.schedule import verify

from conftest import seeded_instance


def test_gap_pipeline_end_to_end(gap_instance):
    result = solve_instance(gap_instance, PipelineConfig(exact=True))
    assert result.lp_objective == 7
    assert result.energy == 8
    assert result.oracle_energy == 8
    assert result.bound == 12  # lp + P
    assert verify(gap_instance, result.schedule) == []
    assert len(result.candidates) == 2
    for cand in result.candidates:
        assert cand.added_length <= gap_instance.total_ptime
        assert cand.post_energy <= cand.pre_energy + gap_instance.total_ptime


def test_pipeline_infeasible_instance():
    inst = Instance.build([(0, 2, 2), (0, 2, 1)], machines=1, wakeup=1)
    with pytest.raises(InfeasibleInstanceError) as err:
        solve_instance(inst)
    assert err.value.deficiency == 1
    assert list(err.value.witness) == [Interval(0, 2)]


def test_pipeline_empty_instance():
    inst = Instance.build([], machines=2, wakeup=5, horizon=6)
    result = solve_instance(inst)
    assert result.energy == 0
    assert result.lp_objective == 0


def test_pipeline_mixed_energy_identity():
    """The candidate-weighted energies average to the LP objective."""
    for seed in (0, 2, 4):
        inst = seeded_instance(seed, n_max=5, d_max=10)
        result = solve_instance(inst)
        mixed = sum(
            (c.weight * c.pre_energy for c in result.candidates), as_rat(0)
        )
        assert mixed == result.lp_objective


def test_pipeline_multi_bound():
    for seed in range(6):
        inst = seeded_instance(seed, n_max=5, d_max=9, machines=2)
        result = solve_instance(inst)
        assert result.energy <= 2 * result.lp_objective + inst.total_ptime
        assert verify(inst, result.schedule) == []


def test_pipeline_restricted_mode_verifies():
    for seed in (3, 7):
        inst = seeded_instance(seed, n_max=4, d_max=12)
        result = solve_instance(
            inst, PipelineConfig(mode="restricted", epsilon=as_rat("1/2"))
        )
        assert result.mode == "restricted"
        assert result.points is not None
        assert verify(inst, result.schedule) == []


def test_pipeline_auto_mode_threshold():
    inst = seeded_instance(1, n_max=3, d_max=10)
    assert solve_instance(inst).mode == "full"
