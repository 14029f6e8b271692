"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench``. Traced runs
here use a few operations per workload so that the file runs in seconds.
"""
import json
from dataclasses import replace

import pytest

import run

run.require_source()

import bench  # noqa: E402
import checks  # noqa: E402
import powersched.flow  # noqa: E402
import powersched.pipeline  # noqa: E402
import spans  # noqa: E402
from corpus import WORKLOADS, CheckOp, make_corpus  # noqa: E402
from powersched.fileio import emit_instance, emit_supply  # noqa: E402
from powersched.flow import FeasibilityResult  # noqa: E402

SMALL = {"solve-small": 3, "solve-restricted": 2, "certify-long": 6}
EXACT = spans.COUNT_METRICS + ("extend.flow_calls_per_slot",
                               "pipeline.energy_ratio")


def emit_corpus(ops: list) -> str:
    """Text form of a corpus, through the repository's file formats."""
    parts = []
    for op in ops:
        parts.append(emit_instance(op.instance))
        if isinstance(op, CheckOp):
            parts.append(emit_supply(op.supply, op.instance))
    return "".join(parts)


def _traced(name: str, seed: int = 3):
    workload = replace(WORKLOADS[name], count_ops=SMALL[name])
    return bench.traced(workload, make_corpus(workload, seed), seconds=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_corpus(name):
    workload = WORKLOADS[name]
    first = emit_corpus(make_corpus(workload, 5))
    assert first == emit_corpus(make_corpus(workload, 5))
    assert first != emit_corpus(make_corpus(workload, 6))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_results_agree(name):
    solve_instance = powersched.pipeline.solve_instance
    plain, traced, metrics, _ = _traced(name)
    assert [r.status for r in plain + traced] == ["ok"] * 2 * SMALL[name]
    assert [r.summary for r in plain] == [r.summary for r in traced]
    assert set(metrics) == set(bench.PER_LAYER_UNITS)
    assert powersched.pipeline.solve_instance is solve_instance
    assert not hasattr(powersched.pipeline.build_lp_multi, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name):
    first = _traced(name)[2]
    second = _traced(name)[2]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    if name == "certify-long":
        assert first["flow.max_flow_calls"] == 1
        assert first["lp.cols"] == 0
    else:
        assert first["lp.cols"] > 0 and first["decompose.candidates"] > 0


def test_wrong_outputs_are_caught():
    workload = WORKLOADS["certify-long"]
    op = make_corpus(workload, 1)[0]
    rec = bench.run_op(workload, op, 0)
    assert rec.status == "ok"
    res = powersched.flow.check_feasible(op.instance, op.supply)
    if res.feasible:
        flows = dict(res.flows)
        flows[next(iter(flows))] += 1
        bad = replace(res, flows=flows)
    else:
        bad = replace(res, deficiency=res.deficiency + 1)
    assert checks.check_verdict(op.instance, op.supply, bad)

    solve = make_corpus(WORKLOADS["solve-small"], 1)[0]
    result = powersched.pipeline.solve_instance(solve.instance, solve.config)
    assert checks.check_solve(result) == []
    assert checks.check_lp(solve.instance, None, result.lp_objective) == []
    assert checks.check_lp(solve.instance, None, result.lp_objective + 1)
    assert checks.check_verdict(
        solve.instance, [], FeasibilityResult(True, 0, flows={}))


def test_times_are_scaled_by_host_speed():
    workload = WORKLOADS["certify-long"]
    records, speed = bench.timed(workload, make_corpus(workload, 1),
                                 seconds=0)
    assert [r.status for r in records] == ["ok"] and speed > 0
    metrics = bench.end_to_end(records, setup_s=1.0)
    assert metrics["op_ref_s.p50"] == pytest.approx(records[0].seconds
                                                    * speed)
    assert metrics["ops_per_ref_s"] * metrics["op_ref_s.p50"] \
        == pytest.approx(1)


def test_operation_over_budget_fails():
    workload = replace(WORKLOADS["solve-restricted"], budget_s=0.001)
    op = make_corpus(workload, 1)[0]
    assert bench.run_op(workload, op, 0).status == "timeout"


def test_declared_metrics_match_reported():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} \
        == bench.PER_LAYER_UNITS
