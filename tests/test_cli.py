import gc
import json
import warnings

import pytest

from powersched.cli import main
from powersched.fileio import parse_instance, parse_schedule
from powersched.schedule import Schedule, verify

GAP_TEXT = "1 1 8\n5\n0 1 1\n1 7 1\n2 4 1\n4 6 1\n7 8 1\n"


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gap.txt"
    path.write_text(GAP_TEXT)
    return path


def test_solve_writes_verified_schedule(gap_file, tmp_path, capsys):
    out = tmp_path / "sched.txt"
    code = main(["solve", str(gap_file), "--out", str(out), "--exact",
                 "--report", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().err)
    assert report["lp_objective"] == "7"
    assert report["energy"] == 8
    assert report["oracle_energy"] == 8
    assert report["guarantee"] == "lp+P"

    inst = parse_instance(GAP_TEXT)
    doc = parse_schedule(out.read_text())
    sched = Schedule(doc.machine_intervals, doc.assignment, 8,
                     tuple(iv for m in doc.machine_intervals for iv in m))
    assert verify(inst, sched) == []


def test_solve_restricted_flag(gap_file, tmp_path, capsys):
    out = tmp_path / "sched.txt"
    code = main(["solve", str(gap_file), "--out", str(out),
                 "--mode", "restricted", "--epsilon", "1/2",
                 "--report", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().err)
    assert report["mode"] == "restricted"
    assert "point_count" in report


def test_solve_infeasible_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 2\n2\n0 2 2\n0 2 1\n")
    assert main(["solve", str(bad)]) == 2
    assert "deficiency" in capsys.readouterr().err


def test_solve_trivially_infeasible(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 2\n1\n0 2 3\n")
    assert main(["solve", str(bad)]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.txt"
    broken.write_text("1 1\n0\n")
    assert main(["solve", str(broken)]) == 3
    assert main(["solve", str(tmp_path / "missing.txt")]) == 3


@pytest.mark.parametrize("flags", [
    ["--epsilon", "abc"],
    ["--epsilon", "1/0"],
    ["--mode", "restricted", "--epsilon", "0"],
    ["--mode", "restricted", "--epsilon", "-1"],
])
def test_solve_bad_epsilon_exit_code(gap_file, capsys, flags):
    assert main(["solve", str(gap_file)] + flags) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_bad_horizon_exit_code(capsys):
    assert main(["gen", "--seed", "1", "--horizon", "0"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_check_feasible_and_not(gap_file, tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("2\n0 3 1\n5 8 1\n")
    assert main(["check", str(gap_file), str(good)]) == 0
    assert "feasible" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1 1\n4 6 1\n7 8 1\n")
    assert main(["check", str(gap_file), str(bad)]) == 2
    text = capsys.readouterr().out
    assert "deficiency 1" in text

    empty = tmp_path / "empty.txt"
    empty.write_text("0\n")
    assert main(["check", str(gap_file), str(empty)]) == 2


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["gen", "--seed", "9", "--jobs", "5", "--machines", "2",
            "--horizon", "10", "--wakeup", "2", "--density", "0.7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    inst = parse_instance(a.read_text())
    assert inst.machines == 2
    assert inst.horizon + inst.offset == 10


def test_gen_empty(tmp_path, capsys):
    assert main(["gen", "--seed", "1", "--jobs", "0"]) == 0
    text = capsys.readouterr().out
    inst = parse_instance(text)
    assert inst.jobs == ()


def test_bench_runs_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "gap.txt").write_text(GAP_TEXT)
    (corpus / "broken.txt").write_text("oops\n")
    for seed in (1, 2):
        out = corpus / f"r{seed}.txt"
        main(["gen", "--seed", str(seed), "--jobs", "4", "--horizon", "9",
              "--wakeup", "1", "--out", str(out)])
    csv_path = tmp_path / "table.csv"
    code = main(["bench", str(corpus), "--out", str(csv_path), "--exact"])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
    header = lines[0].split(",")
    by_name = {
        row.split(",")[0]: dict(zip(header, row.split(",")))
        for row in lines[1:]
    }
    gap_row = by_name["gap.txt"]
    assert gap_row["lp_objective"] == "7"
    assert gap_row["energy"] == "8"
    assert gap_row["oracle"] == "8"
    assert by_name["broken.txt"]["error"]


def test_generated_instances_solve_cleanly(tmp_path, capsys):
    """gen -> solve always exits 0 with a verified schedule."""
    for seed in (3, 11, 27):
        inst_path = tmp_path / f"i{seed}.txt"
        sched_path = tmp_path / f"s{seed}.txt"
        assert main(["gen", "--seed", str(seed), "--jobs", "5",
                     "--machines", str(1 + seed % 2), "--horizon", "11",
                     "--wakeup", "1", "--density", "0.6",
                     "--out", str(inst_path)]) == 0
        assert main(["solve", str(inst_path), "--out", str(sched_path)]) == 0
        capsys.readouterr()
        inst = parse_instance(inst_path.read_text())
        doc = parse_schedule(sched_path.read_text())
        shifted = tuple(
            tuple(iv.shift(-inst.offset) for iv in machine)
            for machine in doc.machine_intervals
        )
        supply = tuple(iv for machine in shifted for iv in machine)
        from powersched.core import energy

        sched = Schedule(
            shifted,
            tuple((t - inst.offset, m, j) for t, m, j in doc.assignment),
            energy(supply, inst.wakeup), supply,
        )
        assert verify(inst, sched) == []


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["bench", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[0].startswith("file,")
    assert len(out.strip().splitlines()) == 1


def test_bench_closes_out_file(gap_file, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "gap.txt").write_text(GAP_TEXT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["bench", str(corpus), "--out",
                     str(tmp_path / "t.csv")]) == 0
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]
