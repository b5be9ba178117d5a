import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _result(tmp_path: Path, name: str, src: str, wall_s: float, *, workload="census",
            trace=0, seed=0, failed=0, nproc=2) -> Path:
    path = tmp_path / f"{name}.json"
    metric = "search.verify_cst.starts_per_s" if trace else "wall_s"
    path.write_text(json.dumps({
        "meta": {"workload": workload, "seed": seed, "trace": trace, "nproc": nproc,
                 "python": "3.11.7", "package_version": "0.1.0", "git_commit": None,
                 "src_sha256": src},
        "failed": failed,
        "metrics": {metric: {"value": wall_s, "unit": "s"}}}))
    return path


def test_median_and_quartiles_of_each_side(tmp_path):
    parent = [_result(tmp_path, f"p{i}", "aa", v, seed=i) for i, v in enumerate([5, 1, 4, 2, 3])]
    change = [_result(tmp_path, f"c{i}", "bb", v, seed=i) for i, v in enumerate([2, 1])]
    change.append(_result(tmp_path, "t", "bb", 7.5, trace=1))
    doc = bench_record.record(parent, change, {"parent": "abc1234"})
    wall = doc["e2e"]["census"]["wall_s"]
    assert wall["parent"] == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    assert wall["change"] == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}
    assert wall["delta"] == pytest.approx(1.5 / 3 - 1)
    layer = doc["layers"]["census"]["search.verify_cst.starts_per_s"]
    assert layer["parent"] is None and layer["change"]["median"] == 7.5
    assert layer["change"]["q1"] == layer["change"]["q3"] == 7.5
    assert doc["commits"] == {"parent": "abc1234", "change": None}
    assert doc["machine"] == {"nproc": 2, "python": "3.11.7", "package_version": "0.1.0",
                              "src_sha256": {"parent": "aa", "change": "bb"}}
    assert doc["runs"]["change"]["census"] == {"runs": 3, "failed": 0, "seeds": [0, 0, 1]}


def test_refuses_a_side_that_mixes_two_codes(tmp_path, capsys):
    parent = [_result(tmp_path, "p0", "aa", 1.0), _result(tmp_path, "p1", "a2", 1.0)]
    change = [_result(tmp_path, "c0", "bb", 1.0)]
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_record.main(argv) == 2
    assert capsys.readouterr().err == "error: parent files disagree on src_sha256: a2, aa\n"
    assert not out.exists()
    with pytest.raises(bench_record.RecordError, match="change files disagree"):
        bench_record.record(change, parent[:1] + [_result(tmp_path, "c1", "b2", 1.0)])


def test_refuses_one_code_on_both_sides_or_two_machines(tmp_path):
    same = [_result(tmp_path, "p0", "aa", 1.0)]
    with pytest.raises(bench_record.RecordError, match="same src_sha256"):
        bench_record.record(same, [_result(tmp_path, "c0", "aa", 1.0)])
    with pytest.raises(bench_record.RecordError, match="machine"):
        bench_record.record(same, [_result(tmp_path, "c1", "bb", 1.0, nproc=4)])


def test_refuses_a_side_with_failed_operations(tmp_path, capsys):
    parent = [_result(tmp_path, "p0", "aa", 1.0), _result(tmp_path, "p1", "aa", 1.0, seed=1)]
    change = [_result(tmp_path, "c0", "bb", 1.0),
              _result(tmp_path, "c1", "bb", 1.0, seed=1, trace=1, failed=2)]
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]
    assert bench_record.main(argv) == 2
    assert capsys.readouterr().err == f"error: change runs with failed operations: {change[1]}\n"
    assert not out.exists()


def test_refuses_a_file_given_twice(tmp_path, capsys):
    parent = [_result(tmp_path, "p0", "aa", 1.0)]
    change = [_result(tmp_path, "c0", "bb", 1.0)]
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent[0]), str(parent[0]), "--change", str(change[0]),
            "--out", str(out)]
    assert bench_record.main(argv) == 2
    assert capsys.readouterr().err == f"error: parent file {parent[0]} repeats {parent[0]}\n"
    copy = tmp_path / "copy.json"
    copy.write_text(change[0].read_text())   # a copy counts as the same run
    with pytest.raises(bench_record.RecordError, match="change file .*copy.json repeats"):
        bench_record.record(parent, [change[0], copy])
    assert not out.exists()


def test_names_the_commits_of_runs_from_extracted_copies(tmp_path):
    # runs from a `git archive` copy have no git_commit in their metadata
    parent = [_result(tmp_path, "p0", "aa", 2.0)]
    change = [_result(tmp_path, "c0", "bb", 1.0)]
    out = tmp_path / "BENCH_00_x.json"
    argv = ["--parent", str(parent[0]), "--change", str(change[0]), "--out", str(out)]
    assert bench_record.main(argv + ["--change-commit", "def5678"]) == 0
    assert json.loads(out.read_text())["commits"] == {"parent": None, "change": "def5678"}
    assert bench_record.main(argv + ["--parent-commit", "abc1234",
                                     "--change-commit", "def5678"]) == 0
    assert json.loads(out.read_text())["commits"] == {"parent": "abc1234", "change": "def5678"}


def test_writes_the_bench_file(tmp_path):
    parent = [_result(tmp_path, "p0", "aa", 2.0)]
    change = [_result(tmp_path, "c0", "bb", 1.0)]
    out = tmp_path / "BENCH_00_x.json"
    argv = ["--parent", str(parent[0]), "--change", str(change[0]), "--out", str(out)]
    assert bench_record.main(argv) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"machine", "commits", "e2e", "layers", "runs"}
    assert doc["e2e"]["census"]["wall_s"]["delta"] == -0.5
