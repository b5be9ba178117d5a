"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench -q

It checks that every metric named in BENCHMARK.json is printed with its
unit, and that a wrong expected output is counted as a failed operation
without crashing the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_inputs import CENSUS_DIGESTS, Sizes  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# 3..10000 holds every census hit, so the census tables are the published
# ones; only the range header of the hit CSVs differs.
TINY_DIGESTS = {
    "shortcut": ("ab811fecfe003493e72ad3440978226f823f935bfec61606ceae64cf5a7f68e4",
                 CENSUS_DIGESTS["shortcut"][1]),
    "classic": ("df2a030362e1db5f33c3b96dbe3460f8e06c8dc3e326f6a1a779ecafcce72b93",
                CENSUS_DIGESTS["classic"][1]),
}
TINY = Sizes(census_range=(3, 10000), census_digests=TINY_DIGESTS,
             window_starts=(256, 128), window_block=64,
             verify_checks=("diophantine",), verify_starts=1,
             triples=50, property_checks=("property_poset_equivalence",),
             setup_imports=1, layer_census_range=(3, 10000),
             layer_census_digests=TINY_DIGESTS)


def run_bench(capsys, workload: str, trace: int, sizes: Sizes = TINY) -> dict:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], sizes=sizes)
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    result = run_bench(capsys, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, BENCH["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])


def test_traced_run_prints_every_layer_metric(capsys):
    result = run_bench(capsys, "census", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, BENCH["per_layer"])


def test_wrong_digest_counts_as_failed_operation(capsys):
    wrong = dict(TINY_DIGESTS, shortcut=("0" * 64, TINY_DIGESTS["shortcut"][1]))
    result = run_bench(capsys, "census", trace=0, sizes=replace(TINY, census_digests=wrong))
    assert not result["correct"]
    assert result["failed"] == 1
    assert_metrics(result, BENCH["end_to_end"])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
