"""Tests of the benchmark itself: inputs, oracle, span arithmetic, smoke runs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bruteforce import TWO_SOLUTION_TABLE, Oracle, two_solution_mismatch  # noqa: E402
from inputs import cube_triples, pairwise_coprime, solve_check_triples  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from spans import LAYER_METRICS, Recorder, layer_metrics, layer_totals, self_times  # noqa: E402


def test_solve_check_sample_is_seeded_distinct_and_pairwise_coprime():
    first = solve_check_triples(7, count=500)
    assert first == solve_check_triples(7, count=500)
    assert first != solve_check_triples(8, count=500)
    assert len(set(first)) == 500
    for a, b, c in first:
        assert 2 <= a <= 200 and 1 <= b <= 200 and 2 <= c <= 200
        assert pairwise_coprime(a, b, c)


def test_oracle_reproduces_the_two_solution_table():
    oracle = Oracle()
    rows = {t: oracle.solutions(*t) for t in cube_triples(30)}
    found = {t: s for t, s in rows.items() if len(s) >= 2}
    assert len(found) == 9
    assert found == {t: s for t, s in TWO_SOLUTION_TABLE.items() if max(t) <= 30}
    assert two_solution_mismatch(rows, 30) is None
    assert oracle.solutions(2, 89, 91) == TWO_SOLUTION_TABLE[(2, 89, 91)]


def test_oracle_flags_wrong_answers():
    oracle = Oracle()
    assert oracle.mismatch(2, 1, 3, [[1, 1], [3, 2]]) is None
    assert oracle.mismatch(2, 1, 3, [[1, 1]]) is not None  # a solution left out
    assert oracle.mismatch(2, 1, 3, [[3, 2], [1, 1]]) is not None  # not sorted
    assert oracle.mismatch(2, 1, 3, [[1, 1], [3, 2], [5, 3]]) is not None  # a false one
    assert oracle.mismatch(2, 1, 3, [[1, 1], [3, 2], [200, 90]]) is not None  # false, beyond bound
    assert oracle.mismatch(2, 1, 3, [[1, 1], [3, 10**6]]) is not None
    assert two_solution_mismatch({(2, 1, 3): ((1, 1),)}, 3) is not None


def test_self_times_on_a_synthetic_span_tree():
    rec = Recorder()
    root = rec.add("cli.scan", 0, 100)
    verify = rec.add("certificate.verify", 10, 40, root)
    rec.add("arith.is_prime", 15, 25, verify)
    inner = rec.add("arith.factorize", 26, 36, verify)
    rec.add("arith.is_prime", 30, 33, inner)
    solve = rec.add("engine.solve", 50, 90, root)
    rec.add("arith.is_prime", 60, 70, solve)

    assert self_times(rec.parent, rec.start, rec.end) == [30, 10, 10, 7, 3, 30, 10]
    totals = layer_totals(rec)
    assert totals["arith.is_prime"]["calls"] == 3
    assert totals["arith.is_prime"]["self_s"] == pytest.approx(23e-9)
    assert totals["certificate.verify"]["self_s"] == pytest.approx(10e-9)
    # kernel time owned by verify: 10 + 7 + 3, not the 10 under solve
    assert totals["certificate.verify"]["kernel_s"] == pytest.approx(20e-9)
    assert totals["engine.solve"]["kernel_s"] == pytest.approx(10e-9)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(100e-9)  # the root
    metrics = layer_metrics(rec)
    assert metrics["cli.scan.other_s"] == pytest.approx(30e-9)
    assert metrics["certificate.verify.kernel_s"] == pytest.approx(20e-9)


def test_wrap_links_nested_calls_and_observes_outcomes():
    rec = Recorder()
    leaf = rec.wrap("arith.is_prime", lambda n: n > 1, lambda r, args, result: r.count("seen"))
    outer = rec.wrap("engine.solve", lambda n: [leaf(k) for k in range(n)])
    assert outer(3) == [False, False, True]
    assert list(rec.parent) == [-1, 0, 0, 0]
    assert rec.counts == {"seen": 3}
    assert all(s <= e for s, e in zip(rec.start, rec.end))
    own = self_times(rec.parent, rec.start, rec.end)
    assert sum(own) == rec.end[0] - rec.start[0]


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = [n for n, _ in END_TO_END] if trace == "0" else [n for n, _, _ in LAYER_METRICS]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = _run(tmp_path, "--workload", "scan-serial", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
