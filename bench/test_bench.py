"""The benchmark's own tests: tiny smoke passes, a corrupted artifact, and
the contract between ``run.py`` and ``BENCHMARK.json``.

Run with ``python3 -m pytest -q bench`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

TINY = 0.02  # share of each workload's images and Monte Carlo samples

SPACE_COUNTS = {  # configs, group kernels, distinct groups
    "sparse-mixed": (96, 804, 48),
    "crowd-small": (96, 804, 48),
    "search-wide": (705, 7470, 72),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_pass_is_correct_and_reports_every_metric(workload, tmp_path):
    result = run.run(workload, 5, 0.0, False, tmp_path / "plain", scale=TINY)
    assert result["reasons"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(run.OPS)
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run(workload, 5, 0.0, True, tmp_path / "traced", scale=TINY)
    assert traced["reasons"] == []
    assert traced["failed"] == 0 and traced["attempted"] == 3 * len(run.OPS)
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    configs, kernels, distinct = SPACE_COUNTS[workload]
    assert layers["optimizer.configs"] == configs
    assert layers["optimizer.group_kernels"] == kernels
    assert layers["optimizer.distinct_groups"] == distinct
    # emo --mc and its replay each estimate 6 cells.
    assert layers["emo.mc_samples"] == 2 * 6 * round(500_000 * TINY)


def test_traced_counts_repeat_for_one_seed(tmp_path):
    first = run.run("search-wide", 9, 0.0, True, tmp_path / "a", scale=TINY)["metrics"]
    second = run.run("search-wide", 9, 0.0, True, tmp_path / "b", scale=TINY)["metrics"]
    counts = [n for n, unit in run.PER_LAYER.items() if unit == "count" or n == "cli.artifact_bytes"]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_corrupted_artifact_fails_only_its_operation(tmp_path):
    inputs, setup_s, out = run.execute("sparse-mixed", 6, 0.0, False, tmp_path, scale=TINY)
    stats_csv = tmp_path / "stats" / "stats.csv"
    lines = stats_csv.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[2] = str(int(cells[2]) + 1)  # one more face in the first bucket
    lines[1] = ",".join(cells)
    stats_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = run.score(inputs, 6, False, setup_s, out, tmp_path)
    stats_runs = sum(rec["op"] == "stats" for records in out["rounds"] for rec in records)
    assert not result["correct"] and result["failed"] == stats_runs >= 1
    assert all(r.startswith("round 1 stats: check failed") for r in result["reasons"])


def test_times_are_rescaled_by_the_reference_kernel():
    def rec(op, seconds, reference):
        return {"op": op, "seconds": seconds, "reference": reference}

    slow = run.REFERENCE_S * 2  # the machine ran at half its reference speed
    rounds = [[rec(op, 1.0, slow) for op in run.ROUND]] * 3
    metrics = run.end_to_end(rounds, 0.25, 100.0)
    assert metrics["match_s"]["value"] == 0.5
    assert metrics["replay_s"]["value"] == 1.0
    assert metrics["setup_s"]["value"] == 0.25


def test_same_seed_gives_the_same_inputs(tmp_path):
    a = run.generate("crowd-small", 4, tmp_path / "a", TINY)
    b = run.generate("crowd-small", 4, tmp_path / "b", TINY)
    c = run.generate("crowd-small", 5, tmp_path / "c", TINY)
    assert a.annotations.read_bytes() == b.annotations.read_bytes()
    assert a.annotations.read_bytes() != c.annotations.read_bytes()
    assert a.skipped > 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crowd-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
