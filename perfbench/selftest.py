"""Self-tests for the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run; they
take about a minute, most of it in the tiny-shape smoke runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_package()

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0
    assert harness.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1, 2], 0)
    with pytest.raises(ValueError):
        harness.percentile([1, 2], 101)


def test_block_percentile_is_the_median_of_whole_blocks():
    fast, slow = [1.0] * 100, [3.0] * 100
    # Pooled, 4 slow samples in 300 put the 99th percentile in the slow mode.
    values = fast[:96] + slow[:4] + fast + fast
    assert harness.percentile(values, 99) == 3.0
    # Per block of 100 the p99s are 3, 1, 1: one stalled block does not count.
    assert harness.block_percentile(values, 99, 100) == 1.0
    # An even block count averages the middle two; a partial block is left out.
    assert harness.block_percentile(values[:200] + slow[:50], 99, 100) == 2.0
    with pytest.raises(ValueError):
        harness.block_percentile(fast[:99], 99, 100)


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
        (100_000, 99.99),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert harness.highest_percentile(count) == expected



# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["wall_s", "batch.draw_s", "rare_events.ess_ratio", "a-b.c_1", "9x"]
)
def test_valid_metric_names(name):
    assert harness.check_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "mcells/s", "hit_µs", "a,b", None])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        harness.check_name(name)


def test_benchmark_json_matches_harness():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        harness.check_name(metric["name"])


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def _bench(name: str, work: str, **kwargs) -> harness.Bench:
    workload = workloads.build(name, "smoke")
    return harness.Bench(workload, workloads.DEFAULT_SEED, work, **kwargs)


@pytest.fixture
def work():
    os.makedirs(run.RUNS, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_clean_pass_has_no_failures(work):
    bench = _bench("sweep-cold", work)
    record = bench.run_pass()
    assert bench.failed == 0, bench.failures
    assert record.attempted == len(bench.workload.points) * (
        1 + bench.workload.replays
    )
    assert len(record.latencies) == bench.workload.replays * len(
        bench.workload.points
    )


def test_raising_grid_fails_all_its_points(work):
    bench = _bench("sweep-cold", work)
    first = bench.workload.calls[0]
    bench.workload.calls[0] = workloads.Call(
        "run_grid", (first.args[0], -1, first.args[2]), {}, first.points
    )
    bench.run_pass()
    # The bad grid fails cold, and its points then miss on every replay.
    per_point = 1 + bench.workload.replays
    assert bench.failed == len(first.points) * per_point
    assert all("raised" in m or "warm" in m for m in bench.failures)


def test_pinned_digest_mismatch_fails(work):
    bench = _bench("sweep-cold", work)
    label = bench.workload.points[0].label
    bench.pinned = {label: "0" * 64}
    bench.run_pass()
    assert any(label in m and "pinned" in m for m in bench.failures)


def test_cache_replay_counts_misses(work):
    bench = _bench("cache-replay", work)
    bench.prefill()
    assert bench.attempted == len(bench.workload.points)
    assert bench.failed == 0
    for entry in os.listdir(bench.cache_dir):
        if entry.endswith(".npz"):
            os.remove(os.path.join(bench.cache_dir, entry))
    record = bench.run_pass()
    # The first replay misses everywhere (and re-stores); later ones hit.
    assert record.failed == len(bench.workload.points)
    assert all("missed" in m for m in bench.failures)


def test_tails_agree():
    def estimate(p, low, high):
        return SimpleNamespace(probability=p, ci_low=low, ci_high=high)

    assert workloads.tails_agree(estimate(1.0, 0.9, 1.1), estimate(1.1, 1.0, 1.2))
    assert not workloads.tails_agree(
        estimate(1.0, 0.99, 1.01), estimate(2.0, 1.99, 2.01)
    )
    assert not workloads.tails_agree(
        estimate(1.0, float("nan"), 1.1), estimate(1.0, 0.9, 1.1)
    )


# ----------------------------------------------------------------------
# Smoke runs of the command
# ----------------------------------------------------------------------
def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(
        ROOT,
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        str(trace),
        "--shape",
        "smoke",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-2] if " " in line}
    for name, unit in harness.END_TO_END + harness.PRINTED_ONLY + expected:
        assert printed.get(name) == unit, name
    assert printed.get("failed_frac") == "ratio"


def test_without_source_exits_nonzero_and_prints_no_result():
    os.makedirs(run.RUNS, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=run.RUNS)
    try:
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _run(bare, "--workload", "sweep-cold", "--seed", "1", "--seconds", "1")
        assert done.returncode != 0
        assert "correct" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
