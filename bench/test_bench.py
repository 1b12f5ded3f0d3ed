"""Self-tests of the benchmark harness.

Run from the repository root (about a minute)::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import runner  # noqa: E402
import workloads  # noqa: E402
from workloads import DEV_SEED, HOLDOUT_SEED, WORKLOADS  # noqa: E402

EXACT_COUNTS = (
    "wire_digest",
    "wire_ratio",
    "ahuffman.bits_per_byte",
    "blockcipher.blocks",
    "blockcipher.pad_fraction",
    "keyschedule.attempts",
    "keyschedule.det_bits",
)


@pytest.fixture(scope="module")
def traced_runs():
    """Two zero-second traced runs (the exact items only) per workload."""
    return {
        name: [runner.run_benchmark(name, DEV_SEED, 0, trace=True) for _ in range(2)]
        for name in WORKLOADS
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_exact_counts(traced_runs, name):
    first, second = traced_runs[name]
    assert first["correct"] and second["correct"]
    assert first["report"]["replica_mismatches"] == []
    assert first["metrics"]["trace.replica_ok"]["value"] == 1
    exact = first["report"]["exact"]
    for count in EXACT_COUNTS:
        assert count in exact
    assert exact == second["report"]["exact"]


def test_study_rejections_add_up_to_the_forgeries(traced_runs):
    study = WORKLOADS["study-L3"]
    exact = traced_runs["study-L3"][0]["report"]["exact"]
    rejected = sum(exact[f"{layer}.rejected"] for layer in runner.REJECT_LAYERS)
    assert rejected == study.forgeries * study.exact_items
    assert "attack.residual" in exact


def test_every_listed_per_layer_metric_is_measured(traced_runs):
    for name, (first, _) in traced_runs.items():
        report = first["report"]["metrics"]
        missing = [metric for metric in runner.PER_LAYER if metric not in report]
        assert not missing, (name, missing)


def test_untraced_run_writes_the_same_wire_bytes():
    untraced = runner.run_benchmark("study-L3", DEV_SEED, 0, trace=False)
    traced = runner.run_benchmark("study-L3", DEV_SEED, 0, trace=True)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["report"]["exact"]["wire_digest"] == traced["report"]["exact"]["wire_digest"]
    assert set(untraced["metrics"]) == set(runner.END_TO_END)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_another_seed_changes_the_inputs(name):
    wl = WORKLOADS[name]
    assert wl.key_texts(DEV_SEED) != wl.key_texts(HOLDOUT_SEED)
    dev_keys = [workloads.parse_key(t) for t in wl.key_texts(DEV_SEED)]
    holdout_keys = [workloads.parse_key(t) for t in wl.key_texts(HOLDOUT_SEED)]
    index = wl.exact_items - 1
    assert wl.item(DEV_SEED, index, dev_keys) != wl.item(HOLDOUT_SEED, index, holdout_keys)
    assert wl.item(DEV_SEED, index, dev_keys) == wl.item(DEV_SEED, index, dev_keys)


def test_holdout_seed_gives_other_wire_bytes(traced_runs):
    holdout = runner.run_benchmark("study-L3", HOLDOUT_SEED, 0, trace=True)
    dev = traced_runs["study-L3"][0]
    assert holdout["correct"]
    assert holdout["report"]["exact"]["wire_digest"] != dev["report"]["exact"]["wire_digest"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == runner.PER_LAYER


def test_without_the_sources_the_benchmark_fails_quietly(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-L3", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
