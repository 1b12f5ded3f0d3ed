"""The benchmark and the replicate script run end to end.

Each runs in a fresh interpreter, as ``python3 bench/run.py`` and
``python3 scripts/replicate_experiments.py`` run from a shell, in
``tmp_path`` with ``src`` on the path and no bytecode written.  A name or
attribute the library drops fails here even where no import names it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_script(tmp_path, script: str, *argv: str) -> str:
    """The standard output of ``script`` (a path under the repository root) run with ``argv``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(ROOT / script), *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_short_benchmark_run_checks_every_operation(tmp_path, workload):
    argv = ("--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", "0")
    # the last line is {"correct", "attempted", "failed", "metrics"}
    result = json.loads(run_script(tmp_path, "bench/run.py", *argv).splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_the_replicate_script_writes_three_contrast_csvs(tmp_path):
    out = tmp_path / "replicate"
    run_script(tmp_path, "scripts/replicate_experiments.py", "--out-dir", str(out), "--seeds", "2")
    for name in ("M", "M1", "M2"):
        assert (out / f"contrast_{name}.csv").stat().st_size > 0
