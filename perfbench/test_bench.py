"""Self-test for the benchmark, with no timing bound.

Every workload runs at a tiny size with both trace settings, and the
result line must match the schema and the metric names and units in
BENCHMARK.json.  Also: the traced run's self times plus cli.untraced_s add
up to its wall time, the full fig4 reference command still writes the
reference CSV, and run.py refuses to run without the sources.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import FIG4_REFERENCE_ARGV, REFERENCE, WORKLOADS, sha256  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_names_the_runner_and_its_workloads():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    seed = 7
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if trace == 0:
            assert got["value"] > 0, m["name"]
    if trace == 1:
        report = json.loads((ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace1.json").read_text())
        wall = sum(report["traced_wall_s_raw"]) / len(report["traced_wall_s_raw"])
        assert report["spans_self_sum_plus_untraced_s"] == pytest.approx(wall, rel=1e-9, abs=1e-9)
        assert report["environment"]["python"] and report["environment"]["numpy"]


def test_fig4_reference_command_writes_reference_csv(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "hesnet.cli", *FIG4_REFERENCE_ARGV, "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=600)
    want = REFERENCE["fig4-reference-command"]["sha256"]["sweep_p_avg_mw.csv"]
    assert sha256(tmp_path / "sweep_p_avg_mw.csv") == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "fig4-sweep", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
