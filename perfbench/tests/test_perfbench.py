"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(workload):
    first = gen.build(workload, 5, "tiny").files()
    again = gen.build(workload, 5, "tiny").files()
    other = gen.build(workload, 6, "tiny").files()
    assert first == again
    assert first != other


def _worker(workload: str, directory: Path, hash_seed: str, trace: int) -> dict:
    out = directory / f"out-{hash_seed}-{trace}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--dir", str(directory),
         "--mode", "measure", "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        env=env, check=True, timeout=120, capture_output=True,
    )
    return json.loads(out.read_text())


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_digest_is_stable_across_hash_seeds_and_tracing(workload, tmp_path):
    gen.write(gen.build(workload, 3, "tiny"), tmp_path)
    plain = _worker(workload, tmp_path, "0", 0)
    assert _worker(workload, tmp_path, "12345", 0)["digest"] == plain["digest"]
    traced = _worker(workload, tmp_path, "0", 1)
    assert traced["digest"] == traced["untraced_digest"] == plain["digest"]


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_passes(trace):
    proc = _run(["--workload", "all", "--seed", "1", "--seconds", "0.2", "--trace", trace,
                 "--scale", "tiny"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert "check expected digest: ok" in proc.stderr
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "flat-fixture", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_meter_spends_its_share_and_scales_times():
    import speed

    meter = speed.Meter(share=0.5)
    meter.charge(0.02)
    assert meter.slices > 0 and 0.01 <= meter.spent < 0.01 + 0.05
    assert meter.slowdown() == (meter.spent / meter.slices) / speed.REF_SLICE_S
