"""Smoke-sized runs of every benchmark workload, verification on.

Each workload runs on a small case for a moment, traced and untraced,
through the same entry point the benchmark command uses; the runs must
verify their outputs and print every metric ``BENCHMARK.json`` names.
A change that breaks a workload, its verification or a layer wrapper
fails here instead of at benchmark time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALL = {
    "service-mixed": {
        "blocks": 120, "failing": 6, "defects": 3, "tail": 3,
        "rounds_per_s": 1.0,
    },
    "edit-recheck": {
        "blocks": 120, "failing": 6, "defects": 3, "tail": 0,
        "rounds_per_s": 6.0, "lookups_per_s": 1.0, "verify_every": 5,
    },
    "cold-check": {
        "blocks": 120, "failing": 6, "defects": 3, "tail": 3,
        "rounds_per_s": 1.5, "lookups_per_s": 1.0,
    },
}


def spec() -> "dict":
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_names_the_workloads() -> None:
    names = [workload["name"] for workload in spec()["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_run(workload: str, trace: int, monkeypatch, capsys) -> None:
    monkeypatch.setitem(run.WORKLOADS, workload, SMALL[workload])
    code = run.main([
        "--workload", workload, "--seed", "7", "--seconds", "2",
        "--trace", str(trace),
    ])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert {name: item["unit"] for name, item in result["metrics"].items()} \
        == {item["name"]: item["unit"] for item in listed}
    for item in result["metrics"].values():
        assert isinstance(item["value"], (int, float))


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Beside only ``BENCHMARK.json`` and its own files, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "edit-recheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
