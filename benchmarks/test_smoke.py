"""Smoke test for the benchmark: every workload at tiny size, untraced and traced.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Figures that depend on how many cycles fit in the run, not on the inputs.
TIME_DEPENDENT = {"row_latency_samples"}


def bench(capsys, workload: str, trace: int, seed: int = 3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(capsys, workload):
    report, result = bench(capsys, workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_counts_repeat(capsys, workload):
    runs = [bench(capsys, workload, 1) for _ in range(2)]
    for report, result in runs:
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert result["metrics"]["error_rate"]["value"] == 0
        assert report["tracing"]["unseen_calls"]
    counts = [
        {name: m["value"] for name, m in result["metrics"].items()
         if m["unit"] in ("count", "bytes", "fraction", "dB") and name not in TIME_DEPENDENT}
        for _, result in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["forest.nodes" if workload != "simulate" else "channel.tilings"] > 0


def test_tracer_restores_the_modules(capsys):
    import lumenrem

    bench(capsys, "query", 1)
    assert not hasattr(lumenrem.evalmap.fit_model, "__wrapped__")
    assert not hasattr(lumenrem.cli.generate_fixed, "__wrapped__")
    assert not hasattr(json.load, "__wrapped__")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
