"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps them out of the repository's default test collection:
they start benchmark processes and take about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(root: Path, workload: str, trace: int, seconds: str = "0.5"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=180,
    )


def test_every_metric_has_a_name_and_a_unit():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
            names.append(metric["name"])
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    for line in proc.stdout.splitlines():
        if line.startswith("provenance "):
            provenance = json.loads(line.split(" ", 1)[1])
            assert {"nproc", "cpu", "python", "numpy", "commit", "seed", "trace"} <= set(provenance)
            assert provenance["trace"] is bool(trace)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.missing_layers"] == 0
        assert 0 < metrics["trace.self_share"] <= 1
        expected = (
            workloads.ExactAnalysis if workload == "exact-analysis" else workloads.MallowsStudy
        ).expected_layers
        for layer in expected:
            assert metrics[f"{layer}.calls"] > 0, layer


def test_corrupted_outputs_count_as_failed(tmp_path, monkeypatch):
    study = workloads.MallowsStudy(0, tmp_path, specs=((2, (2,)),), samples=1)
    honest = study.op

    def corrupted(i):
        rows = honest(i)
        return [[dataclasses.replace(r, mean_egalitarian=r.n**r.p + 1) for r in rows[0]]]

    monkeypatch.setattr(study, "op", corrupted)
    measured = worker.measure(study, 0.2)
    attempted = len(measured["latencies_s"])
    assert measured["failed"] == attempted >= 1

    exact = workloads.ExactAnalysis(0, tmp_path, pinned=json.loads(workloads.PINNED.read_text()))
    k, outs = exact.op(0)
    name, code, stdout, stderr = outs[3]
    assert name == "spne"
    doc = json.loads(stdout)
    doc["utilitarian"] += 1
    outs[3] = (name, code, json.dumps(doc), stderr)
    with pytest.raises(workloads.CheckFailed):
        exact.check(0, (k, outs))

    result = {"runs": [measured], "peak_rss_mb": 1.0}
    monkeypatch.setattr(run, "run_child", lambda args, mode: (0.1, result))
    metrics, _, notes = run.end_to_end(type("Args", (), {"workload": "x"})())
    assert metrics["ok_ratio"][0] == 0
    assert f"failed_ratio = {attempted}/{attempted} = 1" in notes


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "mallows-study", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
