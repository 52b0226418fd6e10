"""Smoke test of ``tools/ab.py``, the paired in-process timing tool."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_compares_equal():
    # both sides load this checkout's src/, so every output must match
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "mallows-study", "--ops", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    doc = json.loads(run.stdout.splitlines()[-1])
    assert set(doc) == {
        "workload", "a", "b", "ops", "ratio_median", "ratio_q1", "ratio_q3",
        "b_faster", "a_p50_ms", "b_p50_ms",
    }
    assert (doc["workload"], doc["ops"]) == ("mallows-study", 4)
    assert 0 < doc["ratio_q1"] <= doc["ratio_median"] <= doc["ratio_q3"]
    assert 0 <= doc["b_faster"] <= 4
    assert doc["a_p50_ms"] > 0 and doc["b_p50_ms"] > 0
