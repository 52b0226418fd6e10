"""Record one benchmark baseline as a BENCH_<topic>.json file.

Usage:

    python3 tools/bench_record.py --out BENCH_<topic>.json [--root CHECKOUT]

Runs ``bench/run.py`` of the checkout at ``--root`` (default: this one) on
every workload with seed 1 for 30 s, once with ``--trace 0`` (the end-to-end
metrics) and once with ``--trace 1`` (the per-layer metrics), one run at a
time, and writes what each run printed (metrics, provenance, set-up info and
notes) with the machine, Python, numpy and that checkout's commit. Each run
takes about 30 s plus a few seconds of set-up.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mallows-study", "mallows-wide", "exact-analysis")
SEED = 1
SECONDS = 30


def run(root: Path, workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py",
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", str(SECONDS),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["command"] = " ".join(["python3", *cmd[1:]])
    out["notes"] = []
    for line in lines[:-1]:
        key, _, rest = line.partition(" ")
        if key in ("provenance", "info"):
            out[key] = json.loads(rest)
        elif line.partition(" = ")[0] not in out["metrics"]:
            out["notes"].append(line)
    return out


def commit(root: Path) -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record a catdom benchmark baseline")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parent.parent))
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    runs = {
        w: {f"trace{t}": run(root, w, t) for t in (0, 1)}
        for w in WORKLOADS
    }
    first = runs[WORKLOADS[0]]["trace0"]["provenance"]
    doc = {
        "commit": commit(root),
        "machine": {"cpu": first["cpu"], "nproc": first["nproc"]},
        "python": first["python"],
        "numpy": first["numpy"],
        "workloads": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
