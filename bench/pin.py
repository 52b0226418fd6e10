"""Write pinned.json: the output digests of every exact-analysis part, for
every pool entry, on the code checked out now.

    PYTHONPATH=src python3 bench/pin.py

Run it only when a change to these outputs is intended, and say so in
CHANGES.md; the benchmark counts every op whose output differs from its
pinned digest as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent


def main() -> int:
    workdir = BENCH / "out" / "tmp-pin"
    try:
        workload = workloads.ExactAnalysis(0, workdir, pinned=None)
        pool = [workload.digests(workload.run_parts(k)) for k in range(workload.POOL)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pinned = {}
    for name in pool[0]:
        values = [entry[name] for entry in pool]
        pinned[name] = values[0] if len(set(values)) == 1 else values
    workloads.PINNED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
