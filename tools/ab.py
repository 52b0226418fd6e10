"""Paired in-process timing of one benchmark workload on two source trees.

Usage, from the root of a checkout:

    python3 tools/ab.py A B --workload mallows-study --ops 300

A and B are checkout directories or git revisions of this repository; a
revision's ``src/`` is exported with ``git archive`` into a temporary
directory. Both trees' ``catdom`` packages are loaded into this one process,
each under its own copy of this checkout's ``bench/workloads.py``, and each
workload is made with seed 1, as the benchmark's CI runs use. Operation i runs on both trees,
alternating which goes first, each call after ``gc.collect()`` and timed
with ``perf_counter``; both outputs go through the workload's check, and
their reprs must be equal.

Prints the figures for a reader and, last, one JSON object: the median
ratio of B's op time to A's with its quartiles, the number of ops B ran
faster, and each side's p50 in ms. Exits 1 when set-up or a check fails or
the two outputs differ, 2 on a usage error.

Both trees share one process, one numpy and one allocator, so import time,
set-up time and peak memory are not compared: ``bench/run.py`` reports
those.
"""

from __future__ import annotations

import os

# one thread, as the benchmark's workers run, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
NAMES = ("mallows-study", "mallows-wide", "exact-analysis")
SEED = 1


class Refused(Exception):
    """A tree that cannot be found or loaded."""


def export(spec: str, tmp: Path) -> Path:
    """The checkout directory ``spec``, or the ``src/`` of git revision
    ``spec`` exported under ``tmp``."""
    path = Path(spec)
    if path.is_dir():
        return path.resolve()
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{spec}^{{commit}}"],
        capture_output=True, text=True,
    )
    if rev.returncode != 0:
        raise Refused(f"{spec!r} is neither a directory nor a git revision")
    sha = rev.stdout.strip()
    out = tmp / sha
    if not out.exists():
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", sha, "src"],
            capture_output=True, check=True,
        )
        # the "data" filter refuses links and paths out of the directory
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(out, **safe)
    return out


def drop_catdom() -> None:
    for name in [n for n in sys.modules if n == "catdom" or n.startswith("catdom.")]:
        del sys.modules[name]


def load(tree: Path, name: str):
    """This checkout's ``bench/workloads.py`` as module ``name``, bound to
    the ``catdom`` under ``tree/src``. ``catdom`` leaves ``sys.modules``
    afterwards, so the next tree imports its own."""
    src = (tree / "src").resolve()
    if not (src / "catdom" / "__init__.py").is_file():
        raise Refused(f"{tree} holds no src/catdom package")
    drop_catdom()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        drop_catdom()
    if not Path(module.cd.__file__).resolve().is_relative_to(src):
        raise Refused(f"{name} imported catdom from {module.cd.__file__}, not from {src}")
    return module


def make(module, args, workdir: Path, label: str):
    """The workload on one tree; its set-up runs one op and checks it."""
    try:
        return module.make(args.workload, SEED, workdir)
    except Exception as exc:
        raise RuntimeError(f"set-up failed on {label}: {exc}") from None


def compare(work, ops: int) -> tuple[list[float], list[float]]:
    """Each side's op times over ``ops`` paired ops. Raises RuntimeError
    when a check fails or the outputs differ."""
    times: tuple[list[float], list[float]] = ([], [])
    for i in range(ops):
        outs = [None, None]
        first = i % 2
        for side in (first, 1 - first):
            gc.collect()
            t0 = perf_counter()
            outs[side] = work[side].op(i)
            times[side].append(perf_counter() - t0)
        for side, label in enumerate("AB"):
            try:
                work[side].check(i, outs[side])
            except Exception as exc:
                raise RuntimeError(f"op {i}: check failed on {label}: {exc}") from None
        if repr(outs[0]) != repr(outs[1]):
            raise RuntimeError(f"op {i}: the outputs of A and B differ")
    return times


def report(args, times: tuple[list[float], list[float]]) -> dict:
    ratios = [b / a for a, b in zip(*times)]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    return {
        "workload": args.workload,
        "a": args.a,
        "b": args.b,
        "ops": args.ops,
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "b_faster": sum(r < 1 for r in ratios),
        "a_p50_ms": statistics.median(times[0]) * 1e3,
        "b_p50_ms": statistics.median(times[1]) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="paired in-process timing of two catdom trees")
    parser.add_argument("a", help="base tree: a checkout directory or a git revision")
    parser.add_argument("b", help="changed tree: a checkout directory or a git revision")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--ops", type=int, default=200)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    with tempfile.TemporaryDirectory(prefix="catdom-ab-") as tmp:
        tmp = Path(tmp)
        try:
            trees = [export(spec, tmp) for spec in (args.a, args.b)]
            modules = [load(tree, f"_ab_workloads_{label}") for tree, label in zip(trees, "ab")]
        except (Refused, subprocess.CalledProcessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            work = [make(m, args, tmp / f"work-{label}", label) for m, label in zip(modules, "AB")]
            times = compare(work, args.ops)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    doc = report(args, times)
    print(f"{args.workload}: B/A op time {doc['ratio_median']:.3f} "
          f"({doc['ratio_q1']:.3f}, {doc['ratio_q3']:.3f}) over {args.ops} ops, "
          f"B faster in {doc['b_faster']}")
    print(f"p50: A {doc['a_p50_ms']:.3f} ms, B {doc['b_p50_ms']:.3f} ms")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
