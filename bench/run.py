"""catdom benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mallows-study --seed 1 --seconds 30 --trace 0

Workloads: mallows-study, mallows-wide, exact-analysis (see bench/README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it say the
same for a reader, with the run's provenance.

Every process this script starts is a fresh single-threaded Python process
running bench/worker.py, one at a time; set-up is sampled SETUP_RUNS times
and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import REFERENCE_S, ops_per_s, scaled_latencies

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
# Past this many seconds from the start, a running worker is stopped and the
# run fails, so the command ends within three minutes.
RUN_LIMIT_S = 170
STARTED = perf_counter()


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One thread: no BLAS or OpenMP pool next to the single caller.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str) -> tuple[float, dict | None]:
    """Start one worker; returns its set-up time and, unless ``mode`` is
    setup, its result. Set-up time runs from just before the process starts
    to its READY line, so it covers the interpreter and every import; it is
    scaled to the reference speed by the kernel times the worker reports
    with READY."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(RUN_LIMIT_S - (t0 - STARTED), 0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    ready, _, reference = first.partition(" ")
    if code != 0 or ready != "READY":
        raise ChildFailed(f"worker ({mode}) exited {code}")
    setup_s *= REFERENCE_S / float(reference)
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: returns the
    value, the percentile and the number of samples beyond it."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - k - 1


def end_to_end(args) -> tuple[dict, dict, list[str]]:
    setups = [run_child(args, "setup")[0] for _ in range(SETUP_RUNS - 1)]
    setup_s, result = run_child(args, "measure")
    setups.append(setup_s)
    run = result["runs"][0]
    lat = scaled_latencies(run)
    attempted, failed = len(lat), run["failed"]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "ops_per_s": (ops_per_s(run), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"op_tail_ms is p{pct:.1f}: {beyond} of {attempted} ops lie beyond it",
        f"setup_s is the median of {SETUP_RUNS} set-ups: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}",
        f"unscaled: op_p50_ms = {1000 * statistics.median(run['latencies_s']):.6g}, "
        f"op_tail_ms = {1000 * tail(run['latencies_s'])[0]:.6g}; reference kernel "
        f"median {1000 * statistics.median(run['reference_s']):.4g} ms "
        f"(scaled to {1000 * REFERENCE_S:g} ms)",
    ]
    return metrics, result, notes


def per_layer(args) -> tuple[dict, dict, list[str]]:
    _, result = run_child(args, "trace")
    metrics = {k: tuple(v) for k, v in result["layer_metrics"].items()}
    untraced, traced = result["runs"]
    notes = [
        f"traced {len(traced['latencies_s'])} ops after {len(untraced['latencies_s'])} "
        f"untraced ones; spans written to bench/out/{args.workload}.spans.npz"
        + (f" ({result['spans_dropped']} over the span cap not kept)" if result["spans_dropped"] else ""),
    ]
    if result["missing_layers"]:
        notes.append(
            "expected calls but saw none (inlined or removed?): "
            + ", ".join(result["missing_layers"])
        )
    return metrics, result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="catdom benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "catdom" / "__init__.py").is_file():
        print(f"error: no catdom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, result, notes = (per_layer if args.trace else end_to_end)(args)
    except (ChildFailed, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    runs = result["runs"]
    attempted = sum(len(r["latencies_s"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0
    if args.trace:
        # Self times partition the traced ops' time, so they cannot exceed it.
        correct = correct and metrics["trace.self_share"][0] <= 1.0
    for r in runs:
        for error in r["errors"]:
            print(error, file=sys.stderr)

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
