"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this script once per set-up sample and once per
measurement, each time as a fresh single-threaded Python process. It prints
``READY`` when set-up is done (``run.py`` times set-up up to that line) and,
unless ``--mode setup``, one JSON line with the measurement last.

Modes:

* ``setup``: set up and exit.
* ``measure``: closed loop with one caller for ``--seconds`` seconds,
  tracing off.
* ``trace``: the same loop untraced for half the time, then with every layer
  wrapped by ``tracer`` for the other half, over the same operations; reports
  per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# The reference kernel is a fixed piece of pure-Python work, timed between
# consecutive ops and at both ends of set-up. On a shared machine the speed
# of a core drifts (by up to 1.8x, for tens of seconds, on the 2-vCPU Xeon
# VM the benchmark was defined on), and the drift slows the kernel and the
# op alike; times are reported scaled by REFERENCE_S / (kernel time), so the
# drift cancels. REFERENCE_S is the kernel's time in that VM's fast spells,
# which keeps the scaled times close to the wall times of those spells.
REFERENCE_S = 0.0025


def reference_s(runs: int = 1) -> float:
    """Wall time of the reference kernel, the median of ``runs`` runs."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        table: dict = {}
        acc = 0
        for i in range(6000):
            key = (i, i * 7 % 13, i & 5)
            table[key] = table.get(key, 0) + 1
            acc += len(table) if i % 3 else key[1]
        times.append(perf_counter() - t0)
    return sorted(times)[runs // 2]


def measure(workload, seconds: float, recorder=None) -> dict:
    """Closed loop with one caller: ops back to back until ``seconds`` pass.

    An op that raises or whose output fails its check counts as failed; the
    loop goes on. Latency covers the call into catdom, not the check. Each
    op's ``reference_s`` is the mean of the kernel runs just before and just
    after it.
    """
    latencies: list[float] = []
    references: list[float] = []
    errors: list[str] = []
    counts: dict[str, float] = {}
    failed = 0
    deadline = perf_counter() + seconds
    before = reference_s()
    i = 0
    while True:
        out, error = None, None
        t0 = perf_counter()
        if recorder is not None:
            recorder.enter(tracer.ROOT)
        try:
            out = workload.op(i)
        except Exception:
            error = traceback.format_exc()
        finally:
            if recorder is not None:
                recorder.leave()
        t1 = perf_counter()
        latencies.append(t1 - t0)
        after = reference_s()
        references.append((before + after) / 2)
        before = after
        if recorder is not None:
            recorder.end_op(REFERENCE_S / references[-1])
        if error is None:
            try:
                workload.check(i, out)
                for key, value in workload.counts(out).items():
                    counts[key] = counts.get(key, 0) + value
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failed += 1
            if len(errors) < 3:
                errors.append(f"op {i}: {error}")
        i += 1
        if t1 >= deadline:
            break
    return {
        "latencies_s": latencies,
        "reference_s": references,
        "failed": failed,
        "errors": errors,
        "counts": counts,
    }


def scaled_latencies(run: dict) -> list[float]:
    """Op latencies at the reference speed (see REFERENCE_S)."""
    return [lat * REFERENCE_S / ref for lat, ref in zip(run["latencies_s"], run["reference_s"])]


def ops_per_s(run: dict) -> float:
    done = len(run["latencies_s"]) - run["failed"]
    return done / sum(scaled_latencies(run))


def layer_metrics(workload, untraced: dict, traced: dict, recorder) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced half, per traced op, with units;
    times are scaled to the reference speed."""
    names = tracer.LAYER_NAMES
    ops = len(traced["latencies_s"])
    metrics = {}
    for idx, name in enumerate(names):
        metrics[f"{name}.calls"] = (recorder.calls[idx] / ops, "calls/op")
        metrics[f"{name}.self_s"] = (recorder.self_s[idx] / ops, "s/op")
    for name in (
        "bounds.search_orders.evaluated",
        "bounds.search_orders.evaluated_ratio",
        "axioms.checked",
    ):
        unit = "ratio" if name.endswith("ratio") else "count/op"
        metrics[name] = (traced["counts"].get(name, 0) / ops, unit)
    states = workload.info.get("spne_states", 0)
    spne = names.index("spne.solve_spne")
    spne_s = recorder.total_s[spne]
    metrics["spne.states"] = (states, "count")
    metrics["spne.states_per_s"] = (
        states * recorder.calls[spne] / spne_s if spne_s else 0.0,
        "1/s",
    )
    metrics["mallows.sampler_cold_s"] = (workload.info.get("sampler_cold_s", 0.0), "s")
    metrics["mallows.sampler_cold_mb"] = (workload.info.get("sampler_cold_mb", 0.0), "MB")
    metrics["trace.overhead_ops_per_s"] = (ops_per_s(traced) - ops_per_s(untraced), "1/s")
    wall = recorder.total_s[tracer.ROOT]
    metrics["trace.self_share"] = (sum(recorder.self_s[: len(names)]) / wall, "ratio")
    missing = [
        name
        for name in workload.expected_layers
        if recorder.calls[names.index(name)] == 0
    ]
    metrics["trace.missing_layers"] = (len(missing), "count")
    return metrics, missing


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.mode == "trace",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    setup_reference = reference_s(3)
    import catdom

    if Path(catdom.__file__).resolve().parent != ROOT / "src" / "catdom":
        print(f"error: catdom imported from {catdom.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        print(f"READY {(setup_reference + reference_s(3)) / 2!r}", flush=True)
        if args.mode == "setup":
            return 0
        result = {"provenance": provenance(args), "info": workload.info}
        if args.mode == "measure":
            run = measure(workload, args.seconds)
            result["runs"] = [run]
        else:
            untraced = measure(workload, args.seconds / 2)
            recorder = tracer.Recorder()
            uninstall = tracer.install(recorder)
            try:
                traced = measure(workload, args.seconds / 2, recorder)
            finally:
                uninstall()
            metrics, missing = layer_metrics(workload, untraced, traced, recorder)
            result["runs"] = [untraced, traced]
            result["layer_metrics"] = metrics
            result["missing_layers"] = missing
            result["spans_dropped"] = recorder.dropped
            recorder.save(OUT / f"{args.workload}.spans.npz")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
