"""Benchmark for dpe-codec: closed-loop decode workloads, end to end and
per layer.  See README.md in this directory for the workloads and metrics.

Run from the repository root:

    python3 bench/run.py --workload read-stream --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload multi-error --seed 1 --out bench/results/base.jsonl
    python3 bench/run.py --compare bench/results/base.jsonl bench/results/new.jsonl

A run prints a details line and then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from a
traced run over a fixed amount of work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_library():
    """Import dpe_codec from this checkout's sources, never from elsewhere."""
    if not (SRC / "dpe_codec" / "__init__.py").is_file():
        sys.exit(f"error: no dpe_codec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpe_codec

    if Path(dpe_codec.__file__).resolve().parent != SRC / "dpe_codec":
        sys.exit(f"error: dpe_codec was imported from {dpe_codec.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def run_untraced(workloads, name: str, seed: int, seconds: float) -> dict:
    result = workloads.run(name, seed, seconds)
    metrics, details = workloads.end_to_end(result)
    return {"correct": result.tally.wrong == 0, "attempted": result.tally.attempted,
            "failed": result.tally.failed, "metrics": metrics, "details": details}


def run_traced(workloads, tracing, name: str, seed: int) -> dict:
    """The same fixed work twice: untraced, then traced.  The difference of
    the two loop times is the tracing overhead."""
    quota = workloads.WORKLOADS[name][2]
    plain = workloads.run(name, seed, 0, quota)
    rss = peak_rss_mb()
    tracer = tracing.Tracer()
    undo = tracer.install()
    try:
        traced = workloads.run(name, seed, 0, quota)
    finally:
        tracer.uninstall(undo)
    summary = tracer.summary()
    metrics = tracing.per_layer(summary, tracer.counts)
    metrics["trace.overhead_s"] = {"value": traced.loop_s - plain.loop_s, "unit": "s"}
    metrics["dirty_read_ratio"] = {
        "value": traced.tally.dirty / max(traced.tally.attempted, 1), "unit": "ratio"}
    metrics["process.peak_rss_mb"] = {"value": rss, "unit": "MB"}
    details = {
        "blocks": traced.blocks,
        "untraced_loop_s": plain.loop_s,
        "traced_loop_s": traced.loop_s,
        "nesting_errors": summary["nesting_errors"],
        "reads": {s.case.scheme: s.reads for s in traced.streams},
        "failures": traced.tally.failures,
    }
    return {"correct": traced.tally.wrong == 0 and summary["nesting_errors"] == 0,
            "attempted": traced.tally.attempted, "failed": traced.tally.failed,
            "metrics": metrics, "details": details}


def compare(old_path: str, new_path: str) -> None:
    """Print new/old ratios of each metric's median, one row per workload."""

    def medians(path):
        runs: dict = {}
        with open(path) as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    key = (rec["workload"], rec["trace"])
                    for metric, entry in rec["metrics"].items():
                        runs.setdefault(key, {}).setdefault(metric, []).append(entry["value"])
        return {key: {m: statistics.median(v) for m, v in ms.items()} for key, ms in runs.items()}

    old, new = medians(old_path), medians(new_path)
    for key in sorted(old.keys() & new.keys()):
        cells = []
        for metric in sorted(old[key].keys() & new[key].keys()):
            base = old[key][metric]
            ratio = f"{new[key][metric] / base:.3f}" if base else "n/a"
            cells.append(f"{metric}={ratio}")
        print(f"{key[0]} trace={key[1]}  " + "  ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["read-stream", "multi-error"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append each run's record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print new/old metric ratios of two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    load_library()
    import tracing
    import workloads

    name = args.workload
    started = time.time()
    if args.trace:
        record = run_traced(workloads, tracing, name, args.seed)
    else:
        record = run_untraced(workloads, name, args.seed, args.seconds)
    details = record.pop("details")
    details.update(workload=name, trace=args.trace, wall_s=time.time() - started,
                   environment=environment(args.seed))
    print(json.dumps({"details": details}))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps({"workload": name, "trace": args.trace, **record,
                                 "details": details}) + "\n")
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
