"""Staging benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload mixed_ingest --seed 1 --seconds 36 --trace 0

Run from the repository root. The program is imported from ./src. With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, and the spans go
to .bench_out/. Inputs and stores are made under .bench_work/ and removed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import multiform  # noqa: E402

if Path(multiform.__file__).resolve().parent != ROOT / "src" / "multiform":
    sys.exit(f"multiform was imported from {multiform.__file__}, not from {ROOT / 'src'}")

from workloads import WORKLOADS, Sizes, measure  # noqa: E402

WORK = ".bench_work"
OUT = ".bench_out"


def run(workload, seed, seconds, trace, sizes=Sizes()):
    """Measure in a private directory under .bench_work/; returns the result dict."""
    os.chdir(ROOT)  # documents record file paths relative to the root
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        correct, attempted, failed, metrics, tracer = measure(
            workload, seed, seconds, trace, work, sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{workload}-{seed}.json"))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
