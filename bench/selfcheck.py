"""Quick check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at a tiny size, untraced and traced. Each run must be
correct, fail no operation and report exactly the metrics BENCHMARK.json
names. Then the program is made to return one wrong output at a time: an
exported document with one character changed, a row count off by one, a
wrong extracted size, a valid document rejected. The run must then report
correct = false, or count the operation as failed when the CLI exits non-zero.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from contextlib import contextmanager

import run
import workloads
from multiform import LoadReport, ValidationReport, cli
from multiform.errors import UnknownId

TINY = workloads.Sizes(mixed_objects=12, store_preload=24,
                       store_fresh=4, store_every=3,
                       view_shapes=((3, 2), (2, 5), (1, 40)), setup_repeats=2,
                       min_ops=2, cross_checks=2)

problems = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def tiny(workload, trace=False):
    return run.run(workload, 7, 0, trace, sizes=TINY)


@contextmanager
def replaced(module, name, make):
    """Swap module.name for make(original) while the block runs."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def one_char_changed(fn):
    def call(*args, **kwargs):
        text = fn(*args, **kwargs)
        return text[:-2] + ("x" if text[-2] != "x" else "y") + text[-1:]
    return call


def one_row_more(fn):
    def call(*args, **kwargs):
        report = fn(*args, **kwargs)
        counts = dict(report.counts)
        counts["subdocument"] += 1
        return LoadReport(counts=counts)
    return call


def size_plus_one(fn):
    def call(*args, **kwargs):
        sub = fn(*args, **kwargs)
        return dataclasses.replace(sub, size=sub.size + 1)
    return call


def rejects_all(fn):
    def call(document, schema):
        return ValidationReport(document=document, valid=False,
                                violations=(("/", "rejected"),))
    return call


def unknown_id(fn):
    def call(store, object_id, *args, **kwargs):
        raise UnknownId("complex_object", object_id)
    return call


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in [w["name"] for w in spec["workloads"]]:
            result = tiny(workload, trace)
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                         for m in result["metrics"].values())
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0 and got == want and finite,
                   f"{workload} trace={int(trace)}: correct, nothing failed, "
                   f"the {key} metrics")

    wrong_outputs = (
        (workloads, "export", one_char_changed, "mixed_ingest",
         "an exported document with one character changed"),
        (cli, "export", one_char_changed, "mixed_ingest",
         "a CLI-exported document with one character changed"),
        (workloads, "load", one_row_more, "wide_views",
         "a load that reports one row too many"),
        (cli, "load", one_row_more, "wide_views",
         "CLI load printing one row too many"),
        (workloads, "extract_subdocument", size_plus_one, "store_read",
         "an extracted file size off by one"),
        (cli, "extract_subdocument", size_plus_one, "store_read",
         "a CLI-extracted file size off by one"),
        (workloads, "validate", rejects_all, "mixed_ingest",
         "a valid document rejected"),
    )
    for module, name, make, workload, what in wrong_outputs:
        with replaced(module, name, make):
            result = tiny(workload)
        expect(not result["correct"], f"{workload} catches {what}")

    with replaced(cli, "export", unknown_id):
        result = tiny("mixed_ingest")
    expect(result["failed"] == TINY.cross_checks,
           "mixed_ingest counts every CLI export that exits 4 as failed")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
