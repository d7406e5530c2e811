"""The three workloads and the closed loop that measures them.

Every workload runs in one process and thread. Each operation starts when
the previous one has finished. A run is made of whole rounds, so every run
attempts the same operations in the same proportions. Outputs are checked
after each operation, outside its timed region.
"""

from __future__ import annotations

import io
import os
import random
import resource
import sys
import traceback
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

from multiform import (
    OdsStore,
    builtin_dtd_text,
    builtin_schema,
    cli,
    export,
    extract_subdocument,
    load,
    load_sidecar,
    make_complex_object,
    map_schema,
    parse_dtd,
    serialize,
    shred,
    validate,
)
from multiform.xmldoc import parse_document

from checks import (
    CheckFailed,
    check_cli,
    check_counts,
    check_document,
    check_load_stdout,
    check_same,
)
from inputs import MIXED, STORED, make_pool, make_view_object
from tracing import NullTracer, Tracer, count_elements, layer_metrics, traced_cli

# (tuples, cells per tuple) of the wide_views objects: long views up to 900
# tuples and wide ones up to 900 cells in a tuple. Both stop short of the
# ~976 where shredding overflows the stack.
WIDE_SHAPES = ((100, 2), (12, 50), (120, 3), (150, 2), (100, 6), (6, 100),
               (180, 2), (220, 3), (60, 10), (3, 200), (260, 2), (320, 2),
               (30, 20), (2, 400), (400, 2), (520, 2), (1, 650), (700, 2),
               (1, 900), (900, 2))


@dataclass(frozen=True)
class Sizes:
    """How much input each workload makes; run.py uses the defaults."""

    mixed_objects: int = 240
    store_preload: int = 2000
    store_fresh: int = 100
    store_every: int = 10       # store_read stages one document per this many ops
    view_shapes: tuple = WIDE_SHAPES
    setup_repeats: int = 100
    min_ops: int = 100          # of each type, so that a p90 has ten samples above it
    cross_checks: int = 10      # objects also run through the CLI after the loop


class Tally:
    """Operations attempted, failed and timed in one run."""

    def __init__(self):
        self.stage_ns = []
        self.export_ns = []
        self.rows = 0
        self.timed_ns = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.block_starts = []  # (stages, exports, rows, timed_ns) when each block began

    def new_block(self):
        self.block_starts.append(
            (len(self.stage_ns), len(self.export_ns), self.rows, self.timed_ns))

    def blocks(self):
        """(stage times, export times, rows, ns) of each block."""
        ends = self.block_starts[1:] + [
            (len(self.stage_ns), len(self.export_ns), self.rows, self.timed_ns)]
        return [(self.stage_ns[s0:s1], self.export_ns[e0:e1], r1 - r0, n1 - n0)
                for (s0, e0, r0, n0), (s1, e1, r1, n1) in zip(self.block_starts, ends)]

    def run(self, tracer, fn, *args, timed=True):
        """One operation; None when it failed or its output was wrong."""
        self.attempted += 1
        tracer.op = self.attempted if timed else 0
        try:
            return fn(tracer, *args)
        except CheckFailed as exc:
            self.mismatches.append(str(exc))
            if len(self.mismatches) <= 5:
                print(f"mismatch: {exc}", file=sys.stderr)
        except Exception:  # the program failed this operation; the run goes on
            self.failed += 1
            if self.failed <= 5:
                traceback.print_exc(file=sys.stderr)
        finally:
            tracer.op = 0
        return None

    def skip(self):
        """An operation whose input an earlier failed operation should have made."""
        self.attempted += 1
        self.failed += 1

    def staged(self, ns, rows):
        self.stage_ns.append(ns)
        self.rows += rows
        self.timed_ns += ns

    def exported(self, ns, rows):
        self.export_ns.append(ns)
        self.rows += rows
        self.timed_ns += ns

    def ops(self):
        return len(self.stage_ns) + len(self.export_ns)


# Flush policy for every store the benchmark measures, the CLI's included:
# no syncs, and the rollback journal in memory. Under Python's defaults each
# commit waits for the disk, and on a shared virtual disk that wait drifted
# enough to double stage p90 for minutes at a time.
FLUSH_PRAGMAS = ("PRAGMA synchronous = OFF", "PRAGMA journal_mode = MEMORY")


def open_store(rschema, path):
    """OdsStore(rschema, path) under the benchmark's flush policy."""
    store = OdsStore(rschema, path)
    for pragma in FLUSH_PRAGMAS:
        store.conn.execute(pragma)
    return store


@contextmanager
def cli_flush_policy():
    """Make multiform.cli open its stores under the same flush policy."""
    original = cli.OdsStore
    cli.OdsStore = open_store
    try:
        yield
    finally:
        cli.OdsStore = original


def _remove(path):
    if os.path.exists(path):
        os.remove(path)


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def call_cli(tracer, *argv):
    """multiform.cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli." + argv[0]), redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class Workload:
    """Shared parts: the library pipeline, one store, the CLI pipeline.

    Each operation hands its time to `record` before its outputs are
    checked, so a wrong output still counts as a timed operation.
    """

    def __init__(self, work, sizes):
        self.work = work
        self.sizes = sizes
        self.store = None
        self.store_path = os.path.join(work, "ods.db")
        self.docs = {}          # id -> (document loaded under it, rows written)
        self.xml_bytes = 0      # of the documents in the store
        self.texts = {}         # object name -> its latest document

    def loaded(self, spec, text, rows):
        """Note the document the store now holds under the next id."""
        self.docs[len(self.docs) + 1] = (text, rows)
        self.texts[spec.name] = text
        self.xml_bytes += len(text.encode("utf-8"))

    # -- library calls ----------------------------------------------------------------

    def open(self, tracer, path):
        with tracer.span("dtd.parse_dtd"):
            self.schema = parse_dtd(builtin_dtd_text())
        with tracer.span("mapper.map_schema"):
            self.rschema = map_schema(self.schema)
        with tracer.span("loader.store_open"):
            self.store = open_store(self.rschema, path)

    def timed_setup(self, tracer) -> float:
        """Median seconds to parse the DTD, compile it and create an empty store.

        The timed stores are made in memory. A new file store's tables are
        created under Python's default flush settings, before the flush
        policy can be set, and those syncs made the set-up time drift with
        the disk. The run's file stores are created afterwards, untimed.
        """
        times = []
        for _ in range(self.sizes.setup_repeats):
            t0 = perf_counter_ns()
            self.open(tracer, ":memory:")
            times.append(perf_counter_ns() - t0)
            self.store.close()
        self.store = None
        return median(times) / 1e9

    def fresh_store(self, tracer):
        if self.store is not None:
            self.store.close()
        _remove(self.store_path)
        with tracer.span("loader.store_open"):
            self.store = open_store(self.rschema, self.store_path)
        self.docs = {}
        self.xml_bytes = 0

    def watch_sql(self, tracer):
        self.store.conn.set_trace_callback(tracer.count_sql if tracer.on else None)

    def stage(self, tracer, spec, record):
        """Files -> object -> XML -> tree -> validated -> rows -> store."""
        t0 = perf_counter_ns()
        with tracer.span("extract.load_sidecar"):
            sidecar = load_sidecar(spec.sidecar)
        subdocs = []
        for path in spec.files:
            with tracer.span("extract.extract_subdocument"):
                subdocs.append(extract_subdocument(path, sidecar=sidecar))
        with tracer.span("extract.make_complex_object"):
            obj = make_complex_object(spec.name, sidecar.date,
                                      sidecar.source or "Local", subdocs)
        with tracer.span("xmldoc.serialize"):
            text = serialize(obj, self.schema)
        with tracer.span("xmldoc.parse_document"):
            document = parse_document(text)
        with tracer.span("dtd.validate") as vspan:
            report = validate(document.root, self.schema)
        if not report.valid:
            raise CheckFailed(f"{spec.name}: valid document rejected: "
                              f"{report.violations[0]}")
        with tracer.span("loader.shred"):
            rows = shred(document.root, self.schema, self.rschema, report)
        with tracer.span("loader.load") as lspan:
            done = load(rows, self.store)
        record(perf_counter_ns() - t0, done.total)
        self.loaded(spec, text, done.total)
        if tracer.on:
            vspan.work = count_elements(document.root)
            lspan.work = done.total
        check_document(text, spec)
        check_counts(done.counts, spec)
        return True

    def export_doc(self, tracer, oid, record):
        t0 = perf_counter_ns()
        with tracer.span("loader.export"):
            out = export(self.store, oid, self.schema, self.rschema)
        text, rows = self.docs[oid]
        record(perf_counter_ns() - t0, rows)
        check_same(out, text, f"document {oid}")
        return True

    def store_ratio(self) -> float:
        return os.path.getsize(self.store_path) / max(self.xml_bytes, 1)

    # -- the same steps through multiform.cli, untimed ------------------------------------

    def cli_stage(self, tracer, spec, db):
        xml = os.path.join(self.work, f"{spec.name}.xml")
        check_cli(*call_cli(tracer, "ingest", *spec.files, "--sidecar",
                            spec.sidecar, "--out", xml), f"ingest {spec.name}")
        check_cli(*call_cli(tracer, "validate", xml), f"validate {spec.name}")
        code, stdout, stderr = call_cli(tracer, "load", xml, "--db", db)
        check_cli(code, stdout, stderr, f"load {spec.name}", expect_stdout=None)
        text = _read(xml)
        self.loaded(spec, text, sum(spec.counts().values()))
        check_load_stdout(stdout, spec)
        check_document(text, spec)

    def cli_export(self, tracer, oid, db):
        out = os.path.join(self.work, "export.xml")
        check_cli(*call_cli(tracer, "export", "--db", db, "--id", str(oid),
                            "--out", out), f"export {oid}")
        check_same(_read(out), self.docs[oid][0], f"CLI export of document {oid}")
        return True

    def cross_check(self, tracer, tally, specs):
        """Run a few objects through the CLI too; its documents must match."""
        db = os.path.join(self.work, "cross.db")
        _remove(db)
        builtin_schema()  # the CLI's parse of the bundled DTD, once per process
        library_texts = dict(self.texts)
        self.docs = {}

        def one(tracer, spec):
            self.cli_stage(tracer, spec, db)
            oid = len(self.docs)
            check_same(self.docs[oid][0], library_texts[spec.name],
                       f"CLI ingest of {spec.name}")
            return self.cli_export(tracer, oid, db)

        with cli_flush_policy(), traced_cli(cli, tracer) if tracer.on else nullcontext():
            for spec in specs:
                tally.run(tracer, one, spec, timed=False)


def _smallest(specs, n):
    return sorted(specs, key=lambda s: sum(os.path.getsize(f) for f in s.files))[:n]


class FreshStoreRounds(Workload):
    """Each round stages a fixed set of objects into an empty store and
    exports every one right after loading it. With store_per_object each
    object gets an empty store of its own."""

    def __init__(self, work, sizes, pool, store_per_object=False):
        super().__init__(work, sizes)
        self.pool = pool
        self.store_per_object = store_per_object
        self.stages_per_round = len(pool)

    def setup(self, tracer, tally):
        return self.timed_setup(tracer)

    def round(self, tracer, tally):
        for k, spec in enumerate(self.pool):
            if k == 0 or self.store_per_object:
                self.fresh_store(tracer)
                self.watch_sql(tracer)
            if tally.run(tracer, self.stage, spec, tally.staged) is None:
                tally.skip()
                continue
            tally.run(tracer, self.export_doc, len(self.docs), tally.exported)

    def finish(self, tracer, tally):
        ratio = self.store_ratio()
        self.cross_check(tracer, tally, _smallest(self.pool, self.sizes.cross_checks))
        return ratio


def mixed_ingest(rng, work, sizes):
    return FreshStoreRounds(work, sizes, make_pool(
        rng, os.path.join(work, "in"), sizes.mixed_objects, MIXED))


def wide_views(rng, work, sizes):
    directory = os.path.join(work, "in")
    return FreshStoreRounds(work, sizes, [
        make_view_object(rng, directory, k, rows, cols)
        for k, (rows, cols) in enumerate(sizes.view_shapes)],
        store_per_object=True)


class StoreRead(Workload):
    """A preloaded store; exports of random ids with a load every k-th op."""

    stages_per_round = 1

    def __init__(self, rng, work, sizes):
        super().__init__(work, sizes)
        self.preload = make_pool(rng, os.path.join(work, "preload"),
                                 sizes.store_preload, STORED)
        self.fresh = make_pool(rng, os.path.join(work, "fresh"),
                               sizes.store_fresh, STORED,
                               first_index=sizes.store_preload)
        self.pick = random.Random(rng.random())
        self.next_fresh = 0

    def setup(self, tracer, tally):
        seconds = self.timed_setup(tracer)
        self.fresh_store(tracer)
        preload = []
        for spec in self.preload:
            tally.run(tracer, self.stage, spec, lambda ns, rows: preload.append(ns),
                      timed=False)
        return seconds + sum(preload) / 1e9

    def round(self, tracer, tally):
        self.watch_sql(tracer)
        for _ in range(self.sizes.store_every - 1):
            oid = self.pick.randint(1, len(self.docs))
            tally.run(tracer, self.export_doc, oid, tally.exported)
        spec = self.fresh[self.next_fresh % len(self.fresh)]
        self.next_fresh += 1
        tally.run(tracer, self.stage, spec, tally.staged)

    def finish(self, tracer, tally):
        ratio = self.store_ratio()
        specs = _smallest(self.fresh[:self.next_fresh], self.sizes.cross_checks)
        self.cross_check(tracer, tally, specs)
        return ratio


WORKLOADS = {
    "mixed_ingest": mixed_ingest,
    "wide_views": wide_views,
    "store_read": StoreRead,
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name, seed, seconds, trace, work, sizes=Sizes()):
    """Run one workload; returns (correct, attempted, failed, metrics, tracer)."""
    workload = WORKLOADS[name](random.Random(f"{name}:{seed}"), work, sizes)
    # Flush the generated files now, so that their writeback does not slow
    # the commits of the set-up and the first rounds.
    os.sync()
    tracer = Tracer() if trace else NullTracer()
    plain = NullTracer()
    tally = Tally()
    setup_s = workload.setup(tracer, tally)

    # Results are medians over blocks of whole rounds, each block with at
    # least min_ops stages and exports; rounds left over join the last block.
    block = -(-sizes.min_ops // workload.stages_per_round)
    min_rounds = max(block, 3) if trace else block
    # A traced run alternates traced and untraced rounds after a first,
    # untraced one that warms up and is left out of the overhead.
    spent = {None: [0, 0], False: [0, 0], True: [0, 0]}  # traced? -> [ns, ops]
    rounds = 0
    start = perf_counter()
    while rounds < min_rounds or perf_counter() - start < seconds:
        if rounds % block == 0:
            tally.new_block()
        traced = trace and rounds % 2 == 1
        ns, ops = tally.timed_ns, tally.ops()
        workload.round(tracer if traced else plain, tally)
        kind = traced if rounds else None
        spent[kind][0] += tally.timed_ns - ns
        spent[kind][1] += tally.ops() - ops
        rounds += 1
    if rounds % block and len(tally.block_starts) > 1:
        tally.block_starts.pop()
    store_ratio = workload.finish(tracer, tally)
    if workload.store is not None:
        workload.store.close()

    if trace:
        per_op = {k: ns / max(ops, 1) for k, (ns, ops) in spent.items()}
        overhead = 100 * (per_op[True] / per_op[False] - 1)
        metrics = layer_metrics(tracer, spent[True][1], overhead, store_ratio)
    else:
        metrics = _end_to_end(tally, setup_s)
    return not tally.mismatches, tally.attempted, tally.failed, metrics, tracer


def _ms(values, q):
    values = [v / 1e6 for v in values]
    if len(values) < 2:  # only when the program failed nearly every operation
        return sum(values)
    return median(values) if q == 50 else quantiles(values, n=10)[8]


def _end_to_end(tally, setup_s):
    per_block = [{
        "docs_per_s": (len(stages) + len(exports)) / max(ns / 1e9, 1e-9),
        "rows_per_s": rows / max(ns / 1e9, 1e-9),
        "stage_ms_p50": _ms(stages, 50),
        "stage_ms_p90": _ms(stages, 90),
        "export_ms_p50": _ms(exports, 50),
        "export_ms_p90": _ms(exports, 90),
    } for stages, exports, rows, ns in tally.blocks()]
    units = {"docs_per_s": "docs/s", "rows_per_s": "rows/s"}
    metrics = {"setup_s": (setup_s, "s")}
    for name in per_block[0]:
        metrics[name] = (median(b[name] for b in per_block), units.get(name, "ms"))
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return metrics
