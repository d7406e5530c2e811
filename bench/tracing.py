"""Spans recorded by the benchmark around its calls into the program.

A span is opened in the benchmark's own code around one call into a
module's public function, so nesting only appears where the benchmark
wraps the functions `multiform.cli` calls. Spans stay in memory; the run
writes them out at its end and derives per-layer figures from them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "sql", "work")


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "op", "sql", "work")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.work = 0

    def __enter__(self):
        t = self.tracer
        self.parent = t.stack[-1] if t.stack else -1
        self.op = t.op
        self.sql = t.sql
        t.stack.append(len(t.spans))
        t.spans.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = perf_counter_ns()
        t = self.tracer
        t.stack.pop()
        self.sql = t.sql - self.sql


class Tracer:
    """Keeps every span; `op` tags spans with the timed operation (0 outside)."""

    on = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.sql = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def count_sql(self, statement):
        """sqlite3 trace callback: one call per statement executed."""
        self.sql += 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": [
                [s.name, s.start, s.end, s.parent, s.op, s.sql, s.work]
                for s in self.spans]}, fh)


class _NullSpan:
    work = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Stands in for Tracer in untraced rounds."""

    on = False
    op = 0

    def span(self, name: str):
        return _NULL_SPAN


def count_elements(root) -> int:
    return sum(1 for _ in root.iter())


# Functions `multiform.cli` calls, as named in its module namespace, and the
# span each call gets when a traced round runs the CLI.
_CLI_CALLS = {
    "load_sidecar": "extract.load_sidecar",
    "extract_subdocument": "extract.extract_subdocument",
    "make_complex_object": "extract.make_complex_object",
    "serialize": "xmldoc.serialize",
    "parse_document": "xmldoc.parse_document",
    "validate": "dtd.validate",
    "map_schema": "mapper.map_schema",
    "shred": "loader.shred",
    "load": "loader.load",
    "export": "loader.export",
    "OdsStore": "loader.store_open",
}


def _wrap(tracer, name, fn):
    def call(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if name == "dtd.validate":
            span.work = count_elements(args[0])
        elif name == "loader.load":
            span.work = result.total
        elif name == "loader.store_open":
            result.conn.set_trace_callback(tracer.count_sql)
        return result
    return call


@contextmanager
def traced_cli(cli, tracer):
    """Route the CLI's calls into the other modules through spans."""
    saved = {attr: getattr(cli, attr) for attr in _CLI_CALLS}
    for attr, name in _CLI_CALLS.items():
        setattr(cli, attr, _wrap(tracer, name, saved[attr]))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


# -- per-layer figures ------------------------------------------------------------

LAYERS = ("cli", "extract", "xmldoc", "dtd", "mapper", "loader")

# metric -> span whose mean duration it reports
MEAN_MS = {
    "extract.file_ms": "extract.extract_subdocument",
    "xmldoc.serialize_ms": "xmldoc.serialize",
    "xmldoc.parse_ms": "xmldoc.parse_document",
    "dtd.validate_ms": "dtd.validate",
    "loader.shred_ms": "loader.shred",
    "loader.load_ms": "loader.load",
    "loader.export_ms": "loader.export",
    "loader.store_open_ms": "loader.store_open",
    "cli.ingest_ms": "cli.ingest",
    "cli.validate_ms": "cli.validate",
    "cli.load_ms": "cli.load",
    "cli.export_ms": "cli.export",
    "dtd.parse_dtd_ms": "dtd.parse_dtd",
    "mapper.map_schema_ms": "mapper.map_schema",
}


def _self_ns(spans) -> list:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(tracer: Tracer, traced_ops: int, overhead_pct: float,
                  store_ratio: float) -> dict:
    """Per-layer figures of one traced run.

    A function's figures come from the spans of the timed operations where
    the workload calls it there, and otherwise from the set-up and the
    closing CLI cross-check.
    """
    spans = tracer.spans
    own = _self_ns(spans)
    by_name = {}
    for k, s in enumerate(spans):
        by_name.setdefault(s.name, [[], []])[s.op > 0].append(k)

    def chosen(name):
        other, timed = by_name.get(name, ([], []))
        picked = timed or other
        if not picked:
            raise RuntimeError(f"no span {name} was recorded")
        return [spans[k] for k in picked], picked

    out = {}
    for metric, name in MEAN_MS.items():
        picked, _ = chosen(name)
        out[metric] = (sum(s.end - s.start for s in picked) / len(picked) / 1e6, "ms")

    validates, _ = chosen("dtd.validate")
    loads, _ = chosen("loader.load")
    exports, _ = chosen("loader.export")
    out["dtd.validate_us_per_element"] = (
        sum(s.end - s.start for s in validates) / 1e3
        / sum(s.work for s in validates), "us")
    out["loader.load_sql_per_row"] = (
        sum(s.sql for s in loads) / sum(s.work for s in loads), "stmt/row")
    out["loader.export_sql_per_doc"] = (
        sum(s.sql for s in exports) / len(exports), "stmt/doc")
    out["loader.store_bytes_per_xml_byte"] = (store_ratio, "B/B")

    cli_self = cli_calls = 0
    for name in ("cli.ingest", "cli.validate", "cli.load", "cli.export"):
        _, picked = chosen(name)
        cli_self += sum(own[k] for k in picked)
        cli_calls += len(picked)
    out["cli.self_ms_per_call"] = (cli_self / cli_calls / 1e6, "ms")

    timed_self = dict.fromkeys(LAYERS, 0)
    for k, s in enumerate(spans):
        if s.op > 0:
            timed_self[s.name.split(".", 1)[0]] += own[k]
    for layer in ("extract", "xmldoc", "dtd", "loader"):
        out[f"{layer}.self_ms_per_op"] = (timed_self[layer] / traced_ops / 1e6, "ms")

    out["dtd.elements"] = (sum(s.work for s in validates if s.op > 0), "count")
    out["loader.rows"] = (sum(s.work for s in loads if s.op > 0), "count")
    out["trace.ops"] = (traced_ops, "count")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
