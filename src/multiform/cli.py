"""Command-line pipeline driver.

Five subcommands cover the whole flow: ingest files into an XML document,
print the relational schema for a DTD, validate a document, load it into
a store, and export it back out. Exit codes sort outcomes into classes:
0 success, 1 usage, 2 input, parse or store error, 3 validation failure,
4 not found.
"""

from __future__ import annotations

import argparse
import os
import sqlite3
import sys
from pathlib import PurePath

from .dtd import builtin_schema, parse_dtd, validate
from .errors import MultiformError, UnknownId
from .extract import extract_subdocument, load_sidecar, read_text
from .loader import OdsStore, export, load, shred
from .mapper import emit_ddl, map_schema
from .model import make_complex_object
from .sidecar import EMPTY, override
from .xmldoc import DEFAULT_SYSTEM_ID, parse_document, serialize


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; here 2 means input error, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multiform",
                     description="Extract web data into XML documents and "
                                 "load them into a relational staging store.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest",
                       help="extract files into one XML complex object")
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument("--name", help="object name (default: stem of the first file)")
    p.add_argument("--source", help="where the data came from (default: Local)")
    p.add_argument("--date", help="acquisition date, ISO format (default: today)")
    p.add_argument("--keywords", action="append", metavar="WORD", default=None,
                   help="keyword for every subdocument; repeatable")
    p.add_argument("--language")
    p.add_argument("--sidecar", metavar="PATH",
                   help="metadata file applied to every subdocument")
    p.add_argument("--query", help="originating query of a relational view")
    p.add_argument("--intention-only", action="store_true",
                   help="keep a relational view's attributes, drop its tuples")
    p.add_argument("--out", metavar="PATH", help="output file (default: <name>.xml)")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("schema",
                       help="compile a DTD into CREATE TABLE statements")
    _dtd_flag(p)
    p.add_argument("--out", metavar="PATH", help="write DDL here instead of stdout")
    p.set_defaults(handler=cmd_schema)

    p = sub.add_parser("validate",
                       help="check a document against a DTD")
    p.add_argument("doc", metavar="DOC")
    _dtd_flag(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("load",
                       help="validate, shred and load a document into a store")
    p.add_argument("doc", metavar="DOC")
    _dtd_flag(p)
    p.add_argument("--db", metavar="PATH", help="store file; created if absent")
    p.add_argument("--sql-out", metavar="PATH",
                   help="write the store as a SQL script")
    p.set_defaults(handler=cmd_load)

    p = sub.add_parser("export",
                       help="rebuild a loaded document from a store")
    p.add_argument("--db", metavar="PATH", required=True)
    p.add_argument("--id", type=int, required=True,
                   help="id of the object's row in the root table")
    _dtd_flag(p)
    p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    p.set_defaults(handler=cmd_export)

    return parser


def _dtd_flag(p):
    p.add_argument("--dtd", metavar="PATH",
                   help="DTD to use instead of the bundled one")


def _require(path, what):
    if not os.path.isfile(path):
        raise _UsageError(f"{what} {path!r} does not exist")


def _schema_for(args):
    if args.dtd is None:
        return builtin_schema()
    _require(args.dtd, "DTD")
    return parse_dtd(read_text(args.dtd))


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_ingest(args) -> int:
    record = load_sidecar(args.sidecar) if args.sidecar else EMPTY
    record = override(record,
                      language=args.language,
                      query=args.query,
                      keywords=tuple(args.keywords) if args.keywords else ())
    subdocs = [extract_subdocument(path, sidecar=record,
                                   intention_only=args.intention_only)
               for path in args.paths]
    name = args.name or PurePath(args.paths[0]).stem
    obj = make_complex_object(name=name,
                              date=args.date or record.date,
                              source=args.source or record.source or "Local",
                              subdocuments=subdocs)
    _write(args.out or f"{name}.xml", serialize(obj, builtin_schema()))
    return 0


def cmd_schema(args) -> int:
    _write(args.out, emit_ddl(map_schema(_schema_for(args))))
    return 0


def _validated(doc_path, schema):
    _require(doc_path, "document")
    document = parse_document(read_text(doc_path))
    report = validate(document.root, schema)
    if not report.valid:
        for violation in report.violations:
            print(f"{doc_path}: {violation}", file=sys.stderr)
    return document, report


def cmd_validate(args) -> int:
    _, report = _validated(args.doc, _schema_for(args))
    return 0 if report.valid else 3


def cmd_load(args) -> int:
    if args.db is None and args.sql_out is None:
        raise _UsageError("at least one of --db and --sql-out is required")
    schema = _schema_for(args)
    document, report = _validated(args.doc, schema)
    if not report.valid:
        return 3
    rschema = map_schema(schema)
    rows = shred(document.root, schema, rschema, report)
    with OdsStore(rschema, args.db or ":memory:") as store:
        loaded = load(rows, store)
        for table in rschema.tables:
            print(f"{table.name}: {loaded.counts[table.name]}")
        if args.sql_out is not None:
            _write(args.sql_out, store.to_script())
    return 0


def cmd_export(args) -> int:
    _require(args.db, "store")
    schema = _schema_for(args)
    rschema = map_schema(schema)
    system_id = DEFAULT_SYSTEM_ID if args.dtd is None else os.path.basename(args.dtd)
    with OdsStore(rschema, args.db) as store:
        text = export(store, args.id, schema, rschema, system_id)
    _write(args.out, text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (_UsageError, MultiformError, OSError, sqlite3.Error) as exc:
        print(f"multiform: error: {exc}", file=sys.stderr)
        return (1 if isinstance(exc, _UsageError) else
                4 if isinstance(exc, UnknownId) else 2)


def run() -> int:
    """Console-script entry point."""
    return main()
