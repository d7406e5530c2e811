"""Shredding documents into rows, the backing store, loading, and export.

A row is one form from shred to SQLite and back: a list of values in its
table's column order, with the positions the mapper assigned (`ID`, `FK`,
`POS`, and each step's column), so nothing here looks up a name.
shred and export run the same plan per element table (see mapper). In
shred, the plan's leaves and tables take the element's children in
order, and its choices and repeats take, in order, the decisions that
validation recorded for the element's match. A leaf with a table of its
own (the root, or a repeated leaf) fills that row's `value` column.
load applies a RowSet to a store atomically, offsetting ids so documents
accumulate; it inserts one batch per table, parents before children.
export runs the plan with every line rendered ahead of time: a leaf costs
one append of its open tag, escaped text and close tag, which is what
makes round-trip checks byte-exact and cheap. A repeat's steps run once,
as the rows carry the count. It reads each table the plan reaches with
one query per document, then serves every parent row its children, in
`pos` order, from the tuples SQLite returns.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

from .dtd import ITERATE, DtdSchema
from .errors import IntegrityViolation, NotValidated, SchemaMismatch, UnknownId
from .mapper import (
    ALT,
    FK,
    GROUP,
    ID,
    LEAF,
    POS,
    TABLE,
    RelationalSchema,
    emit_ddl,
    quote,
)
from .xmldoc import DEFAULT_SYSTEM_ID, Lines, xml_escape

MAX_ID = 2**63 - 1   # the largest SQLite INTEGER


@dataclass
class RowSet:
    """One document's rows: `tables` maps a table name to its rows, each a
    list of values in `column_names()` order. Ids count from 1 per table in
    row order, and a parent id is the id of a row in the parent table's list."""

    tables: dict = field(default_factory=dict)

    def counts(self) -> dict:
        return {name: len(rows) for name, rows in self.tables.items()}


class _Shredder:
    """One document's rows, filled by running the table plans over its elements."""

    def __init__(self, matches, rows):
        self.matches = matches
        self.tables = rows.tables

    def new_row(self, table, parent, counters):
        """A fresh row of `table`, linked to `parent` (None for the root) at
        the next position `counters` holds for that table."""
        rows = self.tables.setdefault(table.name, [])
        row = [None] * len(table.columns)
        row[ID] = len(rows) + 1
        rows.append(row)
        if parent is not None:
            row[FK] = parent[ID]
            row[POS] = counters[table.name] = counters.get(table.name, 0) + 1
        return row

    def element(self, plan, node, parent, counters):
        table, body = plan[0], plan[4]
        row = self.new_row(table, parent, counters)
        if body.__class__ is int:   # a leaf table: the text goes on the row
            row[body] = node.text or ""
            return
        decisions = self.matches.get(node)
        if decisions is None:
            raise NotValidated(f"the validation report holds no match for the "
                               f"children of a {table.element} element")
        self.fill(body, row, {}, iter(node), iter(decisions))

    def fill(self, steps, row, counters, children, decisions):
        """Run `steps` on `row`, taking the element's children and its
        match's decisions in order."""
        for step in steps:
            kind = step[0]
            if kind == LEAF:
                row[step[1]] = next(children).text or ""
            elif kind == TABLE:
                self.element(step[1], next(children), row, counters)
            elif kind == GROUP:
                self.fill(step[2], self.new_row(step[1], row, counters), {},
                          children, decisions)
            elif kind == ALT:
                _, column, alternatives, tokens = step
                token = row[column] = tokens[next(decisions)]
                self.fill(alternatives[token], row, counters, children, decisions)
            else:   # REP: one run per iteration, and a "?" iterates at most once
                _, once, inner = step
                while next(decisions) == ITERATE:
                    self.fill(inner, row, counters, children, decisions)
                    if once:
                        break


def shred(document, schema: DtdSchema, rschema: RelationalSchema,
          report) -> RowSet:
    """Turn a validated element tree into rows.

    The ValidationReport for this exact tree must be supplied; shredding
    replays the matches it holds, so unvalidated input is refused.
    """
    if report is None or report.document is not document:
        raise NotValidated()
    if not report.valid:
        raise NotValidated("document failed validation; refusing to shred it")
    rows = RowSet()
    _Shredder(report.matches, rows).element(rschema.plan, document, None, None)
    return rows


# -- the store ---------------------------------------------------------------------


class OdsStore:
    """Relational staging store for shredded documents, backed by sqlite.

    The tables are STRICT, so SQLite refuses a value of the wrong type from
    any writer, and export can trust every column. Opening a path that
    already holds data compares each table's CREATE statement with its
    emit_ddl line instead of recreating them, so a store can be filled over
    several runs; indexes, triggers and sqlite_ tables are not compared.
    It then refuses a store holding a link that is NULL or names no row.
    SQLite's foreign-key engine stays off: load proves each link it writes
    before it writes it, and a row written through `conn` is checked when the
    store is next opened. to_script() renders the whole store as portable SQL.
    """

    def __init__(self, rschema: RelationalSchema, path: str = ":memory:"):
        self.rschema = rschema
        self.conn = sqlite3.connect(path, isolation_level=None)
        ddl = emit_ddl(rschema).splitlines()
        existing = self._tables()
        if not existing:
            # one transaction: one sync for all tables, and a second process
            # creating the same store waits for this one, then sees its tables
            self.conn.execute("BEGIN IMMEDIATE")
            try:
                existing = self._tables()
                if not existing:
                    for statement in ddl:
                        self.conn.execute(statement)
            except BaseException:
                self.conn.execute("ROLLBACK")
                raise
            self.conn.execute("COMMIT")
            if not existing:
                return
        # SQLite keeps each CREATE statement as written, less its semicolon
        expected = {t.name: line[:-1] for t, line in zip(rschema.tables, ddl)}
        if existing != expected:
            name = next(n for n in [*expected, *sorted(existing)]
                        if existing.get(n) != expected.get(n))
            raise SchemaMismatch(f"store table {name} is {existing.get(name)!r}, "
                                 f"the schema expects {expected.get(name)!r}")
        # another writer can leave a link that is NULL or names no row, and
        # export would skip its row without a word
        for t in rschema.tables:
            if t.fk is not None:
                for rowid, in self.conn.execute(
                        f"SELECT c.id FROM {t.quoted} AS c LEFT JOIN {quote(t.parent)} AS p "
                        f"ON p.id = c.{quote(t.fk)} WHERE p.id IS NULL LIMIT 1"):
                    raise IntegrityViolation(
                        f"row {rowid} of {t.name} links to no row of {t.parent}")

    def _tables(self) -> dict:
        """name -> CREATE statement of each table, less SQLite's own."""
        return dict(self.conn.execute(
            "SELECT name, sql FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'"))

    def close(self):
        self.conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def to_script(self) -> str:
        """The store as SQL text: schema first, then every row in id order."""
        lines = [emit_ddl(self.rschema).rstrip("\n")] if self.rschema.tables else []
        for table in self.rschema.tables:
            names = ", ".join(map(quote, table.column_names()))
            values = " || ', ' || ".join(f"quote({quote(c)})" for c in table.column_names())
            cur = self.conn.execute(f"SELECT {values} FROM {table.quoted} ORDER BY id")
            lines.extend(f"INSERT INTO {table.quoted} ({names}) VALUES ({v});"
                         for v, in cur)
        return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class LoadReport:
    """Rows inserted per table, zeros included."""

    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def load(rows: RowSet, store: OdsStore) -> LoadReport:
    """Apply a RowSet to the store, all rows or none.

    Before the store is touched, each table's ids must count from 1 in row
    order and each parent id must name a row of the parent table's batch:
    that proves every link written here. Ids are then offset by each table's
    current maximum so repeated loads accumulate instead of clashing; a
    table whose ids would pass MAX_ID raises IntegrityViolation. Rows
    go in one batch per table, tables in schema order; parents first is
    only the order, as SQLite checks no link on insert.
    """
    rschema = store.rschema
    for name, batch in rows.tables.items():
        table = rschema.by_name.get(name)
        if table is None:
            raise SchemaMismatch(f"RowSet names unknown table {name!r}")
        parents = set()
        last_parent = len(rows.tables.get(table.parent, ()))
        for number, row in enumerate(batch, 1):
            if len(row) != len(table.columns):
                raise SchemaMismatch(f"a row of {name} holds {len(row)} values, "
                                     f"not one per column")
            if not isinstance(row[ID], int) or (
                    table.fk is not None and not isinstance(row[FK], int)):
                raise SchemaMismatch(f"a row of {name} has an id that is not an integer")
            if row[ID] != number:
                raise IntegrityViolation(f"row {number} of {name} has id {row[ID]}, "
                                         f"but ids count from 1 in row order")
            if table.fk is not None and not 0 < row[FK] <= last_parent:
                raise IntegrityViolation(f"a row of {name} names parent id {row[FK]}, "
                                         f"not a row of {table.parent} in this RowSet")
            if table.single_per_parent:
                if row[FK] in parents:
                    raise IntegrityViolation(
                        f"table {name} allows one row per parent; "
                        f"parent id {row[FK]} got two")
                parents.add(row[FK])

    counts = {t.name: len(rows.tables.get(t.name, ())) for t in rschema.tables}
    filled = [t for t in rschema.tables if rows.tables.get(t.name)]
    maxima = ", ".join(f"(SELECT COALESCE(MAX(id), 0) FROM {t.quoted})" for t in filled)
    # offsets are read inside the write transaction, so a concurrent load
    # into the same store cannot take the same ids; one statement reads those
    # of the tables the rows fill, which include every filled table's parent
    store.conn.execute("BEGIN IMMEDIATE")
    try:
        offsets = dict(zip((t.name for t in filled),
                           store.conn.execute(f"SELECT {maxima or 0}").fetchone()))
        for table in filled:
            batch = rows.tables[table.name]
            shift = offsets[table.name]
            if shift + len(batch) > MAX_ID:
                raise IntegrityViolation(f"table {table.name} has too few ids left: "
                                         f"{len(batch)} more would pass {MAX_ID}")
            if table.fk is not None:
                up = offsets[table.parent]
                params = ([row[ID] + shift, row[FK] + up, *row[POS:]] for row in batch)
            else:
                params = ([row[ID] + shift, *row[ID + 1:]] for row in batch)
            store.conn.executemany(table.insert, params)
    except sqlite3.IntegrityError as exc:
        store.conn.execute("ROLLBACK")
        raise IntegrityViolation(str(exc)) from None
    except Exception:
        store.conn.execute("ROLLBACK")
        raise
    store.conn.execute("COMMIT")
    return LoadReport(counts=counts)


# -- export ------------------------------------------------------------------------


class _Exporter:
    """One document's rebuild: runs the table plans, appending their lines.
    Each table is read once, when the plan first reaches it, and its rows
    are kept grouped by parent id."""

    def __init__(self, conn, root_table, root_row):
        self.conn = conn
        # table name -> {parent id: [rows in pos order]}; the root has no parent
        self.children = {root_table: {None: [root_row]}}
        self.out = Lines()

    def select(self, table, parent_id):
        by_parent = self.children.get(table.name)
        if by_parent is None:
            parents = {row[ID] for rows in self.children[table.parent].values()
                       for row in rows}
            # the id range only prunes: other documents' rows may fall inside
            # it, so only groups under a parent row of this document are kept
            cur = self.conn.execute(table.select, (min(parents), max(parents)))
            by_parent = self.children[table.name] = {
                parent: list(group)
                for parent, group in groupby(cur, itemgetter(FK)) if parent in parents}
        return by_parent.get(parent_id, ())

    def element(self, plan, row) -> None:
        table, open_line, close_line, empty, body = plan
        lines = self.out.lines
        if body.__class__ is int:   # a leaf table: the text is on the row
            value = row[body]
            lines.append(f"{open_line}{xml_escape(value)}{close_line}" if value else empty)
            return
        lines.append(open_line)
        mark = len(lines)
        self.write(body, table, row)
        if len(lines) == mark:
            lines[-1] = empty
        else:
            lines.append(close_line)

    def write(self, steps, table, row) -> None:
        """Append the lines `steps` encode on this row of `table`, in order."""
        lines = self.out.lines
        for step in steps:
            kind = step[0]
            if kind == LEAF:
                _, column, open_line, close, empty = step
                value = row[column]
                if value is not None:
                    lines.append(f"{open_line}{xml_escape(value)}{close}" if value else empty)
            elif kind == TABLE:
                for child in self.select(step[1][0], row[ID]):
                    self.element(step[1], child)
            elif kind == GROUP:
                _, group, inner = step
                for child in self.select(group, row[ID]):
                    self.write(inner, group, child)
            elif kind == ALT:
                _, column, alternatives, _ = step
                token = row[column]
                if token is None:
                    continue
                inner = alternatives.get(token)
                if inner is None:
                    raise IntegrityViolation(
                        f"{table.name}.{table.columns[column].name} holds {token!r}, "
                        f"which names no alternative of the choice")
                self.write(inner, table, row)
            else:   # REP: its steps once, as the rows carry the count
                self.write(step[2], table, row)


def export(store: OdsStore, object_id: int, schema: DtdSchema,
           rschema: RelationalSchema, system_id: str = DEFAULT_SYSTEM_ID) -> str:
    """Rebuild one loaded document and render it canonically. An id that no
    SQLite INTEGER can hold names no document and raises UnknownId."""
    plan = rschema.plan
    row = (store.conn.execute(plan[0].select, (object_id,)).fetchone()
           if -MAX_ID - 1 <= object_id <= MAX_ID else None)
    if row is None:
        raise UnknownId(rschema.root_table, object_id)
    exporter = _Exporter(store.conn, rschema.root_table, row)
    exporter.element(plan, row)
    return exporter.out.document(rschema.root_element, system_id)
