"""Compilation of a DTD schema into a relational schema.

Every complex element becomes a table, and so does every repeated leaf:
its table holds one row per occurrence, with the text in a `value`
column. A leaf occurring at most once becomes a column on its parent's
row; choices become discriminator columns; repeated groups become
synthetic tables. Each element table is compiled once, while it is
created, into its plan: (table, open line, close line, empty line, body).
A leaf table's body is its text column; any other's is a list of steps,
in content-model order, saying where each part lives relationally, with
every line rendered ahead of time. Shred and export both run the plans.
The mapping only works for tree-shaped DTDs: an element stored in two
places would need two parent links, so sharing reports a NameCollision;
that is also what gives every element one indentation. Names go into SQL
bare where SQLite allows, else quoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .dtd import Choice, DtdSchema, ElementRef, PCData, Repeat, render_model
from .errors import DtdError, NameCollision
from .xmldoc import INDENT, tag_lines

# SQLite keywords that cannot stand bare as a table or column name in the
# statements built here; the rest (`query`, `first`, `last`, ...) parse as
# names. A test round-trips every keyword as an element name to keep it so.
_RESERVED = frozenset("""
    add all alter and as autoincrement between case cast check collate commit
    constraint create current_date current_time current_timestamp default
    deferrable delete distinct drop else escape except exists foreign from group
    having if in index insert intersect into is isnull join limit not nothing
    notnull null on or order primary raise references returning select set table
    then to transaction union unique update using values when where""".split())


def quote(name: str) -> str:
    """`name` as an SQL identifier: bare when it is [a-z_][a-z0-9_]* and not
    reserved, else in double quotes."""
    if (name.isascii() and name.isidentifier() and name == name.lower()
            and name not in _RESERVED):
        return name
    return '"' + name.replace('"', '""') + '"'


@dataclass(frozen=True)
class Column:
    name: str
    affinity: str  # "integer" or "text"
    origin: str    # where the column came from, for collision reports


@dataclass
class Table:
    name: str
    origin: str
    element: str | None = None   # element this table stores, None for synthetic
    parent: str | None = None
    fk: str | None = None
    single_per_parent: bool = False
    columns: list = field(default_factory=list)

    def column_names(self):
        return [c.name for c in self.columns]

    # SQL texts, built on first use, once the mapping is complete
    @cached_property
    def quoted(self) -> str:
        return quote(self.name)

    @cached_property
    def insert(self) -> str:
        return (f"INSERT INTO {self.quoted} ({', '.join(map(quote, self.column_names()))}) "
                f"VALUES ({', '.join('?' * len(self.columns))})")

    @cached_property
    def select(self) -> str:
        """A document's rows: the root's by id, a linked table's by a range
        of parent ids, in parent and `pos` order."""
        head = f"SELECT {', '.join(map(quote, self.column_names()))} FROM {self.quoted}"
        if self.fk is None:
            return f"{head} WHERE id = ?"
        return f"{head} WHERE {quote(self.fk)} BETWEEN ? AND ? ORDER BY {quote(self.fk)}, pos"


@dataclass(frozen=True)
class RelationalSchema:
    tables: tuple
    by_name: dict
    root_element: str
    root_table: str
    plan: tuple = field(repr=False, compare=False)   # the root table's plan


def _alt_token(model) -> str:
    # Bare element alternatives are named by the element; anything fancier
    # is named by its rendered model text, which is just as deterministic.
    if isinstance(model, ElementRef):
        return model.name
    return render_model(model)


# Positions of the leading columns in every row: the id, then, on a table
# that link() ties to a parent, the parent's id and the sibling position.
ID, FK, POS = 0, 1, 2
# Kinds of plan step; each step is a tuple that starts with its kind:
# (LEAF, column, open, close, empty), (TABLE, plan), (GROUP, table, steps),
# (ALT, column, {token: steps}, tokens) and (REP, once, steps), where `once`
# marks a "?" and the rows carry a repeat's count
LEAF, TABLE, GROUP, ALT, REP = range(5)

# Deepest nesting of model nodes and element tables: mapping, shred and export
# recurse about two frames a level, and a model may nest two nodes a group.
MAX_NESTING = 264


class _Builder:
    def __init__(self, schema: DtdSchema):
        self.schema = schema
        self.tables = []
        self.by_name = {}
        self.choice_count = {}
        self.group_count = {}

    def new_table(self, name, origin, element=None) -> Table:
        if name.startswith("sqlite_"):
            raise DtdError(f"{origin} would need table {name}, and SQLite "
                           f"reserves names starting with sqlite_")
        other = self.by_name.get(name)
        if other is not None:
            raise NameCollision("table", name, other.origin, origin)
        table = Table(name=name, origin=origin, element=element)
        self.tables.append(table)
        self.by_name[name] = table
        return table

    def add_column(self, table: Table, name, affinity, origin) -> int:
        """Append a column; returns its position in the table's rows."""
        for col in table.columns:
            if col.name == name:
                raise NameCollision("column", f"{table.name}.{name}",
                                    col.origin, origin)
        table.columns.append(Column(name, affinity, origin))
        return len(table.columns) - 1

    def link(self, table: Table, parent: Table):
        table.parent = parent.name
        table.fk = f"{parent.name}_id"
        self.add_column(table, table.fk, "integer", f"link to {parent.name}")
        self.add_column(table, "pos", "integer", "sibling order")

    def element_table(self, name, parent: Table | None, single: bool, depth, pad) -> tuple:
        """Create the table of element `name`, written at indentation `pad`,
        and return its plan."""
        model = self.schema.elements[name]
        leaf = isinstance(model, PCData)
        # below the root, a leaf gets a table only when it repeats
        kind = "repeated leaf" if leaf and parent is not None else "element"
        table = self.new_table(name.lower(), f"{kind} {name}", element=name)
        table.single_per_parent = single and parent is not None
        self.add_column(table, "id", "integer", "surrogate key")
        if parent is not None:
            self.link(table, parent)
        open_line, close, empty = tag_lines(name, pad)
        if leaf:
            return table, open_line, close, empty, self.add_column(
                table, "value", "text", f"text of {name}")
        return (table, open_line, pad + close, empty,
                self.compile(model, table, depth + 1, pad + INDENT))

    def group_table(self, parent: Table) -> Table:
        k = self.group_count.get(parent.name, 0) + 1
        self.group_count[parent.name] = k
        origin = f"repeated group {k} under {parent.element or parent.name}"
        table = self.new_table(f"{parent.name}_g{k}", origin)
        self.add_column(table, "id", "integer", "surrogate key")
        self.link(table, parent)
        return table

    def compile(self, model, table: Table, depth, pad) -> list:
        """Lay the model out on `table`, creating child tables as needed;
        returns its steps, with the lines of its elements at `pad`."""
        if depth > MAX_NESTING:
            raise DtdError(f"elements and groups nest more than {MAX_NESTING} "
                           f"levels deep below {self.schema.root}")
        if isinstance(model, ElementRef):
            return self.place(model.name, table, depth + 1, pad, single=True)
        if isinstance(model, Choice):
            k = self.choice_count.get(table.name, 0) + 1
            self.choice_count[table.name] = k
            column = self.add_column(table, f"choice{k}", "text",
                                     f"choice {k} discriminator")
            alts = [self.compile(a, table, depth + 1, pad) for a in model.alternatives]
            tokens = tuple(_alt_token(a) for a in model.alternatives)
            return [(ALT, column, dict(zip(tokens, alts)), tokens)]
        if isinstance(model, Repeat):
            if model.mult == "?":
                return [(REP, True, self.compile(model.inner, table, depth + 1, pad))]
            if isinstance(model.inner, ElementRef):
                return [(REP, False, self.place(model.inner.name, table, depth + 1, pad,
                                                single=False))]
            group = self.group_table(table)
            return [(REP, False, [(GROUP, group, self.compile(model.inner, group,
                                                              depth + 1, pad))])]
        # Sequence, spliced; PCData cannot appear inside element content
        return [step for part in model.parts
                for step in self.compile(part, table, depth + 1, pad)]

    def place(self, name, table: Table, depth, pad, single: bool) -> list:
        """A reference to element `name` occurring on rows of `table`."""
        if single and self.schema.is_leaf(name):
            column = self.add_column(table, name.lower(), "text", f"leaf {name}")
            return [(LEAF, column, *tag_lines(name, pad))]
        return [(TABLE, self.element_table(name, table, single, depth, pad))]


def map_schema(schema: DtdSchema) -> RelationalSchema:
    """Compile the DTD into tables, depth-first from the root element."""
    builder = _Builder(schema)
    plan = builder.element_table(schema.root, None, False, 0, "")
    return RelationalSchema(tables=tuple(builder.tables),
                            by_name=builder.by_name,
                            root_element=schema.root,
                            root_table=schema.root.lower(),
                            plan=plan)


def emit_ddl(rschema: RelationalSchema) -> str:
    """STRICT CREATE TABLE statements, one per line, parents before children."""
    lines = []
    for table in rschema.tables:
        rendered = []
        for col in table.columns:
            if col.name == "id":
                rendered.append("id INTEGER PRIMARY KEY")
            elif col.name == table.fk:
                rendered.append(
                    f"{quote(col.name)} INTEGER REFERENCES {quote(table.parent)}(id)")
            elif col.affinity == "integer":
                rendered.append(f"{quote(col.name)} INTEGER")
            else:
                rendered.append(f"{quote(col.name)} TEXT")
        lines.append(f"CREATE TABLE {table.quoted} ({', '.join(rendered)}) STRICT;")
    return "".join(line + "\n" for line in lines)
