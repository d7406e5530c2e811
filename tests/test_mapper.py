import hashlib
import json
import sqlite3

import pytest

from multiform.dtd import builtin_schema, parse_dtd, validate
from multiform.errors import DtdError, NameCollision
from multiform.loader import OdsStore, export, load, shred
from multiform.mapper import emit_ddl, map_schema, quote
from multiform.xmldoc import parse_document


def table_facts(rschema):
    return [
        {"name": t.name, "element": t.element, "parent": t.parent,
         "columns": t.column_names()}
        for t in rschema.tables
    ]


def load_fixture(data_dir, name):
    with open(data_dir / name) as fh:
        return json.load(fh)["tables"]


def mapped(dtd_text):
    return map_schema(parse_dtd(dtd_text))


def test_bundled_schema_maps_to_the_expected_tables(rschema, data_dir):
    assert table_facts(rschema) == load_fixture(data_dir, "ods_tables.json")


def test_bibliography_schema_maps_to_the_expected_tables(data_dir):
    with open(data_dir / "library.dtd") as fh:
        rschema = mapped(fh.read())
    assert table_facts(rschema) == load_fixture(data_dir, "library_tables.json")


def test_root_table_tracks_the_root_element(rschema):
    assert rschema.root_element == "COMPLEX_OBJECT"
    assert rschema.root_table == "complex_object"
    assert rschema.by_name["complex_object"].fk is None


def test_single_leaf_child_becomes_a_column():
    rschema = mapped("<!ELEMENT R (X)>\n<!ELEMENT X (#PCDATA)>\n")
    assert [t.name for t in rschema.tables] == ["r"]
    assert rschema.by_name["r"].column_names() == ["id", "x"]


def test_leaf_root_gets_a_value_column():
    rschema = mapped("<!ELEMENT R (#PCDATA)>\n")
    assert rschema.by_name["r"].column_names() == ["id", "value"]


def test_repeated_leaf_becomes_a_child_table():
    rschema = mapped("<!ELEMENT R (X*)>\n<!ELEMENT X (#PCDATA)>\n")
    x = rschema.by_name["x"]
    assert x.column_names() == ["id", "r_id", "pos", "value"]
    assert x.parent == "r" and x.fk == "r_id"
    assert not x.single_per_parent


def test_optional_leaf_is_still_a_column():
    rschema = mapped("<!ELEMENT R (X?)>\n<!ELEMENT X (#PCDATA)>\n")
    assert rschema.by_name["r"].column_names() == ["id", "x"]


def test_repeated_group_becomes_a_numbered_table():
    rschema = mapped(
        "<!ELEMENT R ((X, Y)+, (Z)*)>\n"
        "<!ELEMENT X (#PCDATA)>\n<!ELEMENT Y (#PCDATA)>\n<!ELEMENT Z (#PCDATA)>\n")
    assert [t.name for t in rschema.tables] == ["r", "r_g1", "z"]
    g = rschema.by_name["r_g1"]
    assert g.element is None
    assert g.column_names() == ["id", "r_id", "pos", "x", "y"]


def test_group_numbering_is_per_parent_table():
    rschema = mapped(
        "<!ELEMENT R ((X, Y)*, (Y2, X2)*)>\n"
        "<!ELEMENT X (#PCDATA)>\n<!ELEMENT Y (#PCDATA)>\n"
        "<!ELEMENT X2 (#PCDATA)>\n<!ELEMENT Y2 (#PCDATA)>\n")
    assert [t.name for t in rschema.tables] == ["r", "r_g1", "r_g2"]
    assert rschema.by_name["r_g2"].column_names() == ["id", "r_id", "pos", "y2", "x2"]


def test_choice_discriminators_count_per_table():
    rschema = mapped(
        "<!ELEMENT R ((A | B), (C | D))>\n"
        "<!ELEMENT A (#PCDATA)>\n<!ELEMENT B (#PCDATA)>\n"
        "<!ELEMENT C (#PCDATA)>\n<!ELEMENT D (#PCDATA)>\n")
    assert rschema.by_name["r"].column_names() == \
        ["id", "choice1", "a", "b", "choice2", "c", "d"]


def test_complex_choice_alternative_gets_its_own_table():
    rschema = mapped(
        "<!ELEMENT R (A | B)>\n"
        "<!ELEMENT A (K*)>\n<!ELEMENT B (#PCDATA)>\n<!ELEMENT K (#PCDATA)>\n")
    assert [t.name for t in rschema.tables] == ["r", "a", "k"]
    assert rschema.by_name["r"].column_names() == ["id", "choice1", "b"]
    assert rschema.by_name["a"].single_per_parent


def test_single_complex_child_is_single_per_parent():
    rschema = mapped(
        "<!ELEMENT R (A, B*)>\n"
        "<!ELEMENT A (X*)>\n<!ELEMENT B (X2*)>\n"
        "<!ELEMENT X (#PCDATA)>\n<!ELEMENT X2 (#PCDATA)>\n")
    assert rschema.by_name["a"].single_per_parent
    assert not rschema.by_name["b"].single_per_parent


def test_bundled_schema_single_per_parent_flags(rschema):
    flags = {t.name: t.single_per_parent for t in rschema.tables}
    assert flags["image"] and flags["text"] and flags["continuous"]
    assert not flags["subdocument"] and not flags["keyword"]
    assert not flags["tuple_g1"]


def test_shared_element_between_two_parents_is_rejected():
    with pytest.raises(NameCollision) as err:
        mapped("<!ELEMENT R (A, B)>\n"
               "<!ELEMENT A (X)>\n<!ELEMENT B (X)>\n"
               "<!ELEMENT X (K*)>\n<!ELEMENT K (#PCDATA)>\n")
    assert err.value.kind == "table"
    assert err.value.name == "x"


def test_shared_repeated_leaf_is_rejected():
    with pytest.raises(NameCollision):
        mapped("<!ELEMENT R (A, B)>\n"
               "<!ELEMENT A (K*)>\n<!ELEMENT B (K+)>\n<!ELEMENT K (#PCDATA)>\n")


def test_reference_cycles_are_rejected():
    with pytest.raises(NameCollision):
        mapped("<!ELEMENT R (A)>\n<!ELEMENT A (B)>\n"
               "<!ELEMENT B (C)>\n<!ELEMENT C (A)>\n")


def test_names_that_collide_after_lowercasing_are_rejected():
    with pytest.raises(NameCollision) as err:
        mapped("<!ELEMENT R (FOO, Foo)>\n"
               "<!ELEMENT FOO (X*)>\n<!ELEMENT Foo (Y*)>\n"
               "<!ELEMENT X (#PCDATA)>\n<!ELEMENT Y (#PCDATA)>\n")
    assert err.value.name == "foo"


def test_leaf_named_like_the_key_column_is_rejected():
    with pytest.raises(NameCollision) as err:
        mapped("<!ELEMENT R (ID)>\n<!ELEMENT ID (#PCDATA)>\n")
    assert err.value.kind == "column"
    assert err.value.name == "r.id"


def test_leaf_colliding_with_a_discriminator_is_rejected():
    with pytest.raises(NameCollision):
        mapped("<!ELEMENT R ((A | B), CHOICE1)>\n"
               "<!ELEMENT A (#PCDATA)>\n<!ELEMENT B (#PCDATA)>\n"
               "<!ELEMENT CHOICE1 (#PCDATA)>\n")


def test_synthetic_group_table_collision_is_rejected():
    # an element named R_G1 claims the name the first group table needs
    with pytest.raises(NameCollision):
        mapped("<!ELEMENT R (R_G1, (X, Y)*)>\n"
               "<!ELEMENT R_G1 (K*)>\n<!ELEMENT K (#PCDATA)>\n"
               "<!ELEMENT X (#PCDATA)>\n<!ELEMENT Y (#PCDATA)>\n")


# -- DDL -----------------------------------------------------------------------


def test_ddl_is_stable_across_independent_runs(schema, data_dir):
    a = emit_ddl(map_schema(schema))
    b = emit_ddl(map_schema(builtin_schema()))
    assert a == b


def test_ddl_one_statement_per_line_parents_first(rschema):
    ddl = emit_ddl(rschema)
    lines = ddl.splitlines()
    assert len(lines) == len(rschema.tables)
    assert lines[0].startswith("CREATE TABLE complex_object ")
    assert ddl.endswith(";\n")
    seen = set()
    for table, line in zip(rschema.tables, lines):
        assert line.startswith(f"CREATE TABLE {table.name} (")
        if table.parent is not None:
            assert table.parent in seen
        seen.add(table.name)


def test_ddl_spells_out_keys_and_references(rschema):
    ddl = emit_ddl(rschema)
    assert ("CREATE TABLE keyword (id INTEGER PRIMARY KEY, "
            "subdocument_id INTEGER REFERENCES subdocument(id), "
            "pos INTEGER, value TEXT) STRICT;") in ddl.splitlines()


def test_ddl_runs_under_sqlite(rschema):
    with sqlite3.connect(":memory:") as conn:
        conn.executescript(emit_ddl(rschema))
        names = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    assert names == {t.name for t in rschema.tables}


@pytest.mark.parametrize("dtd_file", [None, "library.dtd"])
def test_every_table_follows_its_parent(data_dir, dtd_file):
    # load inserts one batch per table in this order, so a child batch
    # never names a parent row that is still to come
    if dtd_file is None:
        rschema = map_schema(builtin_schema())
    else:
        rschema = mapped((data_dir / dtd_file).read_text())
    seen = set()
    for table in rschema.tables:
        assert table.parent is None or table.parent in seen, table.name
        seen.add(table.name)
    assert rschema.tables[0].name == rschema.root_table


# -- names in SQL ------------------------------------------------------------------


@pytest.mark.parametrize("dtd_file, digest", [
    (None, "04422f96c5a632f6"), ("library.dtd", "0639ed1beba08197")])
def test_quoting_leaves_the_fixture_ddl_unchanged(data_dir, dtd_file, digest):
    # query (bundled) and first, last (library) are keywords SQLite reads as names
    schema = (builtin_schema() if dtd_file is None
              else parse_dtd((data_dir / dtd_file).read_text()))
    ddl = emit_ddl(map_schema(schema)).encode()
    assert hashlib.sha256(ddl).hexdigest().startswith(digest)


@pytest.mark.parametrize("name, sql", [
    ("value", "value"), ("_x1", "_x1"), ("query", "query"), ("order", '"order"'),
    ("group", '"group"'), ("my-item", '"my-item"'), ("a.b", '"a.b"'),
    ("1a", '"1a"'), ("été", '"été"'), ('say"hi', '"say""hi"')])
def test_quote_wraps_only_what_sqlite_would_misread(name, sql):
    assert quote(name) == sql


# SQLite's keyword list (https://sqlite.org/lang_keywords.html)
SQLITE_KEYWORDS = """
    ABORT ACTION ADD AFTER ALL ALTER ALWAYS ANALYZE AND AS ASC ATTACH AUTOINCREMENT
    BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT CONFLICT
    CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE CURRENT_TIME CURRENT_TIMESTAMP
    DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC DETACH DISTINCT DO DROP EACH
    ELSE END ESCAPE EXCEPT EXCLUDE EXCLUSIVE EXISTS EXPLAIN FAIL FILTER FIRST
    FOLLOWING FOR FOREIGN FROM FULL GENERATED GLOB GROUP GROUPS HAVING IF IGNORE
    IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT INTO IS
    ISNULL JOIN KEY LAST LEFT LIKE LIMIT MATCH MATERIALIZED NATURAL NO NOT NOTHING
    NOTNULL NULL NULLS OF OFFSET ON OR ORDER OTHERS OUTER OVER PARTITION PLAN
    PRAGMA PRECEDING PRIMARY QUERY RAISE RANGE RECURSIVE REFERENCES REGEXP REINDEX
    RELEASE RENAME REPLACE RESTRICT RETURNING RIGHT ROLLBACK ROW ROWS SAVEPOINT
    SELECT SET TABLE TEMP TEMPORARY THEN TIES TO TRANSACTION TRIGGER UNBOUNDED
    UNION UNIQUE UPDATE USING VACUUM VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH
    WITHOUT""".split()


@pytest.mark.parametrize("shape", ["columns", "tables"])
def test_every_sqlite_keyword_is_a_usable_element_name(shape):
    # each keyword once as a leaf column of the root, or as a repeated leaf
    # with a table of its own (and a {name}_id link in a child table)
    mult = "?" if shape == "columns" else "*"
    children = ", ".join(f"{k}{mult}" for k in SQLITE_KEYWORDS)
    dtd = f"<!ELEMENT R ({children})>\n" + "".join(
        f"<!ELEMENT {k} (#PCDATA)>\n" for k in SQLITE_KEYWORDS)
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n<!DOCTYPE R SYSTEM "r.dtd">\n'
            "<R>\n" + "".join(f"  <{k}>{k.lower()}</{k}>\n" for k in SQLITE_KEYWORDS)
            + "</R>\n")
    schema = parse_dtd(dtd)
    rschema = map_schema(schema)
    document = parse_document(text).root
    with OdsStore(rschema) as store:
        load(shred(document, schema, rschema, validate(document, schema)), store)
        load(shred(document, schema, rschema, validate(document, schema)), store)
        assert export(store, 2, schema, rschema, system_id="r.dtd") == text
        script = store.to_script()
    with sqlite3.connect(":memory:") as conn:
        conn.executescript(script)
        query = ('SELECT "order" FROM r' if shape == "columns"
                 else 'SELECT value FROM "order"')
        assert conn.execute(query).fetchall() == [("order",), ("order",)]


@pytest.mark.parametrize("dtd", [
    "<!ELEMENT sqlite_master (#PCDATA)>",
    "<!ELEMENT R (SQLITE_SEQUENCE+)>\n<!ELEMENT SQLITE_SEQUENCE (#PCDATA)>",
    "<!ELEMENT R (sqlite_x, b)>\n<!ELEMENT sqlite_x (a)>\n"
    "<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>",
])
def test_a_table_name_sqlite_reserves_is_rejected(dtd):
    with pytest.raises(DtdError, match="sqlite_"):
        map_schema(parse_dtd(dtd))


def test_a_column_may_start_with_sqlite():
    rschema = map_schema(parse_dtd("<!ELEMENT R (sqlite_x)>\n<!ELEMENT sqlite_x (#PCDATA)>"))
    assert rschema.by_name["r"].column_names() == ["id", "sqlite_x"]
