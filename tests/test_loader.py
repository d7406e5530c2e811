import gc
import os
import random
import re
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

import multiform
from docgen import generate_document
from multiform.dtd import (
    MAX_GROUP_DEPTH,
    PCData,
    ValidationReport,
    parse_dtd,
    validate,
)
from multiform.errors import (
    DtdError,
    IntegrityViolation,
    NotValidated,
    SchemaMismatch,
    UnknownId,
)
from multiform.loader import OdsStore, RowSet, export, load, shred
from multiform.mapper import FK, ID, emit_ddl, map_schema
from multiform.model import (
    Attribute,
    Cell,
    ImageMeta,
    PlainText,
    Subdocument,
    TextPayload,
    ViewTuple,
    RelationalView,
    make_complex_object,
)
from multiform.xmldoc import parse_document, serialize
from oracle import format_document


def image_doc(schema):
    payload = ImageMeta(length=219, width=344, format="Gif")
    obj = make_complex_object("Surf", "2002-06-15", "Local", [
        Subdocument(doc_name="wave", size=4407, location="wave.gif",
                    payload=payload,
                    keywords=("surf", "black and white", "wave"))])
    return serialize(obj, schema)


def view_doc(schema, query=None):
    view = RelationalView(
        attributes=(Attribute("name"), Attribute("age", "integer")),
        tuples=(
            ViewTuple((Cell("name", "Ada"), Cell("age", "36"))),
            ViewTuple((Cell("name", "Alan"), Cell("age", "41"))),
        ),
        query=query)
    obj = make_complex_object("People", "2002-06-15", "Local", [
        Subdocument(doc_name="people", size=40, location="people.csv",
                    payload=view)])
    return serialize(obj, schema)


def shredded(text, schema, rschema):
    document = parse_document(text).root
    report = validate(document, schema)
    assert report.valid, [str(v) for v in report.violations]
    return shred(document, schema, rschema, report)


def rows_for(rows, rschema, table):
    names = rschema.by_name[table].column_names()
    return [dict(zip(names, row)) for row in rows.tables.get(table, ())]


def max_id(store, table):
    return store.conn.execute(f"SELECT COALESCE(MAX(id), 0) FROM {table}").fetchone()[0]


# -- shredding ---------------------------------------------------------------------


def test_shred_requires_a_report(schema, rschema):
    document = parse_document(image_doc(schema)).root
    with pytest.raises(NotValidated):
        shred(document, schema, rschema, None)


def test_shred_requires_a_passing_report(schema, rschema):
    document = parse_document('<COMPLEX_OBJECT><BAD/></COMPLEX_OBJECT>').root
    report = validate(document, schema)
    assert not report.valid
    with pytest.raises(NotValidated):
        shred(document, schema, rschema, report)


def test_shred_requires_the_report_for_the_same_tree(schema, rschema):
    document = parse_document(image_doc(schema)).root
    twin = parse_document(image_doc(schema)).root
    report = validate(twin, schema)
    with pytest.raises(NotValidated):
        shred(document, schema, rschema, report)


def test_shred_requires_the_match_trees_of_the_report(schema, rschema):
    document = parse_document(image_doc(schema)).root
    report = ValidationReport(document=document, valid=True, violations=())
    with pytest.raises(NotValidated):
        shred(document, schema, rschema, report)


def test_image_document_row_layout(schema, rschema):
    rows = shredded(image_doc(schema), schema, rschema)
    assert rows.counts() == {
        "complex_object": 1, "subdocument": 1, "keyword": 3, "image": 1}
    (root,) = rows_for(rows, rschema, "complex_object")
    assert root["obj_name"] == "Surf" and root["date"] == "2002-06-15"
    (sub,) = rows_for(rows, rschema, "subdocument")
    assert sub["complex_object_id"] == root["id"]
    assert sub["pos"] == 1
    assert sub["choice1"] == "IMAGE"
    assert sub["language"] is None  # absent optional leaf loads as NULL
    keywords = rows_for(rows, rschema, "keyword")
    assert [(k["pos"], k["value"]) for k in keywords] == \
        [(1, "surf"), (2, "black and white"), (3, "wave")]
    assert {k["subdocument_id"] for k in keywords} == {sub["id"]}
    (img,) = rows_for(rows, rschema, "image")
    assert (img["width"], img["length"], img["format"]) == ("344", "219", "Gif")
    assert img["compression"] == "" and img["resolution"] == ""


def test_view_document_row_layout(schema, rschema):
    rows = shredded(view_doc(schema), schema, rschema)
    assert rows.counts() == {
        "complex_object": 1, "subdocument": 1, "relational_view": 1,
        "attribute": 2, "tuple": 2, "tuple_g1": 4}
    atts = rows_for(rows, rschema, "attribute")
    assert [(a["pos"], a["att_name"], a["domain"]) for a in atts] == \
        [(1, "name", "string"), (2, "age", "integer")]
    tuples = rows_for(rows, rschema, "tuple")
    assert [t["pos"] for t in tuples] == [1, 2]
    cells = rows_for(rows, rschema, "tuple_g1")
    assert [(c["tuple_id"], c["pos"], c["att_name_ref"], c["value"])
            for c in cells] == [
        (tuples[0]["id"], 1, "name", "Ada"),
        (tuples[0]["id"], 2, "age", "36"),
        (tuples[1]["id"], 1, "name", "Alan"),
        (tuples[1]["id"], 2, "age", "41"),
    ]


def test_absent_and_empty_leaves_shred_differently(schema, rschema):
    absent = rows_for(shredded(view_doc(schema), schema, rschema), rschema,
                      "relational_view")[0]
    empty = rows_for(shredded(view_doc(schema, query=""), schema, rschema),
                     rschema, "relational_view")[0]
    assert absent["query"] is None
    assert empty["query"] == ""


def test_ids_start_at_one_per_table(schema, rschema):
    rows = shredded(image_doc(schema), schema, rschema)
    assert rows_for(rows, rschema, "complex_object")[0]["id"] == 1
    assert rows_for(rows, rschema, "subdocument")[0]["id"] == 1
    assert [k["id"] for k in rows_for(rows, rschema, "keyword")] == [1, 2, 3]


# -- the store ----------------------------------------------------------------------


def test_fresh_store_creates_the_schema(rschema):
    with OdsStore(rschema) as store:
        names = {r[0] for r in store.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    assert names == {t.name for t in rschema.tables}


def test_store_reopens_an_existing_database(rschema, tmp_path):
    path = str(tmp_path / "ods.db")
    with OdsStore(rschema, path) as store:
        store.conn.execute(
            "INSERT INTO complex_object (id, obj_name, date, source)"
            " VALUES (1, 'a', 'b', 'c')")
    with OdsStore(rschema, path) as store:
        assert max_id(store, "complex_object") == 1


def test_store_rejects_a_database_with_a_different_shape(rschema, tmp_path):
    path = str(tmp_path / "other.db")
    with sqlite3.connect(path) as conn:
        conn.execute("CREATE TABLE extra (id INTEGER PRIMARY KEY)")
    with pytest.raises(SchemaMismatch):
        OdsStore(rschema, path)


def test_store_rejects_missing_columns(rschema, tmp_path):
    path = str(tmp_path / "cols.db")
    with sqlite3.connect(path) as conn:
        for table in rschema.tables:
            conn.execute(f"CREATE TABLE {table.name} (id INTEGER PRIMARY KEY)")
    with pytest.raises(SchemaMismatch):
        OdsStore(rschema, path)


@pytest.mark.parametrize("old, new", [
    (") STRICT;", ");"),                          # made before tables were STRICT
    ("value TEXT) STRICT;", "value BLOB) STRICT;"),   # the right names, a wrong type
], ids=["not-strict", "blob-value-column"])
def test_store_rejects_tables_that_differ_from_the_ddl(rschema, tmp_path, old, new):
    ddl = emit_ddl(rschema)
    assert old in ddl
    path = str(tmp_path / "old.db")
    with sqlite3.connect(path) as conn:
        conn.executescript(ddl.replace(old, new))
    conn.close()
    with pytest.raises(SchemaMismatch):
        OdsStore(rschema, path)


# -- loading -----------------------------------------------------------------------


def test_load_reports_counts_for_every_table(schema, rschema):
    with OdsStore(rschema) as store:
        report = load(shredded(image_doc(schema), schema, rschema), store)
    assert report.counts["keyword"] == 3
    assert report.counts["link"] == 0
    assert set(report.counts) == {t.name for t in rschema.tables}
    assert report.total == 6


def test_load_of_an_empty_rowset(rschema):
    with OdsStore(rschema) as store:
        report = load(RowSet(), store)
    assert report.total == 0


def test_loaded_rows_can_be_read_back(schema, rschema):
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        rows = list(store.conn.execute(
            "SELECT pos, value FROM keyword ORDER BY pos"))
    assert rows == [(1, "surf"), (2, "black and white"), (3, "wave")]


def test_second_load_offsets_identifiers(schema, rschema):
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        load(shredded(view_doc(schema), schema, rschema), store)
        ids = [r[0] for r in store.conn.execute(
            "SELECT id FROM complex_object ORDER BY id")]
        subs = list(store.conn.execute(
            "SELECT id, complex_object_id FROM subdocument ORDER BY id"))
    assert ids == [1, 2]
    assert subs == [(1, 1), (2, 2)]


def test_unknown_table_is_rejected_before_writing(rschema):
    rows = RowSet({"nonesuch": [[1]]})
    with OdsStore(rschema) as store:
        with pytest.raises(SchemaMismatch):
            load(rows, store)
        assert max_id(store, "complex_object") == 0


def test_unknown_column_is_rejected_before_writing(rschema):
    # rows of complex_object (id, obj_name, date, source) and of subdocument
    # (id, complex_object_id, pos, doc_name, type, size, location, language,
    # choice1); the valid pair below loads
    root = [1, "x", "d", "s"]
    sub = [1, 1, 1, "d", "Text", "1", "l", None, "TEXT"]
    for tables in (
        {"complex_object": [root + ["y"]]},         # a value with no column
        {"complex_object": [root[:3]]},             # a column with no value
        {"complex_object": [[None, *root[1:]]]},    # an id that is no integer
        {"complex_object": [root],                  # a parent id that is no integer
         "subdocument": [[1, "1", *sub[2:]]]},
    ):
        with OdsStore(rschema) as store:
            with pytest.raises(SchemaMismatch):
                load(RowSet(tables), store)
            assert max_id(store, "complex_object") == 0
    with OdsStore(rschema) as store:
        assert load(RowSet({"complex_object": [root], "subdocument": [sub]}),
                    store).total == 2


def test_dangling_reference_rolls_the_whole_load_back(schema, rschema):
    # id, complex_object_id, pos, doc_name, type, size, location, language, choice1
    bad = RowSet({"subdocument": [[1, 99, 1, "d", "Text", "1", "l", None, "TEXT"]]})
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        with pytest.raises(IntegrityViolation):
            load(bad, store)
        count = store.conn.execute(
            "SELECT COUNT(*) FROM subdocument").fetchone()[0]
    assert count == 1  # the earlier document alone


@pytest.mark.parametrize("parents, parent_id", [
    (0, 0),     # no parent row here: 0 + offset is the stored document
    (1, 0),
    (1, -1),
    (1, 2),
])
def test_a_parent_id_outside_the_rowset_is_rejected(schema, rschema,
                                                    parents, parent_id):
    root = [1, "x", "d", "s"]
    sub = [1, parent_id, 1, "d", "Text", "1", "l", None, "TEXT"]
    tables = {"complex_object": [root] * parents, "subdocument": [sub]}
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        before = store.to_script()
        with pytest.raises(IntegrityViolation) as err:
            load(RowSet(tables), store)
        assert store.to_script() == before
    assert f"parent id {parent_id}" in str(err.value)


def test_ids_that_do_not_count_from_1_are_rejected(schema, rschema):
    # stored as given, the subdocument's parent id 1 would name no row
    root = [5, "x", "d", "s"]
    sub = [1, 1, 1, "d", "Text", "1", "l", None, "TEXT"]
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        before = store.to_script()
        with pytest.raises(IntegrityViolation) as err:
            load(RowSet({"complex_object": [root], "subdocument": [sub]}), store)
        assert store.to_script() == before
    assert "row 1 of complex_object has id 5" in str(err.value)


def test_a_failing_late_batch_leaves_the_store_as_it_was(schema, rschema):
    # tuple_g1 goes in after the view's earlier tables have been inserted
    rows = shredded(view_doc(schema), schema, rschema)
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        store.conn.execute("CREATE TRIGGER late BEFORE INSERT ON tuple_g1 "
                           "BEGIN SELECT RAISE(ABORT, 'late batch'); END")
        before = store.to_script()
        with pytest.raises(IntegrityViolation):
            load(rows, store)
        assert store.to_script() == before


def test_a_value_sqlite_cannot_bind_rolls_the_load_back(schema, rschema):
    rows = shredded(view_doc(schema), schema, rschema)
    rows.tables["tuple_g1"][0][-1] = {"not": "text"}   # a late batch's text column
    tables = [t.name for t in rschema.tables]

    def counts(store):
        return {t: store.conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0]
                for t in tables}

    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        before = counts(store)
        with pytest.raises(sqlite3.Error):
            load(rows, store)
        assert counts(store) == before
    assert before["subdocument"] == 1 and before["tuple_g1"] == 0


def test_a_table_with_no_ids_left_rolls_the_load_back(schema, rschema):
    # another writer took the largest id SQLite can hold
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        store.conn.execute("INSERT INTO complex_object (id) VALUES (?)", (2**63 - 1,))
        before = store.to_script()
        with pytest.raises(IntegrityViolation,
                           match="^table complex_object has too few ids left: "):
            load(shredded(view_doc(schema), schema, rschema), store)
        assert store.to_script() == before


def test_two_rows_of_a_singular_child_are_rejected(schema, rschema):
    rows = shredded(image_doc(schema), schema, rschema)
    images = rows.tables["image"]
    images.append([2, *images[0][ID + 1:]])
    with OdsStore(rschema) as store:
        with pytest.raises(IntegrityViolation) as err:
            load(rows, store)
        assert max_id(store, "complex_object") == 0
    assert "image" in str(err.value)


# -- scripts ------------------------------------------------------------------------


def test_script_rebuilds_an_identical_database(schema, rschema, tmp_path):
    doc = image_doc(schema).replace("Surf", "it's a 'quote'")
    with OdsStore(rschema) as store:
        load(shredded(doc, schema, rschema), store)
        script = store.to_script()
    assert "it''s a ''quote''" in script
    path = str(tmp_path / "replayed.db")
    with sqlite3.connect(path) as conn:
        conn.executescript(script)
        name = conn.execute("SELECT obj_name FROM complex_object").fetchone()[0]
    conn.close()
    assert name == "it's a 'quote'"
    with OdsStore(rschema, path) as store:
        assert export(store, 1, schema, rschema) == doc


def test_script_quotes_text_as_sqlite_does(rschema):
    with OdsStore(rschema) as store:
        store.conn.execute("INSERT INTO complex_object VALUES (1, 'o', 'd', 's')")
        store.conn.execute("INSERT INTO subdocument VALUES (1, 1, 1, ?, ?, ?, ?, NULL, 'X')",
                           ("it's \"so\"", "a\nb\rc", "naïve 日本", ""))
        script = store.to_script()
    assert ("\nINSERT INTO subdocument (id, complex_object_id, pos, doc_name, type, "
            "size, location, language, choice1) VALUES (1, 1, 1, 'it''s \"so\"', "
            "'a\nb\rc', 'naïve 日本', '', NULL, 'X');\n") in script


def test_script_spells_null_and_empty_apart(schema, rschema):
    with OdsStore(rschema) as store:
        load(shredded(view_doc(schema, query=""), schema, rschema), store)
        script = store.to_script()
    line = next(l for l in script.splitlines()
                if l.startswith("INSERT INTO relational_view"))
    assert "''" in line and "NULL" not in line


# -- export -------------------------------------------------------------------------


def test_export_reproduces_the_document(schema, rschema):
    text = image_doc(schema)
    with OdsStore(rschema) as store:
        load(shredded(text, schema, rschema), store)
        assert export(store, 1, schema, rschema) == text


def test_export_of_an_unknown_id(schema, rschema):
    with OdsStore(rschema) as store:
        with pytest.raises(UnknownId) as err:
            export(store, 7, schema, rschema)
    assert err.value.object_id == 7


@pytest.mark.parametrize("object_id", [2**63, -2**63 - 1, 10**20])
def test_export_of_an_id_no_sqlite_integer_holds(schema, rschema, object_id):
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        with pytest.raises(UnknownId) as err:
            export(store, object_id, schema, rschema)
    assert err.value.object_id == object_id


def test_export_picks_the_requested_object(schema, rschema):
    a, b = image_doc(schema), view_doc(schema, query="SELECT 1")
    with OdsStore(rschema) as store:
        load(shredded(a, schema, rschema), store)
        load(shredded(b, schema, rschema), store)
        assert export(store, 2, schema, rschema) == b
        assert export(store, 1, schema, rschema) == a


def test_export_rejects_an_unknown_discriminator(schema, rschema):
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        store.conn.execute("UPDATE subdocument SET choice1 = 'BOGUS'")
        with pytest.raises(IntegrityViolation) as err:
            export(store, 1, schema, rschema)
    assert "subdocument.choice1" in str(err.value)
    assert "'BOGUS'" in str(err.value)


def test_export_honours_the_system_id(schema, rschema):
    with OdsStore(rschema) as store:
        load(shredded(image_doc(schema), schema, rschema), store)
        text = export(store, 1, schema, rschema, system_id="x.dtd")
    assert '<!DOCTYPE COMPLEX_OBJECT SYSTEM "x.dtd">' in text


EMPTY_PARTS_DTD = """
<!ELEMENT R (A*, L*, N?)>
<!ELEMENT A (B?)>
<!ELEMENT B (#PCDATA)>
<!ELEMENT L (#PCDATA)>
<!ELEMENT N (#PCDATA)>
"""

EMPTY_PARTS = """\
<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE R SYSTEM "r.dtd">
<R>
  <A/>
  <A>
    <B/>
  </A>
  <A>
    <B>b</B>
  </A>
  <L/>
  <L>l</L>
  <N/>
</R>
"""


@pytest.mark.parametrize("text", [
    EMPTY_PARTS,
    EMPTY_PARTS.replace("<N/>", "<N>n</N>"),
    "<R></R>",
])
def test_export_writes_empty_elements_as_format_document_does(text):
    # <A/> has no child line; B (a column), L (a repeated leaf, its own
    # table) and N (a column of the root) hold ""
    schema = parse_dtd(EMPTY_PARTS_DTD)
    rschema = map_schema(schema)
    document = parse_document(text).root
    with OdsStore(rschema) as store:
        load(shred(document, schema, rschema, validate(document, schema)), store)
        exported = export(store, 1, schema, rschema, system_id="r.dtd")
    assert exported == format_document(document, system_id="r.dtd")
    if text.startswith("<?xml"):
        assert exported == text


def many_tuples_doc(schema, n):
    view = RelationalView(
        attributes=(Attribute("k"), Attribute("v")),
        tuples=tuple(ViewTuple((Cell("k", str(i)), Cell("v", "x")))
                     for i in range(n)))
    obj = make_complex_object("Wide", "2002-06-15", "Local", [
        Subdocument(doc_name="wide", size=n, location="wide.csv",
                    payload=view, keywords=("a", "b"))])
    return serialize(obj, schema)


def test_export_statements_do_not_grow_with_the_view(schema, rschema):
    counts = []
    for n in (1, 300):
        text = many_tuples_doc(schema, n)
        with OdsStore(rschema) as store:
            load(shredded(text, schema, rschema), store)
            statements = []
            store.conn.set_trace_callback(statements.append)
            assert export(store, 1, schema, rschema) == text
            store.conn.set_trace_callback(None)
        counts.append(len(statements))
    assert counts[0] == counts[1] <= len(rschema.tables)


def test_load_reads_every_offset_in_one_statement(schema, rschema):
    text = many_tuples_doc(schema, 3)
    with OdsStore(rschema) as store:
        for _ in range(2):
            statements = []
            store.conn.set_trace_callback(statements.append)
            load(shredded(text, schema, rschema), store)
            store.conn.set_trace_callback(None)
            assert len([s for s in statements if s.startswith("SELECT")]) == 1
        assert max_id(store, "complex_object") == 2
        assert export(store, 2, schema, rschema) == text


def test_load_reads_the_offsets_of_only_the_tables_it_fills(schema, rschema):
    obj = make_complex_object("Note", "2002-06-15", "Local", [
        Subdocument(doc_name="note", size=6, location="note.txt",
                    payload=TextPayload(6, 1, PlainText("hello\n")))])
    rows = shredded(serialize(obj, schema), schema, rschema)
    with OdsStore(rschema) as store:
        statements = []
        store.conn.set_trace_callback(statements.append)
        load(rows, store)
        store.conn.set_trace_callback(None)
    select, = [s for s in statements if s.startswith("SELECT")]
    assert re.findall(r"FROM (\w+)", select) == ["complex_object", "subdocument", "text"]


# Two image objects whose rows interleave: object 1 owns subdocuments 3
# and 1 (in that order), object 2 owns subdocument 2, which lies inside
# the id range of object 1's subdocuments; keyword and image rows of both
# objects alternate by id.
INTERLEAVED = """
INSERT INTO complex_object VALUES (1, 'A', '2002-06-15', 'Local');
INSERT INTO complex_object VALUES (2, 'B', '2002-06-16', 'Web');
INSERT INTO subdocument VALUES (1, 1, 2, 'a2', 'Image', '2', 'a2.gif', NULL, 'IMAGE');
INSERT INTO subdocument VALUES (2, 2, 1, 'b1', 'Image', '3', 'b1.gif', NULL, 'IMAGE');
INSERT INTO subdocument VALUES (3, 1, 1, 'a1', 'Image', '1', 'a1.gif', NULL, 'IMAGE');
INSERT INTO keyword VALUES (1, 2, 1, 'b-k1');
INSERT INTO keyword VALUES (2, 3, 2, 'a1-k2');
INSERT INTO keyword VALUES (3, 1, 1, 'a2-k1');
INSERT INTO keyword VALUES (4, 2, 2, 'b-k2');
INSERT INTO keyword VALUES (5, 3, 1, 'a1-k1');
INSERT INTO image VALUES (1, 2, 1, '', 'Gif', '', '30', '31');
INSERT INTO image VALUES (2, 1, 1, '', 'Gif', '', '20', '21');
INSERT INTO image VALUES (3, 3, 1, '', 'Gif', '', '10', '11');
"""


def image_object(schema, name, date, source, subdocs):
    return serialize(make_complex_object(name, date, source, [
        Subdocument(doc_name=doc, size=size, location=f"{doc}.gif",
                    payload=ImageMeta(length=length, width=length + 1,
                                      format="Gif"),
                    keywords=keywords)
        for doc, size, length, keywords in subdocs]), schema)


def test_export_from_a_store_whose_documents_interleave(schema, rschema):
    a = image_object(schema, "A", "2002-06-15", "Local", [
        ("a1", 1, 10, ("a1-k1", "a1-k2")), ("a2", 2, 20, ("a2-k1",))])
    b = image_object(schema, "B", "2002-06-16", "Web", [
        ("b1", 3, 30, ("b-k1", "b-k2"))])
    with OdsStore(rschema) as store:
        store.conn.executescript(INTERLEAVED)
        assert export(store, 1, schema, rschema) == a
        assert export(store, 2, schema, rschema) == b


def test_every_document_of_a_crowded_store_exports(schema, rschema, tmp_path):
    # SQLite's foreign-key engine is off, so load's own check is the only
    # proof of the links it writes: the engine's check finds no row to
    # refuse, and the store's own check lets it reopen
    rng = random.Random(5)
    texts = []
    path = str(tmp_path / "crowded.db")
    with OdsStore(rschema, path) as store:
        for k in range(41):
            if k == 20:   # a 900-tuple view among the generated documents
                texts.append(many_tuples_doc(schema, 900))
                load(shredded(texts[-1], schema, rschema), store)
                continue
            document = generate_document(schema, rng)
            texts.append(format_document(document))
            load(shred(document, schema, rschema, validate(document, schema)),
                 store)
        assert store.conn.execute("PRAGMA foreign_key_check").fetchall() == []
    with OdsStore(rschema, path) as store:
        order = list(range(1, len(texts) + 1))
        rng.shuffle(order)
        for object_id in order:
            assert export(store, object_id, schema, rschema) == \
                texts[object_id - 1]


# -- whole-corpus properties ---------------------------------------------------------


def test_element_conservation_over_generated_documents(schema, rschema):
    # every element lands exactly once: as a row of its own table or as a
    # filled leaf column (discriminators and the value column of leaf
    # tables describe an element counted already, so they are skipped)
    rng = random.Random(20020615)
    discriminator = re.compile(r"choice\d+$")

    def skip_cols(table):
        cols = {"id", "pos"}
        if table.fk:
            cols.add(table.fk)
        cols.update(c.name for c in table.columns
                    if discriminator.fullmatch(c.name))
        if table.element is not None and isinstance(
                schema.elements[table.element], PCData):
            cols.add("value")
        return cols

    skip = {t.name: skip_cols(t) for t in rschema.tables}
    for _ in range(30):
        document = generate_document(schema, rng)
        report = validate(document, schema)
        rows = shred(document, schema, rschema, report)
        element_rows = sum(len(table_rows) for name, table_rows in rows.tables.items()
                           if rschema.by_name[name].element is not None)
        filled = sum(1 for name, table_rows in rows.tables.items()
                     for row in table_rows
                     for col, v in zip(rschema.by_name[name].column_names(), row)
                     if v is not None and col not in skip[name])
        total = sum(1 for _ in document.iter())
        assert element_rows + filled == total


def test_round_trip_identity_over_generated_documents(schema, rschema):
    rng = random.Random(13)
    with OdsStore(rschema) as store:
        for i in range(40):
            document = generate_document(schema, rng)
            text = format_document(document)
            report = validate(document, schema)
            assert report.valid
            load(shred(document, schema, rschema, report), store)
            assert export(store, i + 1, schema, rschema) == text


# Each small schema holds one case of the table plan, or of the decisions
# a match records, that the bundled DTD and library.dtd lack; every leaf
# named K, L or V is repeated, so it gets a table of its own.
SECOND_SCHEMAS = {
    "library": None,
    "leaf-root": "<!ELEMENT NOTE (#PCDATA)>",
    "repeated-leaf-in-a-group": "<!ELEMENT R ((H, K*)+)>\n"
                                "<!ELEMENT H (#PCDATA)>\n<!ELEMENT K (#PCDATA)>",
    "optional-repeated-group": "<!ELEMENT R ((B, C)*)?>\n"
                               "<!ELEMENT B (#PCDATA)>\n<!ELEMENT C (#PCDATA)>",
    "repeated-option": "<!ELEMENT R (X?)*>\n<!ELEMENT X (#PCDATA)>",
    "repeated-repeat": "<!ELEMENT R (A*)*>\n<!ELEMENT A (V*)>\n"
                       "<!ELEMENT V (#PCDATA)>",
    "choice-of-repeated-leaves": "<!ELEMENT R (K* | L+)>\n"
                                 "<!ELEMENT K (#PCDATA)>\n<!ELEMENT L (#PCDATA)>",
    "greedy-repeat-gives-one-back": "<!ELEMENT R (B*, B)>\n<!ELEMENT B (#PCDATA)>",
    "optional-sequence": "<!ELEMENT R (A, B)?>\n"
                         "<!ELEMENT A (#PCDATA)>\n<!ELEMENT B (#PCDATA)>",
    "choice-of-an-optional": "<!ELEMENT R (A | B?)>\n"
                             "<!ELEMENT A (#PCDATA)>\n<!ELEMENT B (#PCDATA)>",
    "repeated-group-with-an-optional-choice":
        "<!ELEMENT R ((A | B)?, C)*>\n<!ELEMENT A (#PCDATA)>\n"
        "<!ELEMENT B (#PCDATA)>\n<!ELEMENT C (#PCDATA)>",
}


@pytest.mark.parametrize("name", SECOND_SCHEMAS)
def test_round_trip_identity_on_a_second_schema(data_dir, name):
    dtd = SECOND_SCHEMAS[name]
    if dtd is None:
        dtd = (data_dir / f"{name}.dtd").read_text()
    schema = parse_dtd(dtd)
    rschema = map_schema(schema)
    system_id = f"{name}.dtd"
    rng = random.Random(99)
    with OdsStore(rschema) as store:
        for i in range(40):
            document = generate_document(schema, rng)
            text = format_document(document, system_id=system_id)
            report = validate(document, schema)
            assert report.valid
            load(shred(document, schema, rschema, report), store)
            assert export(store, i + 1, schema, rschema,
                          system_id=system_id) == text


def test_a_greedy_repeat_gives_the_last_element_to_the_sequence():
    schema = parse_dtd(SECOND_SCHEMAS["greedy-repeat-gives-one-back"])
    rschema = map_schema(schema)
    rows = shredded("<R><B>1</B><B>2</B><B>3</B></R>", schema, rschema)
    assert rows.tables == {"r": [[1, "3"]], "b": [[1, 1, 1, "1"], [2, 1, 2, "2"]]}


def test_exports_from_schemas_mapped_and_dropped_in_turn_stay_apart(data_dir):
    # every schema is mapped afresh each round and freed after use, so a new
    # one may take the memory (and id) of one gone before; each export must
    # still follow its own schema
    dtds = [SECOND_SCHEMAS[name] or (data_dir / f"{name}.dtd").read_text()
            for name in SECOND_SCHEMAS]
    rng = random.Random(7)
    for _ in range(10):
        live = []
        for dtd in dtds:
            schema = parse_dtd(dtd)
            rschema = map_schema(schema)
            store = OdsStore(rschema)
            document = generate_document(schema, rng)
            load(shred(document, schema, rschema, validate(document, schema)), store)
            live.append((schema, rschema, store, format_document(document)))
        for schema, rschema, store, text in live:   # one export of each in turn
            assert export(store, 1, schema, rschema) == text
            store.close()
        del live, schema, rschema, store
        gc.collect()


def chain_dtd(n, model):
    leaves = "X" in model
    return "".join(f"<!ELEMENT E{k} {model.format(k=k, next=k + 1)}>\n"
                   + (f"<!ELEMENT X{k} (#PCDATA)>\n" if leaves else "")
                   for k in range(n)) + f"<!ELEMENT E{n} (#PCDATA)>\n"


def chain_doc(n):
    return "".join(f"<E{k}>" for k in range(n)) + f"<E{n}>x</E{n}>" + \
        "".join(f"</E{k}>" for k in reversed(range(n)))


def nested_choices(n):
    model = f"(A{n - 1} | A{n})"
    for k in reversed(range(n - 1)):
        model = f"(A{k} | {model}?)"
    return f"<!ELEMENT R {model}>\n" + "".join(
        f"<!ELEMENT A{k} (#PCDATA)>\n" for k in range(n + 1))


# The deepest schema of each shape that maps, with a document, and the
# schema one level deeper, which does not (None where the parser's group
# cap comes first).
AT_THE_CAP = {
    "element-chain": (chain_dtd(88, "(E{next}, X{k}?)"), chain_doc(88),
                      chain_dtd(89, "(E{next}, X{k}?)")),
    "repeated-element-chain": (chain_dtd(132, "(E{next}*)"), chain_doc(132),
                               chain_dtd(133, "(E{next}*)")),
    "nested-optional-choices": (nested_choices(MAX_GROUP_DEPTH),
                                f"<R><A{MAX_GROUP_DEPTH}>x</A{MAX_GROUP_DEPTH}></R>",
                                None),
    "nested-repeats": ("<!ELEMENT R " + "(" * MAX_GROUP_DEPTH + "B"
                       + ")*" * MAX_GROUP_DEPTH + ">\n<!ELEMENT B (#PCDATA)>",
                       "<R><B>x</B></R>", None),
}


@pytest.mark.parametrize("shape", AT_THE_CAP)
def test_a_schema_at_the_nesting_cap_round_trips_deep_in_the_stack(shape):
    dtd, text, deeper = AT_THE_CAP[shape]
    if deeper is not None:
        with pytest.raises(DtdError):
            map_schema(parse_dtd(deeper))

    def round_trip(frames):  # runs `frames` calls below the test
        if frames:
            return round_trip(frames - 1)
        schema = parse_dtd(dtd)
        rschema = map_schema(schema)
        document = parse_document(text).root
        expected = format_document(document)
        with OdsStore(rschema) as store:
            load(shred(document, schema, rschema, validate(document, schema)),
                 store)
            return export(store, 1, schema, rschema) == expected

    assert round_trip(300)


# Loads DOCS generated documents into the store at argv[1] once it reads a
# line on stdin, so that two writers start together.
WRITER = """
import random, sys
from docgen import generate_document
from multiform.dtd import builtin_schema, validate
from multiform.loader import OdsStore, load, shred
from multiform.mapper import map_schema

path, seed, docs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
schema = builtin_schema()
rschema = map_schema(schema)
rng = random.Random(seed)
shredded = []
for _ in range(docs):
    document = generate_document(schema, rng)
    shredded.append(shred(document, schema, rschema, validate(document, schema)))
print("ready", flush=True)
sys.stdin.readline()
with OdsStore(rschema, path) as store:
    for rows in shredded:
        load(rows, store)
"""


def test_two_processes_load_into_one_store(tmp_path, schema, rschema):
    docs = 40
    path = str(tmp_path / "shared.db")
    here = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(multiform.__file__).resolve().parent.parent), str(here),
        env.get("PYTHONPATH")]))
    writers = [subprocess.Popen([sys.executable, "-c", WRITER, path, str(seed), str(docs)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, env=env)
               for seed in (1, 2)]
    try:
        for writer in writers:
            assert writer.stdout.readline() == "ready\n"
        for writer in writers:
            writer.stdin.write("go\n")
            writer.stdin.flush()
        results = [writer.communicate(timeout=120) for writer in writers]
    finally:
        for writer in writers:
            writer.kill()
            writer.wait()
    for writer, (_, err) in zip(writers, results):
        assert writer.returncode == 0, err

    expected = []
    for seed in (1, 2):
        rng = random.Random(seed)
        expected.extend(format_document(generate_document(schema, rng))
                        for _ in range(docs))
    with OdsStore(rschema, path) as store:
        ids = [i for (i,) in store.conn.execute("SELECT id FROM complex_object")]
        assert len(ids) == 2 * docs
        exported = [export(store, i, schema, rschema) for i in ids]
    assert sorted(exported) == sorted(expected)
