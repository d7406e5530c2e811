import csv
import os
import sqlite3
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import multiform
from imagegen import make_gif, make_png
from multiform.cli import main
from multiform.dtd import builtin_schema
from multiform.mapper import emit_ddl, map_schema
from multiform.xmldoc import parse_document
from oracle import to_object

SIDECAR = """\
name: Surf
keyword: surf
keyword: black and white
keyword: wave
resolution: 72dpi
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def put(workdir, name, content):
    mode = "wb" if isinstance(content, bytes) else "w"
    with open(workdir / name, mode) as fh:
        fh.write(content)
    return name


def ingest_sample(workdir, out="out.xml"):
    put(workdir, "gewis_surfer2.gif", make_gif(344, 219, total_size=4407))
    put(workdir, "surf.meta", SIDECAR)
    return main(["ingest", "gewis_surfer2.gif", "--name", "Sample image",
                 "--date", "2002-06-15", "--sidecar", "surf.meta",
                 "--out", out])


def test_ingest_matches_the_reference_output(workdir, data_dir):
    assert ingest_sample(workdir) == 0
    produced = (workdir / "out.xml").read_bytes()
    assert produced == (data_dir / "sample_image.xml").read_bytes()


def test_ingest_names_its_output_after_the_object(workdir):
    put(workdir, "story.txt", "once\n")
    assert main(["ingest", "story.txt"]) == 0
    assert (workdir / "story.xml").exists()


def test_ingest_several_files_in_order(workdir, capsys):
    put(workdir, "a.txt", "text\n")
    put(workdir, "b.png", make_png(8, 9))
    put(workdir, "c.csv", "k,v\n1,2\n")
    assert main(["ingest", "a.txt", "b.png", "c.csv", "--name", "Bundle",
                 "--out", "bundle.xml"]) == 0
    obj = to_object(parse_document((workdir / "bundle.xml").read_text()).root)
    assert obj.obj_name == "Bundle"
    assert [s.type for s in obj.subdocuments] == \
        ["Text", "Image", "Relational view"]
    assert [s.location for s in obj.subdocuments] == ["a.txt", "b.png", "c.csv"]


def test_ingest_flags_beat_the_sidecar(workdir):
    put(workdir, "s.txt", "x")
    put(workdir, "meta", "language: French\nkeyword: old\n")
    assert main(["ingest", "s.txt", "--sidecar", "meta",
                 "--language", "English", "--keywords", "new1",
                 "--keywords", "new2", "--out", "o.xml"]) == 0
    sub = to_object(parse_document((workdir / "o.xml").read_text()).root) \
        .subdocuments[0]
    assert sub.language == "English"
    assert sub.keywords == ("new1", "new2")


def test_ingest_sidecar_source_and_date_are_used(workdir):
    put(workdir, "s.txt", "x")
    put(workdir, "meta", "source: Crawler\ndate: 2001-01-02\n")
    assert main(["ingest", "s.txt", "--sidecar", "meta", "--out", "o.xml"]) == 0
    obj = to_object(parse_document((workdir / "o.xml").read_text()).root)
    assert obj.source == "Crawler"
    assert str(obj.date) == "2001-01-02"


def test_ingest_intention_only_view(workdir):
    put(workdir, "t.csv", "a,b\n1,2\n")
    assert main(["ingest", "t.csv", "--intention-only",
                 "--query", "SELECT a, b FROM t", "--out", "o.xml"]) == 0
    payload = to_object(parse_document((workdir / "o.xml").read_text()).root) \
        .subdocuments[0].payload
    assert payload.query == "SELECT a, b FROM t"
    assert payload.tuples == ()


def test_ingest_missing_file_is_an_input_error(workdir):
    assert main(["ingest", "gone.txt"]) == 2


def test_ingest_unsupported_extension(workdir):
    put(workdir, "notes.docx", "hi")
    assert main(["ingest", "notes.docx"]) == 2


def test_ingest_bad_date(workdir):
    put(workdir, "s.txt", "x")
    assert main(["ingest", "s.txt", "--date", "June 15th"]) == 2


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1


# -- schema ------------------------------------------------------------------------


def test_schema_prints_the_bundled_ddl(capsys):
    assert main(["schema"]) == 0
    expected = emit_ddl(map_schema(builtin_schema()))
    assert capsys.readouterr().out == expected


def test_schema_for_a_custom_dtd(workdir, data_dir, capsys):
    assert main(["schema", "--dtd", str(data_dir / "library.dtd")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("CREATE TABLE library ")
    assert "CREATE TABLE author " in out


def test_schema_reads_a_dtd_that_starts_with_a_byte_order_mark(workdir, data_dir,
                                                               capsys):
    dtd = (data_dir / "library.dtd").read_bytes()
    put(workdir, "bom.dtd", b"\xef\xbb\xbf" + dtd)
    assert main(["schema", "--dtd", "bom.dtd"]) == 0
    with_bom = capsys.readouterr().out
    assert main(["schema", "--dtd", str(data_dir / "library.dtd")]) == 0
    assert with_bom == capsys.readouterr().out


def test_schema_out_flag_writes_a_file(workdir):
    assert main(["schema", "--out", "ddl.sql"]) == 0
    assert (workdir / "ddl.sql").read_text().endswith(";\n")


def test_schema_with_a_missing_dtd_file(workdir):
    assert main(["schema", "--dtd", "none.dtd"]) == 1


def test_schema_with_a_broken_dtd(workdir):
    put(workdir, "bad.dtd", "<!ELEMENT A (#PCDATA>\n")
    assert main(["schema", "--dtd", "bad.dtd"]) == 2


@pytest.mark.parametrize("text, line", [
    ("<!ELEMENT A (B)>\r<!ELEMENT B ()>\r", 2),
    ('<!ELEMENT A EMPTY>\n<!ATTLIST A x CDATA "d">\n', 1),
])
def test_schema_reports_a_dtd_error_on_its_line(workdir, capsys, text, line):
    # a lone CR ends a line, and the first error in the text is the one reported
    put(workdir, "bad.dtd", text.encode())
    assert main(["schema", "--dtd", "bad.dtd"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"multiform: error: line {line}: ")
    assert err.count("\n") == 1


# Element names SQLite cannot take bare: a keyword (ORDER, GROUP) and
# characters outside [a-z0-9_]
QUOTED_NAMES = {
    "keywords": ("<!ELEMENT ORDER (GROUP*)>\n<!ELEMENT GROUP (#PCDATA)>\n",
                 "<ORDER>\n  <GROUP>a</GROUP>\n  <GROUP/>\n</ORDER>"),
    "hyphen": ("<!ELEMENT R (my-item*)>\n<!ELEMENT my-item (#PCDATA)>\n",
               "<R>\n  <my-item>a &amp; b</my-item>\n</R>"),
    "dot": ("<!ELEMENT R (a.b, c)>\n<!ELEMENT a.b (#PCDATA)>\n<!ELEMENT c (#PCDATA)>\n",
            "<R>\n  <a.b>x</a.b>\n  <c>y</c>\n</R>"),
}


@pytest.mark.parametrize("case", QUOTED_NAMES)
def test_names_sqlite_would_misread_load_and_export(workdir, capsys, case):
    dtd, body = QUOTED_NAMES[case]
    root = body[1:body.index(">")]
    text = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<!DOCTYPE {root} SYSTEM "t.dtd">\n{body}\n')
    put(workdir, "t.dtd", dtd)
    put(workdir, "doc.xml", text)
    assert main(["schema", "--dtd", "t.dtd"]) == 0
    assert main(["validate", "doc.xml", "--dtd", "t.dtd"]) == 0
    assert main(["load", "doc.xml", "--dtd", "t.dtd", "--db", "s.db"]) == 0
    assert main(["load", "doc.xml", "--dtd", "t.dtd", "--sql-out", "s.sql"]) == 0
    assert main(["export", "--db", "s.db", "--id", "1", "--dtd", "t.dtd",
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_text() == text
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("dtd, message", [
    ("<!ELEMENT sqlite_stat1 (#PCDATA)>", "sqlite_"),
    ("<!ELEMENT R (sqlite_x*)>\n<!ELEMENT sqlite_x (#PCDATA)>", "sqlite_"),
    ("<!ELEMENT R (x:y+)>\n<!ELEMENT x:y (#PCDATA)>", "line 2: expected an element "
                                                     "name without ':', found 'x:y'"),
], ids=["root-sqlite_stat1", "repeated-leaf-sqlite_x", "colon"])
def test_names_sqlite_or_the_parser_cannot_hold_fail_at_schema(workdir, capsys,
                                                               dtd, message):
    put(workdir, "t.dtd", dtd + "\n")
    assert main(["schema", "--dtd", "t.dtd"]) == 2
    assert message in one_line_error(capsys)


# -- validate ----------------------------------------------------------------------


def test_validate_accepts_what_ingest_produces(workdir):
    ingest_sample(workdir)
    assert main(["validate", "out.xml"]) == 0


def test_validate_rejects_a_broken_document(workdir, capsys):
    put(workdir, "bad.xml", "<COMPLEX_OBJECT><OBJ_NAME>x</OBJ_NAME>"
                            "</COMPLEX_OBJECT>\n")
    assert main(["validate", "bad.xml"]) == 3
    err = capsys.readouterr().err
    assert "bad.xml" in err and "COMPLEX_OBJECT" in err


def test_validate_against_a_custom_dtd(workdir, data_dir):
    put(workdir, "lib.xml",
        "<LIBRARY><NAME>City</NAME></LIBRARY>\n")
    assert main(["validate", "lib.xml", "--dtd",
                 str(data_dir / "library.dtd")]) == 0


def test_validate_missing_document(workdir):
    assert main(["validate", "none.xml"]) == 1


def test_validate_malformed_xml(workdir):
    put(workdir, "m.xml", "<A><B></A>\n")
    assert main(["validate", "m.xml"]) == 2


def one_line_error(capsys):
    """The one stderr line of a failed command, which printed nothing to stdout."""
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("multiform: error: "), \
        (out, lines)
    return lines[0]


def test_validate_a_document_that_is_not_utf8(workdir, capsys):
    put(workdir, "bad.xml", b"\xff<COMPLEX_OBJECT/>\n")
    assert main(["validate", "bad.xml"]) == 2
    assert "not valid UTF-8" in one_line_error(capsys)


def test_validate_against_a_dtd_that_is_not_utf8(workdir, capsys):
    put(workdir, "lib.xml", "<LIBRARY><NAME>City</NAME></LIBRARY>\n")
    put(workdir, "bad.dtd", b"<!ELEMENT LIBRARY (NAME)>\xff\n")
    assert main(["validate", "lib.xml", "--dtd", "bad.dtd"]) == 2
    assert "not valid UTF-8" in one_line_error(capsys)


def test_validate_a_5000_level_document(workdir):
    put(workdir, "deep.dtd", "<!ELEMENT S (R)>\n<!ELEMENT R (R?)>\n")
    put(workdir, "deep.xml", "<S>" + "<R>" * 5000 + "</R>" * 5000 + "</S>\n")
    assert main(["validate", "deep.xml", "--dtd", "deep.dtd"]) == 0


def test_validate_a_1000_level_invalid_document(workdir, capsys):
    put(workdir, "deep.xml", "<COMPLEX_OBJECT>" + "<SUBDOCUMENT>" * 1000
        + "</SUBDOCUMENT>" * 1000 + "</COMPLEX_OBJECT>\n")
    assert main(["validate", "deep.xml"]) == 3
    lines = capsys.readouterr().err.splitlines()
    # one violation per element, outermost first
    assert len(lines) == 1001
    assert lines[0].startswith("deep.xml: /COMPLEX_OBJECT: children do not match")
    assert lines[-1].startswith(
        "deep.xml: /COMPLEX_OBJECT" + "/SUBDOCUMENT" * 1000 + ": children")


@pytest.mark.parametrize("model", [
    "(" * 2000 + "A" + ")" * 2000,
    "(" * 1999 + "(A)*" + ")*" * 1999,
], ids=["parentheses", "repeats"])
def test_a_dtd_nested_2000_groups_deep_is_an_input_error(workdir, capsys, model):
    put(workdir, "deep.dtd", f"<!ELEMENT S (A)>\n<!ELEMENT R {model}>\n"
                             "<!ELEMENT A (#PCDATA)>\n")
    put(workdir, "doc.xml", "<S><A>x</A></S>\n")
    for argv in (["schema"], ["validate", "doc.xml"],
                 ["load", "doc.xml", "--sql-out", "out.sql"]):
        assert main([*argv, "--dtd", "deep.dtd"]) == 2
        assert one_line_error(capsys) == (
            "multiform: error: line 2: expected groups nested at most 128 "
            "deep, found '('")


def test_a_dtd_chaining_400_elements_is_an_input_error(workdir, capsys):
    n = 400
    put(workdir, "chain.dtd", "".join(
        f"<!ELEMENT E{k} (E{k + 1}, X{k}?)>\n<!ELEMENT X{k} (#PCDATA)>\n"
        for k in range(n)) + f"<!ELEMENT E{n} (#PCDATA)>\n")
    put(workdir, "chain.xml", "".join(f"<E{k}>" for k in range(n))
        + f"<E{n}>x</E{n}>" + "".join(f"</E{k}>" for k in reversed(range(n))))
    assert main(["validate", "chain.xml", "--dtd", "chain.dtd"]) == 0
    for argv in (["schema"], ["load", "chain.xml", "--sql-out", "out.sql"]):
        assert main([*argv, "--dtd", "chain.dtd"]) == 2
        assert one_line_error(capsys) == (
            "multiform: error: elements and groups nest more than 264 levels "
            "deep below E0")


def test_ingest_with_a_sidecar_that_is_not_utf8(workdir, capsys):
    put(workdir, "story.txt", "once\n")
    put(workdir, "bad.meta", b"keyword: \xff\n")
    assert main(["ingest", "story.txt", "--sidecar", "bad.meta"]) == 2
    assert "not valid UTF-8" in one_line_error(capsys)
    assert not (workdir / "story.xml").exists()


def test_ingest_with_a_missing_sidecar(workdir, capsys):
    put(workdir, "s.txt", "once\n")
    assert main(["ingest", "s.txt", "--sidecar", "missing.meta"]) == 2
    assert one_line_error(capsys) == (
        "multiform: error: cannot read 'missing.meta': No such file or directory")
    assert not (workdir / "s.xml").exists()


# -- load --------------------------------------------------------------------------


def test_load_reports_row_counts(workdir, capsys):
    ingest_sample(workdir)
    assert main(["load", "out.xml", "--db", "ods.db"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "complex_object: 1"
    assert "keyword: 3" in out
    assert "link: 0" in out
    assert len(out) == 12


def test_load_requires_a_destination(workdir):
    ingest_sample(workdir)
    assert main(["load", "out.xml"]) == 1


def test_load_of_an_invalid_document_creates_no_store(workdir):
    put(workdir, "bad.xml", "<COMPLEX_OBJECT/>\n")
    assert main(["load", "bad.xml", "--db", "ods.db"]) == 3
    assert not (workdir / "ods.db").exists()


def test_load_writes_a_sql_script_without_a_db(workdir):
    ingest_sample(workdir)
    assert main(["load", "out.xml", "--sql-out", "dump.sql"]) == 0
    script = (workdir / "dump.sql").read_text()
    assert "CREATE TABLE complex_object " in script
    assert "INSERT INTO keyword " in script


def test_load_accumulates_documents(workdir, capsys):
    ingest_sample(workdir)
    assert main(["load", "out.xml", "--db", "ods.db"]) == 0
    assert main(["load", "out.xml", "--db", "ods.db"]) == 0
    capsys.readouterr()
    assert main(["export", "--db", "ods.db", "--id", "2"]) == 0
    assert "<OBJ_NAME>Sample image</OBJ_NAME>" in capsys.readouterr().out


# -- export ------------------------------------------------------------------------


def test_export_round_trips_the_ingested_document(workdir, capsys):
    ingest_sample(workdir)
    main(["load", "out.xml", "--db", "ods.db"])
    capsys.readouterr()
    assert main(["export", "--db", "ods.db", "--id", "1"]) == 0
    assert capsys.readouterr().out == (workdir / "out.xml").read_text()


def test_export_out_flag_writes_a_file(workdir, capsys):
    ingest_sample(workdir)
    main(["load", "out.xml", "--db", "ods.db"])
    assert main(["export", "--db", "ods.db", "--id", "1",
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == \
        (workdir / "out.xml").read_bytes()


def test_export_unknown_id(workdir, capsys):
    ingest_sample(workdir)
    main(["load", "out.xml", "--db", "ods.db"])
    assert main(["export", "--db", "ods.db", "--id", "9"]) == 4


def test_export_of_an_id_no_sqlite_integer_holds(workdir, capsys):
    ingest_sample(workdir)
    main(["load", "out.xml", "--db", "ods.db"])
    capsys.readouterr()
    assert main(["export", "--db", "ods.db", "--id", "99999999999999999999"]) == 4
    assert one_line_error(capsys) == (
        "multiform: error: no row with id 99999999999999999999 in table complex_object")


def test_load_into_a_store_with_no_ids_left(workdir, capsys):
    # another writer took the largest id SQLite can hold
    ingest_sample(workdir)
    main(["load", "out.xml", "--db", "ods.db"])
    with sqlite3.connect(workdir / "ods.db") as conn:
        conn.execute("INSERT INTO complex_object (id) VALUES (9223372036854775807)")
    conn.close()
    before = (workdir / "ods.db").read_bytes()
    capsys.readouterr()
    assert main(["load", "out.xml", "--db", "ods.db"]) == 2
    assert one_line_error(capsys) == (
        "multiform: error: table complex_object has too few ids left: "
        "1 more would pass 9223372036854775807")
    assert (workdir / "ods.db").read_bytes() == before


def test_a_2000_row_view_goes_through_every_command(workdir, capsys):
    # ingest writes one TUPLE per row; long views once overflowed the stack
    rows = "".join(f"{i},\"a, b & <c> {i}\"\n" for i in range(2000))
    put(workdir, "big.csv", "id,text\n" + rows)
    assert main(["ingest", "big.csv", "--date", "2002-06-15",
                 "--out", "big.xml"]) == 0
    assert main(["validate", "big.xml"]) == 0
    assert main(["load", "big.xml", "--db", "ods.db"]) == 0
    assert "tuple: 2000" in capsys.readouterr().out.splitlines()
    assert main(["export", "--db", "ods.db", "--id", "1",
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == \
        (workdir / "big.xml").read_bytes()


def test_a_cell_past_the_csv_default_limit_goes_through_every_command(workdir):
    # the csv module refuses a field over 131,072 characters by default
    put(workdir, "big.csv", "k,v\n1," + "x" * 200_000 + "\n")
    assert main(["ingest", "big.csv", "--date", "2002-06-15",
                 "--out", "big.xml"]) == 0
    assert main(["load", "big.xml", "--db", "ods.db"]) == 0
    assert main(["export", "--db", "ods.db", "--id", "1",
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == \
        (workdir / "big.xml").read_bytes()


@pytest.mark.parametrize("name, content", [
    ("crlf.txt", b"line1\r\nline2\r\n"),
    ("cr.txt", b"a\rb"),
    ("cell.csv", b'k,v\n1,"a\rb"\n'),
], ids=["crlf-text", "cr-text", "cr-in-csv-cell"])
def test_carriage_returns_survive_every_command(workdir, name, content):
    put(workdir, name, content)
    assert main(["ingest", name, "--date", "2002-06-15", "--out", "cr.xml"]) == 0
    assert b"&#13;" in (workdir / "cr.xml").read_bytes()
    assert main(["validate", "cr.xml"]) == 0
    assert main(["load", "cr.xml", "--db", "ods.db"]) == 0
    assert main(["export", "--db", "ods.db", "--id", "1",
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == \
        (workdir / "cr.xml").read_bytes()


@pytest.mark.parametrize("files, flags, message", [
    ({"vt.txt": b"a\x0bb\n"}, [], "PLAIN_TEXT holds U+000B"),
    ({"nc.txt": "\ufffe".encode()}, [], "PLAIN_TEXT holds U+FFFE"),
    ({"cell.csv": b"k,v\n1,a\x01b\n"}, [], "VALUE holds U+0001"),
    ({"s.txt": b"ok\n", "s.meta": b"keyword: a\x01b\n"}, ["--sidecar", "s.meta"],
     "KEYWORD holds U+0001"),
    ({"s.txt": b"ok\n"}, ["--keywords", "a\x01b"], "KEYWORD holds U+0001"),
], ids=["vt-in-text", "noncharacter-in-text", "soh-in-csv-cell",
        "soh-in-sidecar-keyword", "soh-in-keyword-flag"])
def test_characters_xml_cannot_hold_are_an_input_error(workdir, capsys,
                                                        files, flags, message):
    for name, content in files.items():
        put(workdir, name, content)
    assert main(["ingest", next(iter(files)), "--out", "bad.xml", *flags]) == 2
    assert one_line_error(capsys) == \
        f"multiform: error: {message}, which XML 1.0 cannot represent"
    assert not (workdir / "bad.xml").exists()


def test_a_table_the_csv_reader_rejects_is_an_input_error(workdir, capsys, monkeypatch):
    # Read with newline="", the csv module rejects a cell over its field limit
    # (and, before Python 3.11, a NUL, which ingest refuses first). Ingest
    # raises the limit to fit the file, so this test holds it below one cell.
    set_limit = csv.field_size_limit
    old = set_limit(4)
    monkeypatch.setattr(csv, "field_size_limit", lambda *new: 4)
    try:
        put(workdir, "big.csv", "a,b\n1,2\n12345,3\n")
        assert main(["ingest", "big.csv", "--out", "big.xml"]) == 2
        assert "'big.csv' line 3: field larger than field limit (4)" in \
            one_line_error(capsys)
    finally:
        set_limit(old)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name, delimiter", [("t.csv", ","), ("t.tsv", "\t")])
def test_a_nul_in_a_table_is_an_input_error(workdir, capsys, name, delimiter, newline):
    put(workdir, name, f"a{delimiter}b{newline}1\0{delimiter}2{newline}".encode())
    assert main(["ingest", name, "--out", "t.xml"]) == 2
    assert one_line_error(capsys).endswith(f"{name!r} line 2: line contains NUL")
    assert not (workdir / "t.xml").exists()


@pytest.mark.parametrize("update", [
    "UPDATE text SET plain_text = X'41'",
    "UPDATE keyword SET subdocument_id = X'01'",
], ids=["text-column", "link-column"])
def test_the_store_refuses_a_blob_when_it_is_written(workdir, capsys, update):
    # sqlite3 leaves foreign keys off, so only the column's type can refuse it
    put(workdir, "s.txt", "once\n")
    assert main(["ingest", "s.txt", "--keywords", "a", "--out", "s.xml"]) == 0
    assert main(["load", "s.xml", "--db", "b.db"]) == 0
    with pytest.raises(sqlite3.IntegrityError):
        with sqlite3.connect(workdir / "b.db") as conn:
            conn.execute(update)
    conn.close()
    capsys.readouterr()
    assert main(["export", "--db", "b.db", "--id", "1", "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == (workdir / "s.xml").read_bytes()


@pytest.mark.parametrize("link", ["99", "NULL"])
def test_a_store_with_a_dangling_link_is_refused(workdir, capsys, link):
    # foreign keys are off, so SQLite takes a link to no row, and a STRICT
    # INTEGER column takes NULL
    put(workdir, "s.txt", "once\n")
    assert main(["ingest", "s.txt", "--keywords", "a", "--out", "s.xml"]) == 0
    assert main(["load", "s.xml", "--db", "b.db"]) == 0
    with sqlite3.connect(workdir / "b.db") as conn:
        conn.execute(f"UPDATE keyword SET subdocument_id = {link}")
    conn.close()
    capsys.readouterr()
    for command in (["export", "--db", "b.db", "--id", "1"],
                    ["load", "s.xml", "--db", "b.db"]):
        assert main(command) == 2
        assert capsys.readouterr() == (
            "", "multiform: error: row 1 of keyword links to no row of subdocument\n")


def test_a_store_made_before_tables_were_strict_is_refused(workdir, capsys):
    put(workdir, "s.txt", "once\n")
    assert main(["ingest", "s.txt", "--out", "s.xml"]) == 0
    old_ddl = emit_ddl(map_schema(builtin_schema())).replace(") STRICT;", ");")
    with sqlite3.connect(workdir / "old.db") as conn:
        conn.executescript(old_ddl)
    conn.close()
    capsys.readouterr()
    assert main(["load", "s.xml", "--db", "old.db"]) == 2
    assert one_line_error(capsys).startswith(
        "multiform: error: store table complex_object is 'CREATE TABLE complex_object (")
    assert main(["export", "--db", "old.db", "--id", "1"]) == 2
    one_line_error(capsys)


def test_export_round_trips_after_analyze(workdir, capsys):
    # ANALYZE (and PRAGMA optimize) add sqlite_stat1, which is SQLite's own
    ingest_sample(workdir)
    assert main(["load", "out.xml", "--db", "a.db"]) == 0
    with sqlite3.connect(workdir / "a.db") as conn:
        conn.execute("ANALYZE")
    conn.close()
    assert main(["load", "out.xml", "--db", "a.db"]) == 0
    assert main(["export", "--db", "a.db", "--id", "2", "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_bytes() == (workdir / "out.xml").read_bytes()


def test_export_missing_store(workdir):
    assert main(["export", "--db", "none.db", "--id", "1"]) == 1


def test_export_from_a_store_with_another_shape(workdir, data_dir, capsys):
    put(workdir, "lib.xml", "<LIBRARY><NAME>City</NAME></LIBRARY>\n")
    dtd = str(data_dir / "library.dtd")
    assert main(["load", "lib.xml", "--dtd", dtd, "--db", "lib.db"]) == 0
    assert main(["export", "--db", "lib.db", "--id", "1"]) == 2  # bundled schema


LIBRARY = """\
<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE LIBRARY SYSTEM "library.dtd">
<LIBRARY>
  <NAME>City</NAME>
  <BOOK>
    <TITLE>Maps</TITLE>
    <ISBN>1</ISBN>
    <AUTHOR>
      <LAST>Mercator</LAST>
    </AUTHOR>
  </BOOK>
</LIBRARY>
"""


def test_export_names_the_dtd_given_to_it(workdir, data_dir, capsys):
    put(workdir, "lib.xml", LIBRARY)
    dtd = str(data_dir / "library.dtd")
    assert main(["load", "lib.xml", "--dtd", dtd, "--db", "lib.db"]) == 0
    assert main(["export", "--db", "lib.db", "--id", "1", "--dtd", dtd,
                 "--out", "back.xml"]) == 0
    assert (workdir / "back.xml").read_text() == LIBRARY


def test_export_from_a_file_that_is_not_a_database(workdir, capsys):
    put(workdir, "junk.db", "this is not a database\n" * 100)
    assert main(["export", "--db", "junk.db", "--id", "1"]) == 2
    assert "file is not a database" in one_line_error(capsys)


def test_load_into_a_file_that_is_not_a_database(workdir, capsys):
    ingest_sample(workdir)
    put(workdir, "junk.db", "this is not a database\n" * 100)
    capsys.readouterr()
    assert main(["load", "out.xml", "--db", "junk.db"]) == 2
    assert "file is not a database" in one_line_error(capsys)


# -- the error contract under arbitrary input ---------------------------------------

# separators, quotes and markup make well-formed tables, sidecars and tags common
fuzz_text = st.text(st.sampled_from(',\t"\r\n:#<>=\'& ab')
                    | st.characters(codec="utf-8"))
fuzz_bytes = st.binary() | fuzz_text.map(str.encode)
sidecar_keys = st.sampled_from(["keyword", "language", "query", "name", "source",
                                "date", "domain.a", "resolution", "bogus"])
sidecar_values = st.text(st.characters(codec="utf-8",
                                       exclude_categories=("Cc", "Zl", "Zp")))
sidecars = st.none() | fuzz_bytes | st.lists(st.tuples(sidecar_keys, sidecar_values)).map(
    lambda pairs: "".join(f"{k}: {v}\n" for k, v in pairs).encode())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["in.txt", "in.csv", "in.tsv", "in.html"]), fuzz_bytes,
       sidecars)
def test_any_input_exits_cleanly_and_what_ingests_comes_back(name, data, sidecar):
    with tempfile.TemporaryDirectory() as tmp:
        at = Path(tmp)
        (at / name).write_bytes(data)
        flags = []
        if sidecar is not None:
            (at / "in.meta").write_bytes(sidecar)
            flags = ["--sidecar", str(at / "in.meta")]
        out, back, db = (str(at / n) for n in ("out.xml", "back.xml", "ods.db"))
        code = main(["ingest", str(at / name), "--out", out, *flags])
        assert code in range(5)
        if code == 0:
            assert main(["validate", out]) == 0
            assert main(["load", out, "--db", db]) == 0
            assert main(["export", "--db", db, "--id", "1", "--out", back]) == 0
            assert Path(back).read_bytes() == Path(out).read_bytes()


# DTD tokens, and whole declarations over the same names, so that both broken
# and loadable DTDs are common
dtd_names = st.sampled_from(["A", "B", "R"])
dtd_tokens = dtd_names | st.sampled_from([
    "<!ELEMENT", "<!ATTLIST", "EMPTY", "#PCDATA", "%x;", "(", ")", ",", "|", "?",
    "*", "+", ">", "\n", "<!-- c -->"])
dtd_models = st.recursive(
    dtd_names,
    lambda inner: st.builds(lambda parts, sep, mult: f"({sep.join(parts)}){mult}",
                            st.lists(inner, min_size=1, max_size=3),
                            st.sampled_from([", ", " | "]),
                            st.sampled_from(["", "?", "*", "+"])),
    max_leaves=5)
dtd_declarations = st.tuples(
    dtd_names,
    st.just("(#PCDATA)") | dtd_models.map(lambda m: m if m[0] == "(" else f"({m})"))
fuzz_dtds = st.binary() | st.one_of(
    st.lists(dtd_tokens),
    st.lists(dtd_declarations, unique_by=lambda d: d[0]).map(
        lambda ds: [f"<!ELEMENT {name} {model}>" for name, model in ds]),
).map(lambda pieces: " ".join(pieces).encode())
fuzz_docs = st.sampled_from(["<R><A>x</A><B>y</B></R>", "<A>x</A>", "<R/>",
                             "<B><A>a</A><A>b</A></B>", "<R><B><A/></B><A/></R>"])


@settings(max_examples=150, deadline=None)
@given(fuzz_dtds, fuzz_docs)
def test_any_dtd_exits_cleanly(dtd, doc):
    with tempfile.TemporaryDirectory() as tmp:
        at = Path(tmp)
        (at / "in.dtd").write_bytes(dtd)
        (at / "doc.xml").write_text(doc + "\n")
        flags = ["--dtd", str(at / "in.dtd")]
        assert main(["schema", *flags]) in range(5)
        assert main(["validate", str(at / "doc.xml"), *flags]) in range(5)
        assert main(["load", str(at / "doc.xml"), "--sql-out", str(at / "out.sql"),
                     *flags]) in range(5)


def test_console_entry_point(workdir):
    put(workdir, "s.txt", "hello\n")
    # The fixture has chdir'd into a temp directory, so a relative PYTHONPATH
    # (such as "src") no longer resolves there; hand the child the absolute
    # directory holding the multiform package these tests imported.
    package_root = str(Path(multiform.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "multiform", "ingest", "s.txt"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (workdir / "s.xml").exists()
