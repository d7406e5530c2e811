"""End-to-end acceptance checks, one test per criterion.

Run with -s to see one PASS/FAIL line per criterion:

    pytest tests/test_acceptance.py -s
"""

import json
import random
import time

import pytest

from docgen import generate_document, mutate
from imagegen import make_gif, make_png
from multiform.cli import main
from multiform.dtd import (
    builtin_dtd_text,
    builtin_schema,
    parse_dtd,
    render_model,
    validate,
)
from multiform.extract import extract_image, extract_text
from multiform.loader import OdsStore, export, load, shred
from multiform.mapper import emit_ddl, map_schema
from oracle import format_document


def report(criterion, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict}: criterion {criterion} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_bundled_dtd_parses(data_dir):
    started = time.perf_counter()
    schema = parse_dtd(builtin_dtd_text())
    elapsed = time.perf_counter() - started
    spot = {
        "COMPLEX_OBJECT": "(OBJ_NAME, DATE, SOURCE, SUBDOCUMENT+)",
        "SUBDOCUMENT": "(DOC_NAME, TYPE, SIZE, LOCATION, LANGUAGE?, KEYWORD*, "
                       "(TEXT | RELATIONAL_VIEW | IMAGE | CONTINUOUS))",
        "TEXT": "(NB_CHAR, NB_LINES, (PLAIN_TEXT | TAGGED_TEXT))",
        "TUPLE": "(ATT_NAME_REF, VALUE)+",
        "CONTINUOUS": "(DURATION, SPEED, (SOUND | VIDEO))",
    }
    ok = (len(schema.elements) == 37
          and schema.root == "COMPLEX_OBJECT"
          and all(render_model(schema.elements[name]) == model
                  for name, model in spot.items())
          and elapsed < 1.0)
    report(1, ok, f"37 declarations, root and 5 content models as expected "
                  f"({elapsed * 1000:.0f} ms)")


def test_criterion_2_schema_compilation(data_dir):
    rschema = map_schema(builtin_schema())
    with open(data_dir / "ods_tables.json") as fh:
        expected = json.load(fh)["tables"]
    facts = [{"name": t.name, "element": t.element, "parent": t.parent,
              "columns": t.column_names()} for t in rschema.tables]
    again = emit_ddl(map_schema(parse_dtd(builtin_dtd_text())))
    ok = (len(rschema.tables) == 12
          and facts == expected
          and emit_ddl(rschema) == again)
    report(2, ok, "12 tables with the expected shapes; DDL byte-identical "
                  "across independent runs")


def test_criterion_3_image_pipeline(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = make_gif(344, 219, total_size=4407)
    with open("wave.gif", "wb") as fh:
        fh.write(data)
    with open("wave.meta", "w") as fh:
        fh.write("keyword: surf\nkeyword: black and white\nkeyword: wave\n")
    started = time.perf_counter()
    code = main(["ingest", "wave.gif", "--sidecar", "wave.meta",
                 "--out", "wave.xml"])
    elapsed = time.perf_counter() - started
    text = (tmp_path / "wave.xml").read_text()
    kw = [text.find(f"<KEYWORD>{k}</KEYWORD>")
          for k in ("surf", "black and white", "wave")]
    valid = main(["validate", "wave.xml"]) == 0
    ok = (code == 0
          and "<WIDTH>344</WIDTH>" in text
          and "<LENGTH>219</LENGTH>" in text
          and "<COMPRESSION/>" in text
          and f"<SIZE>{len(data)}</SIZE>" in text
          and -1 not in kw and kw == sorted(kw)
          and valid
          and elapsed < 1.0)
    report(3, ok, f"generated GIF ingested with exact dimensions, size and "
                  f"keyword order; document validates ({elapsed * 1000:.0f} ms)")


def round_trips(schema, rschema, count, seed, system_id):
    rng = random.Random(seed)
    failures = 0
    with OdsStore(rschema) as store:
        for i in range(count):
            document = generate_document(schema, rng)
            text = format_document(document, system_id=system_id)
            verdict = validate(document, schema)
            load(shred(document, schema, rschema, verdict), store)
            back = export(store, i + 1, schema, rschema, system_id=system_id)
            if back != text:
                failures += 1
    return failures


def test_criterion_4_round_trip(schema, rschema):
    started = time.perf_counter()
    failures = round_trips(schema, rschema, 200, seed=4, system_id="mlfd.dtd")
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    report(4, ok, f"200 generated documents exported byte-identically, "
                  f"{failures} failures ({elapsed:.2f} s)")


def test_criterion_5_mutation_rejection(schema):
    rng = random.Random(5)
    originals_valid = 0
    mutants_invalid = 0
    for _ in range(50):
        document = generate_document(schema, rng)
        if validate(document, schema).valid:
            originals_valid += 1
        _, mutant = mutate(document, schema, rng)
        if not validate(mutant, schema).valid:
            mutants_invalid += 1
    ok = originals_valid == 50 and mutants_invalid == 50
    report(5, ok, f"{originals_valid}/50 originals valid, "
                  f"{mutants_invalid}/50 mutants rejected")


def test_criterion_6_extraction_accuracy(tmp_path):
    PIL = pytest.importorskip("PIL.Image")

    def metrics(content):
        path = tmp_path / "t.txt"
        path.write_text(content)
        payload = extract_text(str(path))
        return payload.nb_char, payload.nb_lines

    samples = [("a.gif", make_gif(344, 219)), ("b.gif", make_gif(1, 1)),
               ("c.png", make_png(640, 480)), ("d.png", make_png(2, 900)),
               ("e.gif", make_gif(13, 7, total_size=600))]
    agreed = 0
    for name, data in samples:
        path = tmp_path / name
        path.write_bytes(data)
        meta = extract_image(str(path))
        with PIL.open(path) as img:
            agreed += (meta.width, meta.length) == img.size
    ok = (metrics("ab\ncd\n") == (6, 2)
          and metrics("") == (0, 0)
          and agreed == len(samples))
    report(6, ok, f"text metrics exact; image dimensions agree with an "
                  f"independent decoder on {agreed}/{len(samples)} samples")


def test_criterion_7_second_schema_round_trip(data_dir):
    with open(data_dir / "library.dtd") as fh:
        schema = parse_dtd(fh.read())
    rschema = map_schema(schema)
    failures = round_trips(schema, rschema, 200, seed=7,
                           system_id="library.dtd")
    report(7, failures == 0,
           f"200 documents of an unrelated bibliographic schema round-trip, "
           f"{failures} failures")


def test_criterion_8_cli_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open("page.html", "w") as fh:
        fh.write('<html><a href="http://example.org/a">a</a>\n'
                 '<img src="pics/b.gif"></html>\n')
    with open("shot.png", "wb") as fh:
        fh.write(make_png(31, 17))
    codes = [
        main(["ingest", "page.html", "shot.png", "--name", "Clip",
              "--date", "2002-06-15", "--out", "clip.xml"]),
        main(["validate", "clip.xml"]),
        main(["schema", "--out", "ddl.sql"]),
        main(["load", "clip.xml", "--db", "ods.db"]),
        main(["export", "--db", "ods.db", "--id", "1", "--out", "back.xml"]),
    ]
    capsys.readouterr()
    identical = (tmp_path / "back.xml").read_bytes() == \
        (tmp_path / "clip.xml").read_bytes()
    ok = codes == [0, 0, 0, 0, 0] and identical
    report(8, ok, f"ingest/validate/schema/load/export exit codes {codes}; "
                  f"exported document byte-identical to the ingested one")
