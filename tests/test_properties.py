"""Invariants checked over generated input rather than fixed samples."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from docgen import generate_document, mutate
from multiform.cli import main
from multiform.dtd import builtin_schema, parse_dtd, validate
from multiform.extract import count_lines, extract_links
from multiform.loader import OdsStore, export, load, shred
from multiform.mapper import map_schema
from multiform.model import ImageMeta, Subdocument, make_complex_object
from multiform.sidecar import parse_sidecar
from multiform.xmldoc import parse_document, serialize
from oracle import format_document, match_children, to_object

# every character XML 1.0 allows in text (the Char production, section 2.2);
# the serializer writes \r as a character reference so that it survives the
# parser's end-of-line folding
xml_text = st.text(st.one_of(
    st.sampled_from("\t\n\r"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF)))

# U+0085, U+2028 and U+2029 end a line for str.splitlines(), not in a sidecar
plain_line = st.text(st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                  blacklist_characters=":#"),
    st.sampled_from("\x85\u2028\u2029")),
    min_size=1).map(str.strip).filter(bool)


@given(st.text())
def test_line_count_counts_terminators_plus_a_fragment(content):
    expected = content.count("\n")
    if content and not content.endswith("\n"):
        expected += 1
    assert count_lines(content) == expected


@given(st.lists(plain_line))
def test_sidecar_keywords_keep_count_and_order(words):
    text = "".join(f"keyword: {w}\n" for w in words)
    assert parse_sidecar(text).keywords == tuple(words)


@given(st.lists(plain_line, min_size=1))
def test_sidecar_scalars_last_one_wins(values):
    text = "".join(f"language: {v}\n" for v in values)
    assert parse_sidecar(text).language == values[-1]


@given(st.lists(st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E,
                  blacklist_characters='">'),
    min_size=1), max_size=8))
def test_every_reference_is_extracted_in_order(urls):
    markup = " x ".join(f'<a href="{u}">' for u in urls)
    assert extract_links(markup) == tuple(urls)


@given(xml_text, xml_text)
def test_leaf_text_survives_the_document_format(source, name):
    obj = make_complex_object(name or "n", "2002-06-15", source, [
        Subdocument(doc_name="d", size=0, location="x",
                    payload=ImageMeta(length=1, width=1))])
    text = serialize(obj, builtin_schema())
    assert to_object(parse_document(text).root) == obj


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_any_generated_document_round_trips(schema, rschema, seed):
    document = generate_document(schema, random.Random(seed))
    report = validate(document, schema)
    assert report.valid
    with OdsStore(rschema) as store:
        load(shred(document, schema, rschema, report), store)
        assert export(store, 1, schema, rschema) == format_document(document)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_every_reported_match_is_the_match_of_its_element(schema, seed):
    rng = random.Random(seed)
    document = generate_document(schema, rng)
    for tree in (document, mutate(document, schema, rng)[1]):
        report = validate(tree, schema)
        if report.valid:
            assert set(report.matches) == {
                e for e in tree.iter() if not schema.is_leaf(e.tag)}
        for element, decisions in report.matches.items():
            assert decisions == match_children(
                schema.elements[element.tag], [c.tag for c in element])


# Element names SQLite reads as keywords or cannot take bare, names it
# reserves, and names that collide once lower-cased with a table, a column
# or each other
ELEMENT_NAMES = ["ORDER", "order", "GROUP", "select", "table", "Table", "query",
                 "my-item", "a.b", "_x", "x_", "sqlite_stat1", "sqlite_x", "ID",
                 "pos", "value", "E0", "E1", "E2", "E3", "E4", "E5", "E6", "E7"]


@st.composite
def tree_dtds(draw):
    """A DTD whose every element is referenced at most once, so it is tree
    shaped unless two drawn names coincide."""
    declarations = []

    def element(depth):
        name = draw(st.sampled_from(ELEMENT_NAMES))
        at = len(declarations)
        declarations.append(None)
        if depth < 3 and draw(st.booleans()):
            body = model(depth)
            body = body if body.startswith("(") else f"({body})"
        else:
            body = "(#PCDATA)"
        declarations[at] = f"<!ELEMENT {name} {body}>"
        return name

    def model(depth):
        if draw(st.integers(0, 2)) == 0:
            return element(depth + 1)
        parts = [model(depth + 1) if draw(st.booleans()) and depth < 2
                 else element(depth + 1)
                 for _ in range(draw(st.integers(1, 3)))]
        sep = draw(st.sampled_from([", ", " | "]))
        return f"({sep.join(parts)}){draw(st.sampled_from(['', '?', '*', '+']))}"

    element(0)
    return "\n".join(declarations) + "\n"


@settings(max_examples=200, deadline=None)
@given(tree_dtds(), st.integers(0, 2 ** 32))
def test_any_tree_shaped_dtd_fails_at_schema_or_round_trips(dtd, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.dtd"
        path.write_text(dtd)
        code = main(["schema", "--dtd", str(path), "--out", str(Path(tmp) / "ddl.sql")])
    assert code in (0, 2)
    if code == 2:
        return
    schema = parse_dtd(dtd)
    rschema = map_schema(schema)
    rng = random.Random(seed)
    with OdsStore(rschema) as store:
        for i in range(5):
            document = generate_document(schema, rng)
            text = format_document(document, system_id="t.dtd")
            document = parse_document(text).root
            report = validate(document, schema)
            assert report.valid
            load(shred(document, schema, rschema, report), store)
            assert export(store, i + 1, schema, rschema, system_id="t.dtd") == text
