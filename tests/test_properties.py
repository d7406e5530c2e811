"""Invariants checked over generated input rather than fixed samples."""

import random

from hypothesis import given, settings, strategies as st

from docgen import generate_document, mutate
from multiform.dtd import builtin_schema, match_children, validate
from multiform.extract import count_lines, extract_links
from multiform.loader import OdsStore, export, load, shred
from multiform.model import ImageMeta, Subdocument, make_complex_object
from multiform.sidecar import parse_sidecar
from multiform.xmldoc import format_document, parse_document, serialize, to_object

# every character XML 1.0 allows in text (the Char production, section 2.2);
# the serializer writes \r as a character reference so that it survives the
# parser's end-of-line folding
xml_text = st.text(st.one_of(
    st.sampled_from("\t\n\r"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF)))

plain_line = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                  blacklist_characters=":#"),
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
        for element, mtree in report.matches.items():
            assert mtree == match_children(schema.elements[element.tag],
                                           [c.tag for c in element])
