import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from multiform.dtd import validate
from multiform.errors import (
    ModelViolation,
    NotWellFormed,
    UnrepresentableCharacter,
    UnsupportedConstruct,
)
from multiform.model import (
    Attribute,
    Cell,
    ComplexObject,
    ContinuousMeta,
    ImageMeta,
    PlainText,
    RelationalView,
    Sound,
    Subdocument,
    TaggedText,
    TextPayload,
    Video,
    ViewTuple,
    make_complex_object,
)
from multiform.xmldoc import (
    _SLICE as SLICE,
    parse_document,
    serialize,
    xml_escape,
)


def one_sub(payload, **kw):
    args = dict(doc_name="d", size=1, location="loc", payload=payload)
    args.update(kw)
    return Subdocument(**args)


def image_object(**sub_kw):
    payload = ImageMeta(length=219, width=344, format="Gif")
    return make_complex_object("Obj", "2002-06-15", "Local",
                               [one_sub(payload, **sub_kw)])


def test_prolog_doctype_and_layout(schema):
    text = serialize(image_object(), schema)
    lines = text.split("\n")
    assert lines[0] == '<?xml version="1.0" encoding="UTF-8"?>'
    assert lines[1] == '<!DOCTYPE COMPLEX_OBJECT SYSTEM "mlfd.dtd">'
    assert lines[2] == "<COMPLEX_OBJECT>"
    assert lines[3] == "  <OBJ_NAME>Obj</OBJ_NAME>"
    assert text.endswith("</COMPLEX_OBJECT>\n")


def test_system_id_is_configurable(schema):
    text = serialize(image_object(), schema, system_id="../shared/mlfd.dtd")
    assert '<!DOCTYPE COMPLEX_OBJECT SYSTEM "../shared/mlfd.dtd">' in text


def test_unset_scalars_become_empty_elements(schema):
    text = serialize(image_object(), schema)
    assert "<COMPRESSION/>" in text
    assert "<RESOLUTION/>" in text
    assert "<FORMAT>Gif</FORMAT>" in text


def test_optional_absent_fields_are_omitted(schema):
    text = serialize(image_object(), schema)
    assert "<LANGUAGE" not in text
    text2 = serialize(image_object(language=""), schema)
    assert "<LANGUAGE/>" in text2  # present-but-empty is not absent


def test_escaping_in_leaf_content(schema):
    payload = TextPayload(nb_char=9, nb_lines=1, body=PlainText("a<b>&c"))
    obj = make_complex_object("x & y", "2002-06-15", "<here>", [one_sub(payload)])
    text = serialize(obj, schema)
    assert "<OBJ_NAME>x &amp; y</OBJ_NAME>" in text
    assert "<SOURCE>&lt;here&gt;</SOURCE>" in text
    assert "<PLAIN_TEXT>a&lt;b&gt;&amp;c</PLAIN_TEXT>" in text


def test_xml_escape_touches_only_markup_characters():
    assert xml_escape("a&b<c>d'\"") == "a&amp;b&lt;c&gt;d'\""


def test_serialization_is_deterministic(schema):
    a = serialize(image_object(), schema)
    b = serialize(image_object(), schema)
    assert a == b


def test_keywords_keep_their_order(schema):
    obj = image_object(keywords=("z", "a", "m"))
    text = serialize(obj, schema)
    assert text.index("<KEYWORD>z<") < text.index("<KEYWORD>a<") \
        < text.index("<KEYWORD>m<")


@pytest.mark.parametrize("source, sub_kw, element", [
    ("\x01", {}, "SOURCE"),
    ("Local", {"location": "a\x0bb"}, "LOCATION"),
    ("Local", {"keywords": ("ok", "\ufffe")}, "KEYWORD"),
    ("Local", {"language": "\uffff"}, "LANGUAGE"),
    ("Local", {"payload": TextPayload(1, 1, PlainText("\x00"))}, "PLAIN_TEXT"),
    ("Local", {"payload": ImageMeta(1, 1, resolution="\ud800")}, "RESOLUTION"),
    ("Local", {"payload": TextPayload(9, 3, PlainText("a\nb\n<c>\x1f"))},
     "PLAIN_TEXT"),
    ("Local", {"payload": RelationalView(
        attributes=(Attribute("k"),),
        tuples=(ViewTuple((Cell("k", "1"),)), ViewTuple((Cell("k", "2\x02"),))))},
     "VALUE"),
])
def test_characters_outside_xml_are_rejected_with_their_element(
        schema, source, sub_kw, element):
    sub_kw = {"payload": ImageMeta(length=1, width=1), **sub_kw}
    obj = make_complex_object("Obj", "2002-06-15", source, [one_sub(**sub_kw)])
    with pytest.raises(UnrepresentableCharacter) as err:
        serialize(obj, schema)
    assert err.value.element == element
    assert f"{element} holds U+" in str(err.value)


def test_a_system_id_outside_xml_is_rejected(schema):
    for system_id in ("a\x01.dtd", "<a\x01.dtd"):
        with pytest.raises(UnrepresentableCharacter) as err:
            serialize(image_object(), schema, system_id=system_id)
        assert str(err.value) == "DOCTYPE holds U+0001, which XML 1.0 cannot represent"


def test_format_document_renders_empty_leaves_as_self_closing():
    root = ET.Element("R")
    root.text = ""
    assert oracle.format_document(root, system_id="r.dtd").splitlines()[-1] == "<R/>"


# -- parsing --------------------------------------------------------------------


def test_parse_captures_the_doctype(schema):
    doc = parse_document(serialize(image_object(), schema))
    assert doc.doctype == "COMPLEX_OBJECT"
    assert doc.root.tag == "COMPLEX_OBJECT"


def test_parse_without_doctype():
    doc = parse_document("<A>x</A>")
    assert doc.doctype is None
    assert doc.root.text == "x"


@pytest.mark.parametrize("prolog, name", [
    ('\ufeff<?xml version="1.0" encoding="UTF-8"?>\n<!DOCTYPE R SYSTEM "r.dtd">\n', "R"),
    ("\ufeff<!DOCTYPE R>\n", "R"),
    ('<?xml version="1.0"?>\n<!-- a - b -->\n<!DOCTYPE R SYSTEM "r.dtd">\n', "R"),
    ('<?xml version="1.0"?>\n<?style a?b > c?>\n<!DOCTYPE R SYSTEM "r.dtd">\n', "R"),
    ("<!DOCTYPE R [\n<!ELEMENT R (#PCDATA)>\n]>\n", "R"),
    ("<!DOCTYPE R[<!ELEMENT R (#PCDATA)>]>", "R"),
    ('<!DOCTYPE R PUBLIC "-//x//y" "r.dtd">\n', "R"),
    ("\n\n<!DOCTYPE\tR\t>\n", "R"),
    ('<?xml version="1.0"?>\n', None),
    ("<!-- <!DOCTYPE X> -->\n", None),
], ids=["bom", "bom-no-declaration", "comment", "pi", "internal-subset",
        "internal-subset-tight", "public-id", "whitespace", "none", "in-a-comment"])
def test_parse_reads_the_doctype_name_past_the_prolog(prolog, name):
    doc = parse_document(prolog + "<R>x</R>\n<!-- <!DOCTYPE Y> -->\n")
    assert doc.doctype == name
    assert doc.root.text == "x"


def test_parse_skips_comments_and_processing_instructions():
    doc = parse_document("<A><!-- note --><?pi data?><B/></A>")
    assert [c.tag for c in doc.root] == ["B"]


def test_parse_reports_the_line_of_the_failure():
    with pytest.raises(NotWellFormed) as err:
        parse_document("<A>\n<B>\n</A>")
    assert err.value.line == 3


def test_parse_rejects_attributes():
    with pytest.raises(UnsupportedConstruct) as err:
        parse_document('<A><B x="1"/></A>')
    assert "B" in str(err.value)


def test_entity_references_are_resolved():
    doc = parse_document("<A>x &amp; y &lt;z&gt;</A>")
    assert doc.root.text == "x & y <z>"


# -- parsing in slices --------------------------------------------------------------


@pytest.mark.parametrize("char", ["x", "\xe9", "€", "\U0001f600"],
                         ids=["ascii", "latin-1", "bmp", "astral"])
def test_parse_leaves_no_utf8_copy_on_the_text(char):
    text = "<A>" + char * 3000 + "</A>"   # built here, so nothing cached it
    size = sys.getsizeof(text)
    assert parse_document(text).root.text == char * 3000
    assert sys.getsizeof(text) == size


def shape(element) -> tuple:
    return element.tag, element.text, element.tail, [shape(c) for c in element]


def outcome(parse, text):
    """The tree's shape, or the line and message of the failure."""
    try:
        return shape(parse(text))
    except NotWellFormed as exc:
        return exc.line, exc.reason
    except ET.ParseError as exc:
        return exc.position[0], str(exc)


def at_boundary(tail: str, head: str = "<A>", pad: str = "x") -> str:
    """`head`, `pad` repeated, then `tail` starting one character before
    the second slice."""
    return head + pad * (SLICE - 1 - len(head)) + tail


@pytest.mark.parametrize("text", [
    at_boundary("\xe9\U0001f600</A>"),
    at_boundary("\U0001f600€</A>"),
    at_boundary("\r\ny</A>"),
    at_boundary("\r\n<A/>", "", " "),
    at_boundary("\r\n\n<", "<A/>", " "),
    at_boundary("\r\n" + "\r\n" * SLICE + "<", "<A/>", "\n"),
    at_boundary("\xe9\xe9&", "<A/>\n", "\xe9"),
    at_boundary("</B></A>", "<A><B>"),
    at_boundary("z\n\n</B>"),
    at_boundary("</A>" + "<B>\xe9</B>\n" * 10),
    at_boundary("\xe9</A>", '<?xml version="1.0" encoding="ISO-8859-1"?>\n<A>'),
    at_boundary("\xe9</A>", '<?xml version="1.0" encoding="UTF-16"?>\n<A>'),
    "<A>\n" + "<B>\xe9 \U0001f600</B>\r\n" * (SLICE // 5) + "</A>",
], ids=["two-byte-then-astral", "astral-then-bmp", "crlf", "crlf-before-the-root",
        "crlf-after-the-root", "crlf-after-the-root-twice", "name-after-the-root",
        "close-tag", "error-after", "error-in-second-slice", "iso-8859-1", "utf-16",
        "many-slices"])
def test_a_text_longer_than_a_slice_parses_as_a_whole(text):
    assert len(text) > SLICE
    assert outcome(lambda t: parse_document(t).root, text) == outcome(ET.fromstring, text)


@pytest.mark.parametrize("text, line", [
    ("<A>\ud800</A>", 1),
    ("<A>\n\r\n\udfff</A>", 3),
    ("<A>\r\r<B>\udbff\U0001f600</B></A>", 3),
    ("<A>\n" + "x" * SLICE + "\n\ud800</A>", 3),
    ("<A>" + "\xe9" * (SLICE + 5) + "\ud800</A>", 1),
], ids=["line-1", "line-3", "line-3-cr", "past-a-slice", "past-a-slice-line-1"])
def test_a_lone_surrogate_is_not_well_formed(text, line):
    code_point = next(f"U+{ord(c):04X}" for c in text if "\ud800" <= c <= "\udfff")
    with pytest.raises(NotWellFormed) as err:
        parse_document(text)
    assert err.value.line == line
    assert err.value.reason == (f"{code_point} is a lone surrogate, "
                                "which XML 1.0 cannot represent")


# -- object round trip -------------------------------------------------------------


PAYLOADS = [
    TextPayload(nb_char=6, nb_lines=2, body=PlainText("ab\ncd\n")),
    TextPayload(nb_char=0, nb_lines=0, body=PlainText("")),
    TextPayload(nb_char=20, nb_lines=1,
                body=TaggedText('<a href="x">go</a> &', links=("x", "x"))),
    RelationalView(attributes=(Attribute("name"), Attribute("age", "integer"))),
    RelationalView(
        attributes=(Attribute("a"),),
        tuples=(ViewTuple((Cell("a", "1"),)), ViewTuple((Cell("a", ""),))),
        query="SELECT a FROM t"),
    ImageMeta(length=10, width=20),
    ImageMeta(length=1, width=1, format="Png", compression="deflate",
              resolution="300dpi"),
    ContinuousMeta("3.5", "44.1 kHz", Sound("a.wav")),
    ContinuousMeta("90", "25 fps", Video("b.mp4")),
]


@pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
def test_parse_of_serialize_rebuilds_the_object(schema, payload):
    obj = make_complex_object("Obj", "2002-06-15", "Local",
                              [one_sub(payload, keywords=("k1", "k2"),
                                       language="en")])
    doc = parse_document(serialize(obj, schema))
    assert oracle.to_object(doc.root) == obj


def test_round_trip_distinguishes_absent_from_empty_language(schema):
    absent = image_object()
    empty = image_object(language="")
    assert oracle.to_object(parse_document(serialize(absent, schema)).root) == absent
    assert oracle.to_object(parse_document(serialize(empty, schema)).root) == empty


def test_round_trip_of_multiple_subdocuments(schema):
    obj = make_complex_object("multi", "2002-06-15", "Web", [
        one_sub(TextPayload(nb_char=2, nb_lines=1, body=PlainText("hi"))),
        one_sub(ImageMeta(length=5, width=5), doc_name="pic"),
    ])
    doc = parse_document(serialize(obj, schema))
    rebuilt = oracle.to_object(doc.root)
    assert rebuilt == obj
    assert [s.type for s in rebuilt.subdocuments] == ["Text", "Image"]


# -- against the schema-driven serializer in oracle.py ---------------------------

# markup, CR and a non-ASCII letter exercise escaping; the oracle test is
# about element order, so a small alphabet keeps examples readable
leaf = st.text(st.sampled_from("ab &<>\r\n\t\u00e9"), max_size=5)
name = leaf.filter(bool)
unset_or_leaf = st.none() | leaf

text_payloads = st.builds(
    TextPayload, nb_char=st.integers(0, 999), nb_lines=st.integers(0, 99),
    body=st.builds(PlainText, leaf)
    | st.builds(TaggedText, leaf, st.lists(leaf, max_size=3).map(tuple)))


@st.composite
def views(draw):
    names = draw(st.lists(name, min_size=1, max_size=3, unique=True))
    cells = st.lists(st.builds(Cell, st.sampled_from(names), leaf), min_size=1, max_size=3)
    return RelationalView(
        attributes=tuple(Attribute(n, draw(leaf)) for n in names),
        tuples=tuple(ViewTuple(tuple(c)) for c in draw(st.lists(cells, max_size=4))),
        query=draw(unset_or_leaf))


images = st.builds(ImageMeta, length=st.integers(1, 9999), width=st.integers(1, 9999),
                   format=unset_or_leaf, compression=unset_or_leaf,
                   resolution=unset_or_leaf)
continuous = st.builds(ContinuousMeta, st.sampled_from(["0", "3.5", "90"]), name,
                       st.builds(Sound, leaf) | st.builds(Video, leaf))
subdocuments = st.builds(
    Subdocument, doc_name=name, size=st.integers(0, 10 ** 6), location=leaf,
    payload=st.one_of(text_payloads, views(), images, continuous),
    language=unset_or_leaf, keywords=st.lists(leaf, max_size=4).map(tuple))
objects = st.builds(ComplexObject, obj_name=name, date=st.dates(), source=leaf,
                    subdocuments=st.lists(subdocuments, min_size=1, max_size=4)
                    .map(tuple))


@settings(max_examples=200, deadline=None)
@given(objects)
def test_serialize_matches_the_schema_driven_oracle(schema, obj):
    text = serialize(obj, schema)
    assert text == oracle.serialize(obj, schema)
    assert validate(parse_document(text).root, schema).valid


def test_an_unknown_payload_variant_is_a_model_violation(schema):
    obj = image_object()
    object.__setattr__(obj.subdocuments[0], "payload", "not a payload")
    with pytest.raises(ModelViolation):
        serialize(obj, schema)
