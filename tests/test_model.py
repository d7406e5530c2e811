import datetime
from dataclasses import fields

import pytest

from multiform.errors import EmptySubdocuments, InvalidDate, InvariantViolation
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
    apply_sidecar,
    make_complex_object,
)
from multiform.sidecar import SidecarRecord


def text_sub(**kw):
    payload = TextPayload(nb_char=5, nb_lines=1, body=PlainText("hello"))
    args = dict(doc_name="note", size=5, location="note.txt", payload=payload)
    args.update(kw)
    return Subdocument(**args)


def test_type_is_derived_from_the_payload():
    assert text_sub().type == "Text"
    image = text_sub(payload=ImageMeta(length=10, width=20))
    assert image.type == "Image"
    view = text_sub(payload=RelationalView(attributes=(Attribute("a"),)))
    assert view.type == "Relational view"
    sound = text_sub(payload=ContinuousMeta("3.5", "44 kHz", Sound("x.wav")))
    assert sound.type == "Sound"
    video = text_sub(payload=ContinuousMeta("3.5", "25 fps", Video("x.avi")))
    assert video.type == "Video"


def test_explicit_type_must_match_the_payload():
    assert text_sub(type="Text").type == "Text"
    with pytest.raises(InvariantViolation):
        text_sub(type="Image")


def test_subdocument_rejects_empty_name_and_negative_size():
    with pytest.raises(InvariantViolation):
        text_sub(doc_name="")
    with pytest.raises(InvariantViolation):
        text_sub(size=-1)


def test_image_dimensions_must_be_positive():
    with pytest.raises(InvariantViolation):
        ImageMeta(length=0, width=10)
    with pytest.raises(InvariantViolation):
        ImageMeta(length=10, width=0)


def test_view_attributes_must_be_nonempty_and_unique():
    with pytest.raises(InvariantViolation):
        RelationalView(attributes=())
    with pytest.raises(InvariantViolation):
        RelationalView(attributes=(Attribute("a"), Attribute("a")))


def test_view_cells_must_reference_declared_attributes():
    atts = (Attribute("name"), Attribute("age"))
    good = ViewTuple((Cell("name", "Ada"), Cell("age", "36")))
    RelationalView(attributes=atts, tuples=(good,))
    with pytest.raises(InvariantViolation):
        RelationalView(attributes=atts,
                       tuples=(ViewTuple((Cell("salary", "1"),)),))


def test_an_undeclared_cell_is_named_in_the_message():
    with pytest.raises(InvariantViolation) as err:
        RelationalView(attributes=(Attribute("a"),),
                       tuples=(ViewTuple((Cell("a", "1"), Cell("x", "2"))),))
    assert str(err.value) == "cell references undeclared attribute 'x'"


def test_tuple_needs_at_least_one_cell():
    with pytest.raises(InvariantViolation):
        ViewTuple(())


def test_continuous_duration_is_decimal_text():
    ContinuousMeta("0", "1x", Sound("a.wav"))
    ContinuousMeta("12.25", "1x", Sound("a.wav"))
    with pytest.raises(InvariantViolation):
        ContinuousMeta("-1", "1x", Sound("a.wav"))
    with pytest.raises(InvariantViolation):
        ContinuousMeta("fast", "1x", Sound("a.wav"))
    with pytest.raises(InvariantViolation):
        ContinuousMeta("3", "", Sound("a.wav"))


def test_object_needs_a_subdocument():
    with pytest.raises(EmptySubdocuments):
        make_complex_object("X", "2002-06-15", "Local", [])


def test_make_complex_object_parses_iso_dates():
    obj = make_complex_object("X", "2002-06-15", "Local", [text_sub()])
    assert obj.date == datetime.date(2002, 6, 15)
    with pytest.raises(InvalidDate):
        make_complex_object("X", "15/06/2002", "Local", [text_sub()])


def test_make_complex_object_defaults_date_to_today():
    obj = make_complex_object("X", None, "Local", [text_sub()])
    assert isinstance(obj.date, datetime.date)


def test_object_requires_a_name():
    with pytest.raises(InvariantViolation):
        ComplexObject(obj_name="", date=datetime.date(2002, 6, 15),
                      source="Local", subdocuments=(text_sub(),))


# -- sidecar overlay -------------------------------------------------------------


def test_sidecar_overlays_common_fields():
    record = SidecarRecord(keywords=("a", "b"), language="en", name="Renamed")
    out = apply_sidecar(text_sub(), record)
    assert out.keywords == ("a", "b")
    assert out.language == "en"
    assert out.doc_name == "Renamed"
    assert out.size == 5  # extracted facts stay


def test_sidecar_overlays_image_fields():
    sub = text_sub(payload=ImageMeta(length=10, width=20, format="Gif"))
    record = SidecarRecord(compression="LZW", resolution="72dpi")
    out = apply_sidecar(sub, record)
    assert out.payload.compression == "LZW"
    assert out.payload.resolution == "72dpi"
    assert out.payload.format == "Gif"
    assert out.payload.width == 20


def test_sidecar_overlays_view_query_and_domains():
    view = RelationalView(attributes=(Attribute("age"), Attribute("name")))
    sub = text_sub(payload=view)
    record = SidecarRecord(query="SELECT *", domains={"age": "integer"})
    out = apply_sidecar(sub, record)
    assert out.payload.query == "SELECT *"
    assert [a.domain for a in out.payload.attributes] == ["integer", "string"]


def test_sidecar_overlays_continuous_fields():
    sub = text_sub(payload=ContinuousMeta("1", "1x", Video("v.avi")))
    out = apply_sidecar(sub, SidecarRecord(duration="90", speed="25 fps"))
    assert out.payload.duration == "90"
    assert out.payload.speed == "25 fps"


_EVERY_FIELD = SidecarRecord(
    keywords=("k",), language="fr", resolution="9dpi", compression="LZW",
    duration="90", speed="2x", query="SELECT 1", name="Renamed",
    source="Web", date="2001-01-01", domains={"age": "integer"})


@pytest.mark.parametrize("payload, changed", [
    (TextPayload(nb_char=5, nb_lines=1, body=PlainText("hello")), set()),
    (ImageMeta(length=10, width=20, format="Gif"), {"compression", "resolution"}),
    (RelationalView(attributes=(Attribute("age"), Attribute("name"))),
     {"query", "attributes"}),
    (ContinuousMeta("1", "1x", Sound("s.wav")), {"duration", "speed"}),
    (ContinuousMeta("1", "1x", Video("v.avi")), {"duration", "speed"}),
], ids=["text", "image", "view", "sound", "video"])
def test_a_record_changes_only_the_fields_its_payload_takes(payload, changed):
    sub = text_sub(payload=payload)
    out = apply_sidecar(sub, _EVERY_FIELD)
    assert {f.name for f in fields(Subdocument)
            if getattr(out, f.name) != getattr(sub, f.name)} == \
        {"keywords", "language", "doc_name"} | ({"payload"} if changed else set())
    assert {f.name for f in fields(payload)
            if getattr(out.payload, f.name) != getattr(payload, f.name)} == changed
    for name in changed - {"attributes"}:
        assert getattr(out.payload, name) == getattr(_EVERY_FIELD, name)
    if "attributes" in changed:
        assert out.payload.attributes == (Attribute("age", "integer"), Attribute("name"))


def test_sidecar_fields_for_other_payloads_are_ignored():
    record = SidecarRecord(compression="LZW", duration="9")
    out = apply_sidecar(text_sub(), record)
    assert out == text_sub()


def test_apply_sidecar_is_idempotent():
    record = SidecarRecord(keywords=("k",), language="en",
                           compression="none", resolution="1dpi")
    sub = text_sub(payload=ImageMeta(length=1, width=1))
    once = apply_sidecar(sub, record)
    assert apply_sidecar(once, record) == once


def test_apply_sidecar_none_is_identity():
    sub = text_sub()
    assert apply_sidecar(sub, None) is sub


def test_tagged_text_normalizes_links_to_tuple():
    body = TaggedText(content="<a href=x>", links=["x"])
    assert body.links == ("x",)
