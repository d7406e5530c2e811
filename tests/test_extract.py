import csv

import pytest

from imagegen import make_gif, make_png
from multiform.errors import (
    CorruptHeader,
    EmptyHeader,
    FileNotReadable,
    InvalidEncoding,
    MalformedTable,
    MissingSidecarField,
    RaggedRow,
    UnknownExtension,
    UnsupportedFormat,
)
from multiform.extract import (
    KIND_IMAGE,
    KIND_RELATIONAL_VIEW,
    KIND_SOUND,
    KIND_TAGGED_TEXT,
    KIND_TEXT,
    KIND_VIDEO,
    detect_kind,
    extract_continuous,
    extract_image,
    extract_links,
    extract_subdocument,
    extract_text,
    ingest_relational_view,
    load_sidecar,
)
from multiform.model import PlainText, Sound, TaggedText, Video, apply_sidecar
from multiform.sidecar import parse_sidecar


def jpeg_bytes(length, width, frame_marker=0xC0, segments=(), tail=b"\xff\xd9"):
    """Assemble a marker stream; only the metadata walk has to accept it."""
    out = bytearray(b"\xff\xd8")
    for marker, payload in segments:
        out += bytes([0xFF, marker])
        out += (len(payload) + 2).to_bytes(2, "big") + payload
    frame = bytes([8]) + length.to_bytes(2, "big") + width.to_bytes(2, "big") + b"\x01"
    out += bytes([0xFF, frame_marker])
    out += (len(frame) + 2).to_bytes(2, "big") + frame
    return bytes(out) + tail


# -- classification --------------------------------------------------------------


@pytest.mark.parametrize("name,kind", [
    ("a.txt", KIND_TEXT),
    ("a.htm", KIND_TAGGED_TEXT),
    ("a.html", KIND_TAGGED_TEXT),
    ("a.xml", KIND_TAGGED_TEXT),
    ("a.sgml", KIND_TAGGED_TEXT),
    ("a.gif", KIND_IMAGE),
    ("a.png", KIND_IMAGE),
    ("a.jpg", KIND_IMAGE),
    ("a.jpeg", KIND_IMAGE),
    ("a.csv", KIND_RELATIONAL_VIEW),
    ("a.tsv", KIND_RELATIONAL_VIEW),
    ("a.wav", KIND_SOUND),
    ("a.mp3", KIND_SOUND),
    ("a.avi", KIND_VIDEO),
    ("a.mpg", KIND_VIDEO),
    ("a.mpeg", KIND_VIDEO),
    ("a.mp4", KIND_VIDEO),
])
def test_kind_by_extension(name, kind):
    assert detect_kind(name) == kind


def test_kind_ignores_case_and_directories():
    assert detect_kind("/data/Pics/Wave.GIF") == KIND_IMAGE


def test_unknown_extension_lists_what_is_supported():
    with pytest.raises(UnknownExtension) as err:
        detect_kind("notes.docx")
    assert err.value.path == "notes.docx"
    assert "txt" in err.value.supported
    assert list(err.value.supported) == sorted(err.value.supported)


def test_common_fields(write):
    path = write("essay.txt", "hello\n")
    sub = extract_subdocument(path)
    assert sub.doc_name == "essay"
    assert sub.type == "Text"
    assert sub.size == 6
    assert sub.location == path


def test_common_accepts_an_explicit_name(write):
    path = write("essay.txt", "x")
    record = parse_sidecar("name: My Essay\n")
    assert extract_subdocument(path, sidecar=record).doc_name == "My Essay"


def test_missing_file_is_reported_with_its_path(tmp_path):
    with pytest.raises(FileNotReadable) as err:
        extract_subdocument(str(tmp_path / "gone.txt"))
    assert "gone.txt" in err.value.path
    # sound and video are never read, so this is their only check
    record = parse_sidecar("duration: 3\nspeed: 8 kHz\n")
    with pytest.raises(FileNotReadable) as err:
        extract_subdocument(str(tmp_path / "gone.wav"), sidecar=record)
    assert "gone.wav" in err.value.path


@pytest.mark.parametrize("name", ["gone.meta", "."], ids=["missing", "directory"])
def test_a_sidecar_that_cannot_be_read_is_reported_with_its_path(tmp_path, name):
    path = str(tmp_path / name)
    with pytest.raises(FileNotReadable) as err:
        load_sidecar(path)
    assert err.value.path == path
    assert str(err.value).startswith(f"cannot read {path!r}: ")


# -- text ------------------------------------------------------------------------


@pytest.mark.parametrize("content,nb_char,nb_lines", [
    ("ab\ncd\n", 6, 2),
    ("", 0, 0),
    ("hello", 5, 1),
    ("a\nb", 3, 2),        # unterminated final fragment still counts
    ("\n\n", 2, 2),
])
def test_text_metrics(write, content, nb_char, nb_lines):
    payload = extract_text(write("t.txt", content))
    assert (payload.nb_char, payload.nb_lines) == (nb_char, nb_lines)


def test_plain_text_body(write):
    payload = extract_text(write("t.txt", "no <a href='x'> scan here"))
    assert isinstance(payload.body, PlainText)
    assert payload.body.content == "no <a href='x'> scan here"


def test_tagged_text_collects_links(write):
    payload = extract_text(write("t.html", '<a href="u1">x</a>'))
    assert isinstance(payload.body, TaggedText)
    assert payload.body.links == ("u1",)


def test_character_count_is_in_characters_not_bytes(write):
    payload = extract_text(write("t.txt", "héllo\n"))
    assert payload.nb_char == 6


def test_bad_encoding_reports_the_byte_offset(write):
    path = write("t.txt", b"ok\xffbad")
    with pytest.raises(InvalidEncoding) as err:
        extract_text(path)
    assert err.value.offset == 2


def test_extract_text_refuses_other_kinds(write):
    with pytest.raises(UnknownExtension):
        extract_text(write("t.csv", "a,b\n"))


@pytest.mark.parametrize("markup,links", [
    ('<a href="u">x</a>', ("u",)),
    ("<a href='u'>x</a>", ("u",)),
    ("<a href=u>x</a>", ("u",)),
    ('<A HREF="u">x</A>', ("u",)),
    ('<img src="p.gif">', ("p.gif",)),
    ('<a href="u1"><a href="u2">', ("u1", "u2")),
    ('<a href="u"><a href="u">', ("u", "u")),           # duplicates kept
    ('<x data-src="skip" src="keep">', ("keep",)),
    ('outside href="nope" <a href="yes">', ("yes",)),   # only inside tags
    ('<a href="a&amp;b">', ("a&amp;b",)),               # verbatim, no unescaping
    ("plain text with no markup", ()),
    ('<a\nhref = "u">', ("u",)),
])
def test_link_extraction(markup, links):
    assert extract_links(markup) == links


def test_links_come_back_in_document_order(write):
    markup = '<img src="1"> text <a href="2">x</a> <link href="3">'
    assert extract_links(markup) == ("1", "2", "3")


# -- images ----------------------------------------------------------------------


def test_gif_dimensions(write):
    meta = extract_image(write("w.gif", make_gif(344, 219)))
    assert (meta.width, meta.length, meta.format) == (344, 219, "Gif")
    assert meta.compression is None and meta.resolution is None


def test_gif87a_is_accepted(write):
    meta = extract_image(write("old.gif", make_gif(2, 3, version=b"87a")))
    assert (meta.width, meta.length) == (2, 3)


def test_truncated_gif(write):
    with pytest.raises(CorruptHeader):
        extract_image(write("w.gif", b"GIF89a\x01\x00"))


def test_gif_with_zero_dimension(write):
    with pytest.raises(CorruptHeader) as err:
        extract_image(write("w.gif", b"GIF89a\x00\x00\x05\x00rest"))
    assert "0x5" in str(err.value)


def test_png_dimensions(write):
    meta = extract_image(write("p.png", make_png(640, 480)))
    assert (meta.width, meta.length, meta.format) == (640, 480, "Png")


def test_png_with_a_mangled_header_chunk(write):
    data = bytearray(make_png(10, 10))
    data[12:16] = b"XXXX"
    with pytest.raises(CorruptHeader):
        extract_image(write("p.png", bytes(data)))


def test_baseline_jpeg_dimensions(write):
    data = jpeg_bytes(219, 344, segments=[(0xE0, b"JFIF\x00")])
    meta = extract_image(write("p.jpg", data))
    assert (meta.width, meta.length, meta.format) == (344, 219, "Jpeg")


def test_progressive_jpeg_dimensions(write):
    data = jpeg_bytes(100, 200, frame_marker=0xC2)
    meta = extract_image(write("p.jpg", data))
    assert (meta.width, meta.length) == (200, 100)


def test_jpeg_skips_fill_bytes_and_standalone_markers(write):
    body = jpeg_bytes(5, 6)[2:]
    data = b"\xff\xd8" + b"\xff\x01" + b"\xff\xff\xff\xd0" + body
    assert extract_image(write("p.jpg", data)).width == 6


def test_jpeg_without_a_frame_header(write):
    with pytest.raises(CorruptHeader) as err:
        extract_image(write("p.jpg", b"\xff\xd8\xff\xd9"))
    assert "frame header" in str(err.value)


def test_jpeg_scan_data_before_frame(write):
    data = b"\xff\xd8\xff\xda\x00\x04\x01\x00"
    with pytest.raises(CorruptHeader):
        extract_image(write("p.jpg", data))


@pytest.mark.parametrize("data, detail", [
    (b"\xff\xd8", "no JPEG frame header before end of file"),
    (b"\xff\xd8\xff\xff", "truncated JPEG marker"),
    (b"\xff\xd8\xff\xe0\x00", "truncated JPEG segment length"),
    (b"\xff\xd8\xff\xe0\x00\x01", "bad JPEG segment length"),
    (b"\xff\xd8\xff\xc0\x00\x11\x08\x00", "truncated JPEG frame header"),
])
def test_truncated_jpeg(write, data, detail):
    path = write("p.jpg", data)
    with pytest.raises(CorruptHeader) as err:
        extract_image(path)
    assert str(err.value) == f"{path!r}: {detail}"


def test_jpeg_with_garbage_between_segments(write):
    data = b"\xff\xd8" + b"\x00\x00\x00"
    with pytest.raises(CorruptHeader):
        extract_image(write("p.jpg", data))


def test_unrecognized_signature(write):
    with pytest.raises(UnsupportedFormat):
        extract_image(write("p.gif", b"BM\x00\x00 not a gif"))


def test_generated_images_agree_with_a_reference_decoder(write):
    PIL = pytest.importorskip("PIL.Image")
    for w, h in [(1, 1), (344, 219), (2, 900)]:
        for data, ext in [(make_gif(w, h), "gif"), (make_png(w, h), "png")]:
            path = write(f"ref_{w}x{h}.{ext}", data)
            meta = extract_image(path)
            with PIL.open(path) as img:
                assert (meta.width, meta.length) == img.size


# -- relational views -------------------------------------------------------------


def test_csv_ingestion(write):
    view = ingest_relational_view(write("t.csv", "name,age\nAda,36\nAlan,41\n"))
    assert [a.att_name for a in view.attributes] == ["name", "age"]
    assert [a.domain for a in view.attributes] == ["string", "string"]
    assert [[c.value for c in t.cells] for t in view.tuples] == \
        [["Ada", "36"], ["Alan", "41"]]
    assert view.query is None


def test_tsv_uses_tab_delimiters(write):
    view = ingest_relational_view(write("t.tsv", "a\tb\n1,5\t2\n"))
    assert [c.value for c in view.tuples[0].cells] == ["1,5", "2"]


def test_quoted_cells_may_contain_delimiters_and_newlines(write):
    view = ingest_relational_view(write("t.csv", 'a,b\n"x,y","l1\nl2"\n'))
    assert [c.value for c in view.tuples[0].cells] == ["x,y", "l1\nl2"]


@pytest.mark.parametrize("name, delimiter", [("t.csv", ","), ("t.tsv", "\t")])
def test_rows_may_end_in_lf_crlf_or_cr(write, name, delimiter):
    lf = f"a{delimiter}b\n1{delimiter}2\n{delimiter}x\n"
    view = ingest_relational_view(write(name, lf.encode()))
    assert len(view.tuples) == 2
    for newline in ("\r\n", "\r"):
        text = lf.replace("\n", newline)
        assert ingest_relational_view(write(name, text.encode())) == view


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_quoted_cr_stays_in_its_cell(write, newline):
    text = f'a,b{newline}"x\ry",z{newline}'
    view = ingest_relational_view(write("t.csv", text.encode()))
    assert [c.value for c in view.tuples[0].cells] == ["x\ry", "z"]


@pytest.mark.parametrize("content", ["", "\n", "\na,b\n"])
def test_empty_header_is_rejected(write, content):
    with pytest.raises(EmptyHeader):
        ingest_relational_view(write("t.csv", content))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name, delimiter", [("t.csv", ","), ("t.tsv", "\t")])
def test_a_nul_is_refused_with_its_line(write, name, delimiter, newline):
    # the csv module refuses a NUL before Python 3.11 and passes it on after;
    # the line counts the file's line ends, a quoted one included
    text = f'a{delimiter}b{newline}"1{newline}2"{delimiter}3{newline}x\0{delimiter}y{newline}'
    path = write(name, text.encode())
    with pytest.raises(MalformedTable) as err:
        ingest_relational_view(path)
    assert str(err.value) == f"{path!r} line 4: line contains NUL"


def test_ragged_row_reports_its_data_row_number(write):
    with pytest.raises(RaggedRow) as err:
        ingest_relational_view(write("t.csv", "a,b\n1,2\n3\n"))
    assert err.value.row == 2
    assert "expected 2 cells, got 1" in str(err.value)


def test_domains_come_from_the_sidecar(write):
    record = parse_sidecar("domain.age: integer\n")
    view = extract_subdocument(write("t.csv", "name,age\n"), sidecar=record).payload
    assert [a.domain for a in view.attributes] == ["string", "integer"]


def test_a_byte_order_mark_is_not_part_of_the_first_attribute(write):
    record = parse_sidecar("domain.a: integer\n")
    view = extract_subdocument(write("t.csv", "\ufeffa,b\n1,2\n"),
                               sidecar=record).payload
    assert [(a.att_name, a.domain) for a in view.attributes] == \
        [("a", "integer"), ("b", "string")]


def test_a_text_payload_keeps_its_byte_order_mark(write):
    assert extract_text(write("t.txt", "\ufeffonce\n")).body.content == "\ufeffonce\n"


def test_the_csv_field_limit_grows_to_fit_a_cell_and_never_shrinks(write):
    cell = "x" * 200_000
    old = csv.field_size_limit(131_072)   # csv's default
    try:
        view = ingest_relational_view(write("big.csv", f"k\n{cell}\n"))
        assert view.tuples[0].cells[0].value == cell
        raised = csv.field_size_limit()
        ingest_relational_view(write("small.csv", "k\n1\n"))
        assert csv.field_size_limit() == raised
    finally:
        csv.field_size_limit(old)


def test_intention_only_keeps_attributes_drops_rows(write):
    view = ingest_relational_view(write("t.csv", "a,b\n1,2\n"),
                                  intention_only=True)
    assert len(view.attributes) == 2
    assert view.tuples == ()


def test_intention_only_skips_ragged_data(write):
    view = ingest_relational_view(write("t.csv", "a,b\nlone\n"),
                                  intention_only=True)
    assert view.tuples == ()


def test_view_ingestion_refuses_other_extensions(write):
    with pytest.raises(UnknownExtension):
        ingest_relational_view(write("t.txt", "a,b\n"))


# -- continuous media --------------------------------------------------------------


def test_sound_and_video_need_duration_and_speed():
    with pytest.raises(MissingSidecarField) as err:
        extract_continuous("a.wav", sidecar=parse_sidecar("speed: 44.1 kHz\n"))
    assert err.value.field == "duration"
    with pytest.raises(MissingSidecarField) as err:
        extract_continuous("a.wav", sidecar=parse_sidecar("duration: 3\n"))
    assert err.value.field == "speed"


def test_sound_extraction(write):
    record = parse_sidecar("duration: 3.5\nspeed: 44.1 kHz\n")
    meta = extract_continuous("clip.wav", sidecar=record)
    assert meta == (  # dataclass equality
        type(meta)(duration="3.5", speed="44.1 kHz", media=Sound("clip.wav")))


def test_video_extraction():
    record = parse_sidecar("duration: 90\nspeed: 25 fps\n")
    meta = extract_continuous("film.mp4", sidecar=record)
    assert meta.media == Video("film.mp4")


# -- whole subdocuments -------------------------------------------------------------


def test_subdocument_from_a_text_file(write):
    path = write("story.txt", "once\nupon\n")
    sub = extract_subdocument(path)
    assert sub.doc_name == "story"
    assert sub.type == "Text"
    assert sub.size == 10
    assert sub.location == path
    assert sub.payload.nb_lines == 2


def test_subdocument_overlays_sidecar_metadata(write):
    record = parse_sidecar(
        "keyword: surf\nkeyword: wave\nlanguage: English\nname: Surfing\n")
    sub = extract_subdocument(write("s.txt", "x"), sidecar=record)
    assert sub.doc_name == "Surfing"
    assert sub.keywords == ("surf", "wave")
    assert sub.language == "English"


def test_image_subdocument_takes_sidecar_compression(write):
    record = parse_sidecar("compression: lzw\nresolution: 72dpi\n")
    sub = extract_subdocument(write("w.gif", make_gif(4, 5)), sidecar=record)
    assert sub.payload.compression == "lzw"
    assert sub.payload.resolution == "72dpi"
    assert sub.size == len(make_gif(4, 5))


def test_view_subdocument_takes_query_and_domains(write):
    record = parse_sidecar("domain.n: integer\nquery: SELECT n FROM t\n")
    path = write("v.csv", "n\n4\n")
    sub = extract_subdocument(path, sidecar=record)
    assert sub.type == "Relational view"
    assert sub.payload.query == "SELECT n FROM t"
    assert sub.payload.attributes[0].domain == "integer"


def test_query_argument_reaches_the_view(write):
    record = parse_sidecar("query: Q1\n")
    sub = extract_subdocument(write("v.csv", "n\n"), sidecar=record,
                              intention_only=True)
    assert sub.payload.query == "Q1"
    assert sub.payload.tuples == ()


def test_continuous_subdocument(write):
    record = parse_sidecar("duration: 3\nspeed: 8 kHz\n")
    path = write("c.wav", b"RIFFxxxx")
    sub = extract_subdocument(path, sidecar=record)
    assert sub.type == "Sound"
    assert sub.payload.media.ref == path


_EVERY_FIELD = parse_sidecar(
    "keyword: surf\nkeyword: wave\nlanguage: English\nresolution: 72dpi\n"
    "compression: lzw\nduration: 3\nspeed: 8 kHz\nquery: SELECT n FROM t\n"
    "name: Given\nsource: Web\ndate: 2002-06-15\ndomain.n: integer\n")


@pytest.mark.parametrize("name,content", [
    ("s.txt", "once\n"),
    ("p.html", '<a href="u">x</a>'),
    ("w.gif", make_gif(4, 5)),
    ("v.csv", "n,m\n4,5\n"),
])
def test_the_record_is_applied_once_after_extraction(write, name, content):
    path = write(name, content)
    assert extract_subdocument(path, sidecar=_EVERY_FIELD) == \
        apply_sidecar(extract_subdocument(path), _EVERY_FIELD)
