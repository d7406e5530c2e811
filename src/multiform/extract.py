"""Metadata extraction for the supported data kinds.

Plain and tagged text, image headers (GIF, PNG, JPEG), delimiter-separated
relational exports, and sound/video files each produce the payload their
kind calls for. Classification is by file extension; binary headers are
read directly so no decoder is pulled in for a few integers. What a file
cannot tell comes from its sidecar record, overlaid once by apply_sidecar.
"""

from __future__ import annotations

import csv
import io
import os
import re
from pathlib import PurePath

from . import model as m
from .errors import (
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
from .sidecar import EMPTY, SidecarRecord, parse_sidecar

KIND_TEXT = "text"
KIND_TAGGED_TEXT = "tagged_text"
KIND_IMAGE = "image"
KIND_RELATIONAL_VIEW = "relational_view"
KIND_SOUND = "sound"
KIND_VIDEO = "video"

EXTENSION_KINDS = {
    "txt": KIND_TEXT,
    "htm": KIND_TAGGED_TEXT,
    "html": KIND_TAGGED_TEXT,
    "xml": KIND_TAGGED_TEXT,
    "sgml": KIND_TAGGED_TEXT,
    "gif": KIND_IMAGE,
    "png": KIND_IMAGE,
    "jpg": KIND_IMAGE,
    "jpeg": KIND_IMAGE,
    "csv": KIND_RELATIONAL_VIEW,
    "tsv": KIND_RELATIONAL_VIEW,
    "wav": KIND_SOUND,
    "mp3": KIND_SOUND,
    "avi": KIND_VIDEO,
    "mpg": KIND_VIDEO,
    "mpeg": KIND_VIDEO,
    "mp4": KIND_VIDEO,
}

def detect_kind(path: str) -> str:
    """Classify a file by its extension (case-insensitive)."""
    suffix = PurePath(path).suffix.lower().lstrip(".")
    kind = EXTENSION_KINDS.get(suffix)
    if kind is None:
        raise UnknownExtension(path, sorted(EXTENSION_KINDS))
    return kind


def _kind_among(path: str, *kinds: str) -> str:
    """detect_kind(path), refused unless it is one of kinds."""
    kind = detect_kind(path)
    if kind not in kinds:
        raise UnknownExtension(
            path, [ext for ext, k in EXTENSION_KINDS.items() if k in kinds])
    return kind


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileNotReadable(path, exc.strerror or str(exc)) from None


def _decode(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(path, exc.start) from None


def read_text(path: str) -> str:
    """A file's UTF-8 text; unreadable or badly encoded files raise MultiformError."""
    return _decode(path, _read_bytes(path))


def load_sidecar(path: str) -> SidecarRecord:
    """Read and parse a sidecar file."""
    return parse_sidecar(read_text(path))


# -- text ------------------------------------------------------------------------


def count_lines(text: str) -> int:
    """Lines separated by LF; a final unterminated fragment is one line."""
    if not text:
        return 0
    return text.count("\n") + (0 if text.endswith("\n") else 1)


def extract_text(path: str) -> m.TextPayload:
    """Character and line counts plus the body, tagged or plain by kind."""
    kind = _kind_among(path, KIND_TEXT, KIND_TAGGED_TEXT)
    content = read_text(path)
    if kind == KIND_TAGGED_TEXT:
        body = m.TaggedText(content=content, links=extract_links(content))
    else:
        body = m.PlainText(content=content)
    return m.TextPayload(nb_char=len(content), nb_lines=count_lines(content), body=body)


# Tag-level scan: markup does not have to be well formed, values come back
# exactly as written (no unescaping, no URL resolution).
_TAG_RE = re.compile(r"<[A-Za-z][^>]*>")
_ATTR_RE = re.compile(
    r"""(?i)(?<![\w-])(?:href|src)\s*=\s*(?:"([^"]*)"|'([^']*)'|([^\s>"']+))"""
)


def extract_links(content: str) -> tuple[str, ...]:
    """href/src attribute values on any tag, in document order, duplicates kept."""
    links = []
    for tag in _TAG_RE.finditer(content):
        for attr in _ATTR_RE.finditer(tag.group()):
            links.append(next(g for g in attr.groups() if g is not None))
    return tuple(links)


# -- images ------------------------------------------------------------------------


def extract_image(path: str) -> m.ImageMeta:
    """Width and length from the file header; format from the magic bytes.

    Compression and resolution are not stored in these headers uniformly,
    so they stay unset unless captured alongside the file.
    """
    data = _read_bytes(path)
    if data[:6] in (b"GIF87a", b"GIF89a"):
        # logical screen descriptor: width and height, little-endian u16
        if len(data) < 10:
            raise CorruptHeader(path, "file shorter than the GIF screen descriptor")
        width = int.from_bytes(data[6:8], "little")
        length = int.from_bytes(data[8:10], "little")
        return _image_meta(path, "Gif", width, length)
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        if len(data) < 24 or data[12:16] != b"IHDR":
            raise CorruptHeader(path, "PNG IHDR chunk missing or truncated")
        width = int.from_bytes(data[16:20], "big")
        length = int.from_bytes(data[20:24], "big")
        return _image_meta(path, "Png", width, length)
    if data[:2] == b"\xff\xd8":
        return _jpeg_meta(path, data)
    raise UnsupportedFormat(path)


def _image_meta(path, fmt, width, length):
    if width < 1 or length < 1:
        raise CorruptHeader(path, f"implausible dimensions {width}x{length}")
    return m.ImageMeta(length=length, width=width, format=fmt)


def _jpeg_meta(path, data):
    # walk the marker segments to the first baseline (C0) or progressive
    # (C2) frame header: [marker][length u16be][precision][height][width]
    pos = 2
    while True:
        if pos >= len(data):
            raise CorruptHeader(path, "no JPEG frame header before end of file")
        if data[pos] != 0xFF:
            raise CorruptHeader(path, f"expected a marker at offset {pos}")
        while pos < len(data) and data[pos] == 0xFF:
            pos += 1
        if pos >= len(data):
            raise CorruptHeader(path, "truncated JPEG marker")
        marker = data[pos]
        pos += 1
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue
        if marker in (0xD9, 0xDA):
            raise CorruptHeader(path, "no JPEG frame header before scan data")
        if pos + 2 > len(data):
            raise CorruptHeader(path, "truncated JPEG segment length")
        seglen = int.from_bytes(data[pos:pos + 2], "big")
        if seglen < 2:
            raise CorruptHeader(path, "bad JPEG segment length")
        if marker in (0xC0, 0xC2):
            if pos + 7 > len(data):
                raise CorruptHeader(path, "truncated JPEG frame header")
            length = int.from_bytes(data[pos + 3:pos + 5], "big")
            width = int.from_bytes(data[pos + 5:pos + 7], "big")
            return _image_meta(path, "Jpeg", width, length)
        pos += seglen


# -- relational views -----------------------------------------------------------------


def ingest_relational_view(data_path: str,
                           intention_only: bool = False) -> m.RelationalView:
    """Read a delimiter-separated export with a header row.

    Every attribute's domain is "string" and the query is None: both are
    captured metadata, which apply_sidecar overlays. With intention_only the
    data rows are dropped and only the attributes are kept. A leading byte
    order mark is skipped, a cell may be as long as the file, and a NUL is
    refused with its line, LF, CRLF and CR each ending one.
    """
    _kind_among(data_path, KIND_RELATIONAL_VIEW)
    delimiter = "\t" if PurePath(data_path).suffix.lower() == ".tsv" else ","
    text = read_text(data_path).removeprefix("\ufeff")
    # the csv module refuses a NUL before Python 3.11 and passes it on after
    nul = text.find("\0")
    if nul >= 0:
        head = text[:nul]
        line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
        raise MalformedTable(data_path, line, "line contains NUL")
    # the limit is process-wide: raise it to fit this text, never lower it
    csv.field_size_limit(max(csv.field_size_limit(), len(text)))
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedTable(data_path, reader.line_num, str(exc)) from None
    if not rows or rows[0] in ([], [""]):
        raise EmptyHeader(data_path)
    header = rows[0]
    attributes = tuple(m.Attribute(att_name=name) for name in header)
    tuples = []
    if not intention_only:
        for rownum, row in enumerate(rows[1:], start=1):
            if len(row) != len(header):
                raise RaggedRow(data_path, rownum, len(header), len(row))
            tuples.append(m.ViewTuple(tuple(
                m.Cell(att_name_ref=name, value=value)
                for name, value in zip(header, row))))
    return m.RelationalView(attributes=attributes, tuples=tuple(tuples))


# -- continuous media -------------------------------------------------------------------


def extract_continuous(path: str,
                       sidecar: SidecarRecord | None = None) -> m.ContinuousMeta:
    """Duration and speed are captured, not decoded: the sidecar must carry them."""
    kind = _kind_among(path, KIND_SOUND, KIND_VIDEO)
    record = sidecar or EMPTY
    if record.duration is None:
        raise MissingSidecarField("duration")
    if record.speed is None:
        raise MissingSidecarField("speed")
    media = m.Sound(path) if kind == KIND_SOUND else m.Video(path)
    return m.ContinuousMeta(duration=record.duration, speed=record.speed, media=media)


# -- one file, one subdocument ---------------------------------------------------------


def extract_subdocument(path: str,
                        sidecar: SidecarRecord | None = None,
                        intention_only: bool = False) -> m.Subdocument:
    """Extract a file into a subdocument named after its stem, then overlay
    the sidecar record once with apply_sidecar: that is where a name, a
    view's query or its domains come from. A missing file raises
    FileNotReadable, for sound and video too.
    """
    kind = detect_kind(path)
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise FileNotReadable(path, exc.strerror or str(exc)) from None
    if kind in (KIND_TEXT, KIND_TAGGED_TEXT):
        payload = extract_text(path)
    elif kind == KIND_IMAGE:
        payload = extract_image(path)
    elif kind == KIND_RELATIONAL_VIEW:
        payload = ingest_relational_view(path, intention_only)
    else:
        payload = extract_continuous(path, sidecar)
    sub = m.Subdocument(doc_name=PurePath(path).stem, size=size, location=path,
                        payload=payload)
    return m.apply_sidecar(sub, sidecar)
