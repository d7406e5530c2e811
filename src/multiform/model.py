"""Typed metadata for one integrated web object.

A complex object groups one or more subdocuments, each carrying the
metadata extracted from a single data file plus whatever the user captured
alongside it. All types are frozen values: safe to share between threads
and to compare structurally.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, replace

from .errors import EmptySubdocuments, InvalidDate, InvariantViolation
from .sidecar import SidecarRecord

TYPE_TEXT = "Text"
TYPE_IMAGE = "Image"
TYPE_RELATIONAL = "Relational view"
TYPE_SOUND = "Sound"
TYPE_VIDEO = "Video"


def _require(cond: bool, message: str):
    if not cond:
        raise InvariantViolation(message)


# -- text --------------------------------------------------------------------

@dataclass(frozen=True)
class PlainText:
    content: str


@dataclass(frozen=True)
class TaggedText:
    content: str
    links: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(self.links))


@dataclass(frozen=True)
class TextPayload:
    nb_char: int
    nb_lines: int
    body: PlainText | TaggedText

    def __post_init__(self):
        _require(self.nb_char >= 0, "nb_char must be >= 0")
        _require(self.nb_lines >= 0, "nb_lines must be >= 0")
        _require(isinstance(self.body, (PlainText, TaggedText)),
                 "text body must be PlainText or TaggedText")


# -- relational views ----------------------------------------------------------

@dataclass(frozen=True)
class Attribute:
    att_name: str
    domain: str = "string"

    def __post_init__(self):
        _require(bool(self.att_name), "attribute name must be nonempty")


@dataclass(frozen=True)
class Cell:
    att_name_ref: str
    value: str


@dataclass(frozen=True)
class ViewTuple:
    cells: tuple[Cell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        _require(len(self.cells) >= 1, "a tuple needs at least one cell")


@dataclass(frozen=True)
class RelationalView:
    attributes: tuple[Attribute, ...]
    tuples: tuple[ViewTuple, ...] = ()
    query: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))
        object.__setattr__(self, "tuples", tuple(self.tuples))
        _require(len(self.attributes) >= 1, "a view needs at least one attribute")
        names = [a.att_name for a in self.attributes]
        _require(len(set(names)) == len(names),
                 "attribute names must be unique within a view")
        declared = set(names)
        for t in self.tuples:
            for c in t.cells:
                if c.att_name_ref not in declared:
                    raise InvariantViolation(
                        f"cell references undeclared attribute {c.att_name_ref!r}")


# -- images --------------------------------------------------------------------

@dataclass(frozen=True)
class ImageMeta:
    length: int
    width: int
    format: str | None = None
    compression: str | None = None
    resolution: str | None = None

    def __post_init__(self):
        _require(self.length >= 1 and self.width >= 1,
                 "image dimensions must be >= 1")


# -- continuous media ------------------------------------------------------------

@dataclass(frozen=True)
class Sound:
    ref: str


@dataclass(frozen=True)
class Video:
    ref: str


@dataclass(frozen=True)
class ContinuousMeta:
    duration: str
    speed: str
    media: Sound | Video

    def __post_init__(self):
        try:
            seconds = float(self.duration)
        except ValueError:
            seconds = -1.0
        _require(seconds >= 0.0, "duration must be decimal text >= 0")
        _require(bool(self.speed), "speed must be nonempty")
        _require(isinstance(self.media, (Sound, Video)),
                 "media must be Sound or Video")


Payload = TextPayload | RelationalView | ImageMeta | ContinuousMeta


def payload_type(payload: Payload) -> str:
    """Subdocument type string implied by the payload variant."""
    if isinstance(payload, TextPayload):
        return TYPE_TEXT
    if isinstance(payload, ImageMeta):
        return TYPE_IMAGE
    if isinstance(payload, RelationalView):
        return TYPE_RELATIONAL
    if isinstance(payload, ContinuousMeta):
        return TYPE_SOUND if isinstance(payload.media, Sound) else TYPE_VIDEO
    raise InvariantViolation(f"unknown payload variant {type(payload).__name__}")


# -- subdocuments and the object -----------------------------------------------

@dataclass(frozen=True)
class Subdocument:
    doc_name: str
    size: int
    location: str
    payload: Payload
    language: str | None = None
    keywords: tuple[str, ...] = ()
    type: str = ""  # derived from the payload when left blank

    def __post_init__(self):
        object.__setattr__(self, "keywords", tuple(self.keywords))
        _require(bool(self.doc_name), "doc_name must be nonempty")
        _require(self.size >= 0, "size must be >= 0")
        derived = payload_type(self.payload)
        if self.type:
            _require(self.type == derived,
                     f"type {self.type!r} does not match payload ({derived})")
        else:
            object.__setattr__(self, "type", derived)


@dataclass(frozen=True)
class ComplexObject:
    obj_name: str
    date: datetime.date
    source: str
    subdocuments: tuple[Subdocument, ...]

    def __post_init__(self):
        object.__setattr__(self, "subdocuments", tuple(self.subdocuments))
        _require(bool(self.obj_name), "obj_name must be nonempty")
        _require(isinstance(self.date, datetime.date), "date must be a calendar date")
        if not self.subdocuments:
            raise EmptySubdocuments("a complex object needs at least one subdocument")


def make_complex_object(name: str,
                        date: str | datetime.date | None,
                        source: str,
                        subdocuments) -> ComplexObject:
    """Assemble a complex object, defaulting the date to today (UTC)."""
    if date is None:
        date = datetime.datetime.now(datetime.timezone.utc).date()
    elif isinstance(date, str):
        try:
            date = datetime.date.fromisoformat(date)
        except ValueError:
            raise InvalidDate(f"{date!r} is not an ISO calendar date") from None
    return ComplexObject(obj_name=name, date=date, source=source,
                         subdocuments=tuple(subdocuments))


# The record fields each payload kind takes, named alike on record and payload.
_PAYLOAD_FIELDS = {
    TextPayload: (),
    ImageMeta: ("compression", "resolution"),
    RelationalView: ("query",),
    ContinuousMeta: ("duration", "speed"),
}


def apply_sidecar(subdoc: Subdocument, record: SidecarRecord | None) -> Subdocument:
    """Overlay captured metadata onto an extracted subdocument.

    Only fields relevant to the payload are applied; extracted facts (size,
    dimensions, character counts) are never touched. Applying the same
    record twice gives the same result as applying it once.
    """
    if record is None:
        return subdoc

    updates = {}
    if record.keywords:
        updates["keywords"] = record.keywords
    if record.language is not None:
        updates["language"] = record.language
    if record.name is not None:
        updates["doc_name"] = record.name

    payload = subdoc.payload
    pu = {name: getattr(record, name) for name in _PAYLOAD_FIELDS[type(payload)]
          if getattr(record, name) is not None}
    domains = record.domains
    if domains and isinstance(payload, RelationalView):
        pu["attributes"] = tuple(
            Attribute(a.att_name, domains[a.att_name]) if a.att_name in domains else a
            for a in payload.attributes)
    if pu:
        updates["payload"] = replace(payload, **pu)

    return replace(subdoc, **updates) if updates else subdoc
